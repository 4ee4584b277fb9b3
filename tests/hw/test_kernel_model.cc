#include "llm4d/hw/kernel_model.h"

#include "llm4d/hw/perf_variation.h"

#include <gtest/gtest.h>

namespace llm4d {
namespace {

class KernelModelTest : public ::testing::Test
{
  protected:
    GpuSpec gpu = GpuSpec::h100Sxm();
    KernelModel model{gpu};
};

TEST_F(KernelModelTest, LargeGemmApproachesPeakEfficiency)
{
    const double eff = model.gemmEfficiency(16384, 16384, 16384);
    EXPECT_GT(eff, gpu.max_gemm_efficiency * 0.95);
    EXPECT_LE(eff, gpu.max_gemm_efficiency);
}

TEST_F(KernelModelTest, SmallGemmHasLowEfficiency)
{
    EXPECT_LT(model.gemmEfficiency(64, 64, 64), 0.35);
}

TEST_F(KernelModelTest, EfficiencyMonotoneInEveryDim)
{
    for (std::int64_t d = 128; d <= 8192; d *= 2) {
        EXPECT_LT(model.gemmEfficiency(d, 1024, 1024),
                  model.gemmEfficiency(2 * d, 1024, 1024));
        EXPECT_LT(model.gemmEfficiency(1024, d, 1024),
                  model.gemmEfficiency(1024, 2 * d, 1024));
        EXPECT_LT(model.gemmEfficiency(1024, 1024, d),
                  model.gemmEfficiency(1024, 1024, 2 * d));
    }
}

TEST_F(KernelModelTest, GemmTimeScalesWithWork)
{
    const double t1 = model.gemmTime(4096, 4096, 4096);
    const double t2 = model.gemmTime(8192, 4096, 4096);
    EXPECT_GT(t2, t1 * 1.8);
    EXPECT_LT(t2, t1 * 2.2);
}

TEST_F(KernelModelTest, GemmTimeSanityAbsolute)
{
    // 8192^3 GEMM = 1.1 PFLOP; at ~75% of 989 TF that's ~1.5 ms.
    const double t = model.gemmTime(8192, 8192, 8192);
    EXPECT_GT(t, 1.0e-3);
    EXPECT_LT(t, 2.5e-3);
}

TEST_F(KernelModelTest, TinyGemmIsLaunchBound)
{
    const double t = model.gemmTime(8, 8, 8);
    EXPECT_GE(t, model.launchOverhead());
    EXPECT_LT(t, model.launchOverhead() * 2.0);
}

TEST_F(KernelModelTest, SkinnyGemmIsMemoryBound)
{
    // m=16 rows over a huge weight matrix: must be limited by reading the
    // 2*k*n weight bytes, not by compute.
    const std::int64_t k = 16384, n = 16384;
    const double t = model.gemmTime(16, n, k) - model.launchOverhead();
    const double weight_read = 2.0 * k * n / (gpu.hbm_bw_gbps * 1e9);
    EXPECT_GE(t, weight_read * 0.99);
}

TEST_F(KernelModelTest, AttentionComputeScalesWithPairs)
{
    // Fix q_rows; double the pairs -> roughly double the time.
    const double t1 =
        model.attentionTime(8192LL * 4096, 8192, 8192, 16, 1, 128);
    const double t2 =
        model.attentionTime(8192LL * 8192, 8192, 8192, 16, 1, 128);
    EXPECT_GT(t2, t1 * 1.7);
}

TEST_F(KernelModelTest, AttentionEfficiencyRisesWithSeqLen)
{
    // Causal self-attention at growing seq: avg span grows, CTAs grow.
    double prev = 0.0;
    for (std::int64_t s = 1024; s <= 131072; s *= 4) {
        const std::int64_t pairs = s * (s + 1) / 2;
        const double eff = model.attentionEfficiency(pairs, s, 16);
        EXPECT_GT(eff, prev);
        prev = eff;
    }
    EXPECT_GT(prev, 0.6) << "128K causal attention should be near peak";
}

TEST_F(KernelModelTest, FragmentedKernelsSlowerThanOneBigKernel)
{
    // The Figure 13 mechanism: one kernel over S kv rows vs 2*cp kernels
    // over S/(2*cp) rows each. Same pairs total, more launches and lower
    // per-kernel efficiency.
    const std::int64_t s = 8192;
    const std::int64_t heads = 16;
    const std::int64_t pairs = s * (s + 1) / 2;
    const double whole = model.attentionTime(pairs, s, s, heads, 1, 128);
    const int chunks = 8; // cp = 4
    double fragmented = 0.0;
    for (int c = 0; c < chunks; ++c) {
        fragmented += model.attentionTime(pairs / chunks, s / chunks,
                                          s / chunks, heads, 1, 128);
    }
    EXPECT_GT(fragmented, whole * 1.1);
}

TEST_F(KernelModelTest, BackwardCostsMoreThanForward)
{
    const std::int64_t pairs = 4096LL * 2048;
    const double fwd = model.attentionTime(pairs, 4096, 4096, 16, 2, 128);
    const double bwd =
        model.attentionBackwardTime(pairs, 4096, 4096, 16, 2, 128);
    EXPECT_GT(bwd, fwd * 2.0);
    EXPECT_LT(bwd, fwd * 3.0);
}

TEST_F(KernelModelTest, ElementwiseIsBandwidthBound)
{
    const std::int64_t gib = 1LL << 30;
    const double t = model.elementwiseTime(gib) - model.launchOverhead();
    EXPECT_NEAR(t, static_cast<double>(gib) / (gpu.hbm_bw_gbps * 1e9),
                1e-9);
}

TEST_F(KernelModelTest, Hbm2eSlowerOnMemoryBoundWork)
{
    KernelModel slow(GpuSpec::h100Hbm2e());
    const std::int64_t bytes = 1LL << 28;
    EXPECT_GT(slow.elementwiseTime(bytes), model.elementwiseTime(bytes));
    // Compute-bound work is unchanged.
    EXPECT_DOUBLE_EQ(slow.gemmTime(8192, 8192, 8192),
                     model.gemmTime(8192, 8192, 8192));
}

TEST(PerfVariation, NominalByDefault)
{
    PerfVariation pv;
    EXPECT_DOUBLE_EQ(pv.speedOf(0), 1.0);
    EXPECT_DOUBLE_EQ(pv.apply(0, 2.0), 2.0);
}

TEST(PerfVariation, JitterIsDeterministicAndBounded)
{
    PerfVariation pv = PerfVariation::jitter(0.01, 99);
    for (std::int64_t r = 0; r < 64; ++r) {
        const double s = pv.speedOf(r);
        EXPECT_LE(s, 1.0);
        EXPECT_GT(s, 0.9);
        EXPECT_DOUBLE_EQ(s, pv.speedOf(r)) << "must be stable per rank";
    }
    PerfVariation pv2 = PerfVariation::jitter(0.01, 99);
    EXPECT_DOUBLE_EQ(pv.speedOf(17), pv2.speedOf(17));
}

TEST(PerfVariation, StragglerCompoundsWithJitterHere)
{
    // A straggler multiplies the rank's baseline jitter factor instead
    // of replacing it (see test_perf_variation.cc for the full contract).
    PerfVariation pv = PerfVariation::jitter(0.01, 1);
    const double jitter_speed = PerfVariation::jitter(0.01, 1).speedOf(5);
    pv.injectStraggler(5, 0.5);
    EXPECT_DOUBLE_EQ(pv.speedOf(5), 0.5 * jitter_speed);
    EXPECT_DOUBLE_EQ(pv.apply(5, 1.0), 1.0 / (0.5 * jitter_speed));
}

TEST(ClusterSpec, ProductionPreset)
{
    ClusterSpec c = ClusterSpec::llama3Production();
    EXPECT_EQ(c.numGpus(), 16384);
    EXPECT_EQ(c.node.gpus_per_node, 8);
    EXPECT_DOUBLE_EQ(c.node.gpu.nic_bw_gbps, 50.0);
}

TEST(ClusterSpec, PodGeometryPinsPartialLastPod)
{
    // Hand-computed values: every model delegates to these, so a model
    // cross-check alone cannot catch a wrong formula here.
    const ClusterSpec prod = ClusterSpec::llama3Production();
    EXPECT_EQ(prod.gpusPerPod(), 3072);
    EXPECT_EQ(prod.numPods(), 6); // 2048 nodes / 384 = 5 full + 1 partial
    EXPECT_EQ(prod.podOf(0), 0);
    EXPECT_EQ(prod.podOf(3071), 0);
    EXPECT_EQ(prod.podOf(3072), 1);
    EXPECT_EQ(prod.podOf(16383), 5);
    EXPECT_EQ(prod.podGpus(0), 3072);
    EXPECT_EQ(prod.podGpus(4), 3072);
    EXPECT_EQ(prod.podGpus(5), 1024);

    ClusterSpec exact; // 6 nodes in pods of 3: two full pods
    exact.num_nodes = 6;
    exact.nodes_per_pod = 3;
    EXPECT_EQ(exact.gpusPerPod(), 24);
    EXPECT_EQ(exact.numPods(), 2);
    EXPECT_EQ(exact.podOf(23), 0);
    EXPECT_EQ(exact.podOf(24), 1);
    EXPECT_EQ(exact.podGpus(1), 24);

    ClusterSpec small; // fewer nodes than one pod holds: one partial pod
    small.num_nodes = 2;
    EXPECT_EQ(small.numPods(), 1);
    EXPECT_EQ(small.podOf(15), 0);
    EXPECT_EQ(small.podGpus(0), 16);
}

} // namespace
} // namespace llm4d
