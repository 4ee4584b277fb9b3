#include "llm4d/sim/train_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "llm4d/fault/recovery_policy.h"
#include "llm4d/fsdp/fsdp.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

TrainJobConfig
production8k()
{
    return TrainJobConfig{}; // defaults are the Table 2 8K row
}

TEST(TrainSim, DerivedQuantities)
{
    TrainSim sim(production8k());
    EXPECT_EQ(sim.batchPerDpGroup(), 16);
    EXPECT_EQ(sim.microBatches(), 16);
    EXPECT_EQ(sim.virtualStages(), 8);
    EXPECT_EQ(sim.assignment().totalLayers(), 126);
}

TEST(TrainSim, ProductionThroughputBand)
{
    // Paper Section 7.3: 400 TFLOPs/GPU at 8K. Accept a band around it.
    const TrainStepReport rep = TrainSim(production8k()).run();
    EXPECT_GT(rep.tflops_per_gpu, 330.0);
    EXPECT_LT(rep.tflops_per_gpu, 500.0);
    EXPECT_GT(rep.mfu, 0.33);
    EXPECT_LT(rep.mfu, 0.52);
}

TEST(TrainSim, ProductionFitsInHbm)
{
    const TrainStepReport rep = TrainSim(production8k()).run();
    EXPECT_TRUE(rep.fits(80.0));
    EXPECT_GT(rep.maxMemoryGib(), 30.0) << "suspiciously empty GPUs";
}

TEST(TrainSim, LongContextSlightlySlowerPerGpu)
{
    // Paper: 400 TFLOPs at 8K vs 380 at 131K (4D with CP).
    const TrainStepReport short_ctx = TrainSim(production8k()).run();
    TrainJobConfig lc = production8k();
    lc.par = ParallelismConfig{8, 16, 16, 8};
    lc.seq = 131072;
    const TrainStepReport long_ctx = TrainSim(lc).run();
    EXPECT_LT(long_ctx.tflops_per_gpu, short_ctx.tflops_per_gpu);
    EXPECT_GT(long_ctx.tflops_per_gpu, short_ctx.tflops_per_gpu * 0.85);
    EXPECT_GT(long_ctx.exposed_cp_seconds, 0.0);
    EXPECT_DOUBLE_EQ(short_ctx.exposed_cp_seconds, 0.0);
}

TEST(TrainSim, DoubleBatchHalvesBubble)
{
    // Section 7.3.1: 12% bubble at bs = pp, 5% at bs = 2*pp; our model
    // carries extra P2P exposure but must reproduce the ~2x ratio.
    const TrainStepReport bs16 = TrainSim(production8k()).run();
    TrainJobConfig big = production8k();
    big.global_batch_tokens *= 2; // bs = 32 = 2*pp
    const TrainStepReport bs32 = TrainSim(big).run();
    EXPECT_LT(bs32.bubble_ratio, bs16.bubble_ratio * 0.65);
    EXPECT_GT(bs32.tflops_per_gpu, bs16.tflops_per_gpu);
}

TEST(TrainSim, BalancedLayersBeatUniform)
{
    // Section 3.1.2 / Figure 10: balanced assignment lowers peak memory
    // and raises throughput. Compare a 128-layer uniform model against
    // the balanced 126-layer co-design.
    TrainJobConfig uniform = production8k();
    uniform.model = ModelConfig::scaledDown405b(128);
    uniform.balanced_layers = false;
    TrainJobConfig balanced = production8k(); // 126 layers, balanced
    const TrainStepReport ru = TrainSim(uniform).run();
    const TrainStepReport rb = TrainSim(balanced).run();
    EXPECT_LT(rb.maxMemoryGib(), ru.maxMemoryGib());
    EXPECT_GT(rb.tflops_per_gpu, ru.tflops_per_gpu * 0.99);
}

TEST(TrainSim, RecomputeSavesMemoryCostsTime)
{
    TrainJobConfig base = production8k();
    TrainJobConfig rec = base;
    rec.act = ActivationMode::Recompute;
    const TrainStepReport rb = TrainSim(base).run();
    const TrainStepReport rr = TrainSim(rec).run();
    EXPECT_LT(rr.maxMemoryGib(), rb.maxMemoryGib() * 0.8);
    EXPECT_LT(rr.tflops_per_gpu, rb.tflops_per_gpu * 0.85)
        << "recomputation must show up as lost useful throughput";
}

TEST(TrainSim, MemoryOptimizationsMatter)
{
    // Section 6.3: without the early-release optimizations the job OOMs.
    TrainJobConfig raw = production8k();
    raw.memory_optimized = false;
    const TrainStepReport rep = TrainSim(raw).run();
    EXPECT_FALSE(rep.fits(80.0))
        << "the unoptimized autograd residency should blow the budget";
}

TEST(TrainSim, DocumentMaskSpeedsUpStep)
{
    // Packed short documents slash attention pairs, so the step gets
    // faster even though the step is priced on the slowest CP shard.
    TrainJobConfig causal = production8k();
    TrainJobConfig doc = production8k();
    doc.doc_mask_mean = 1024.0;
    const TrainStepReport rc = TrainSim(causal).run();
    const TrainStepReport rd = TrainSim(doc).run();
    EXPECT_LT(rd.step_seconds, rc.step_seconds);
}

TEST(TrainSim, StragglerSlowsWholePipeline)
{
    TrainJobConfig cfg = production8k();
    const TrainStepReport base = TrainSim(cfg).run();
    cfg.perf.injectStraggler(/*rank=*/8 * 5, /*speed=*/0.7);
    const TrainStepReport slow = TrainSim(cfg).run();
    EXPECT_GT(slow.step_seconds, base.step_seconds * 1.05)
        << "one slow GPU must drag the synchronized pipeline";
}

TEST(TrainSim, AfabVsFlexibleTradeoff)
{
    TrainJobConfig flex = production8k();
    TrainJobConfig afab = production8k();
    afab.schedule = ScheduleKind::AllForwardAllBackward;
    afab.zero = ZeroMode::Zero2;
    const TrainStepReport rf = TrainSim(flex).run();
    const TrainStepReport ra = TrainSim(afab).run();
    // Both must be sane; AFAB hides P2P better but pays ZeRO-2 exposure.
    EXPECT_GT(ra.tflops_per_gpu, rf.tflops_per_gpu * 0.8);
    EXPECT_LT(ra.tflops_per_gpu, rf.tflops_per_gpu * 1.2);
}

TEST(TrainSim, Zero2ExposesAShareOfEachReduceScatterRoundAfterTheFirst)
{
    // ZeRO-2 reduce-scatters every stage once per consecutive round of
    // nc micro-batches. One round costs what ZeRO-1's single
    // reduce-scatter costs; each further round exposes the same extra
    // slice of the step (Section 3.1.3).
    auto exposedFsdp = [](ZeroMode zero, std::int64_t rounds) {
        TrainJobConfig cfg = production8k();
        cfg.zero = zero;
        cfg.nc = 16;
        cfg.global_batch_tokens *= rounds; // 16 micro-batches a round
        return TrainSim(cfg).run().exposed_fsdp_seconds;
    };
    const double zero1 = exposedFsdp(ZeroMode::Zero1, 1);
    const double one = exposedFsdp(ZeroMode::Zero2, 1);
    const double two = exposedFsdp(ZeroMode::Zero2, 2);
    const double three = exposedFsdp(ZeroMode::Zero2, 3);
    EXPECT_GT(zero1, 0.0);
    EXPECT_EQ(one, zero1);
    EXPECT_GT(two, one);
    EXPECT_NEAR(three - two, two - one, 1e-12);
    // Without the share and the v stages, one extra round is one
    // reduce-scatter: less than ZeRO-1's all-gather plus reduce-scatter.
    EXPECT_LT((two - one) / kZero2RsExposedShare /
                  static_cast<double>(TrainSim(production8k())
                                          .virtualStages()),
              zero1);
}

TEST(TrainSim, RejectsMismatchedCluster)
{
    TrainJobConfig cfg = production8k();
    cfg.cluster = ClusterSpec::llama3Production(8192);
    EXPECT_DEATH(TrainSim{cfg}, "does not match cluster");
}

TEST(TrainSim, RejectsIndivisibleBatch)
{
    TrainJobConfig cfg = production8k();
    cfg.global_batch_tokens = 100 * cfg.seq * cfg.par.dp / 64; // odd
    EXPECT_DEATH(TrainSim{cfg}, "divide");
}

/** Table 2's 131K-context job (tp8/cp16/pp16/dp8), 4K-mean documents. */
TrainJobConfig
longContext131k()
{
    TrainJobConfig cfg = production8k();
    cfg.par = ParallelismConfig{8, 16, 16, 8};
    cfg.seq = 131072;
    cfg.doc_mask_mean = 4096.0;
    return cfg;
}

/** Global rank standing for pipeline stage @p stage in TrainSim's costs. */
std::int64_t
stageRank(const TrainJobConfig &cfg, std::int64_t stage)
{
    return RankGrid(cfg.par).rankOf(RankCoord{0, 0, stage, 0});
}

/** Pinned report bits of one job. */
struct GoldenStep
{
    double step_seconds;
    double tflops_per_gpu;
    double bubble_ratio;
    std::vector<double> pp_rank_memory_bytes;
};

void
expectGolden(const TrainStepReport &rep, const GoldenStep &golden)
{
    EXPECT_EQ(rep.step_seconds, golden.step_seconds);
    EXPECT_EQ(rep.tflops_per_gpu, golden.tflops_per_gpu);
    EXPECT_EQ(rep.bubble_ratio, golden.bubble_ratio);
    ASSERT_EQ(rep.pp_rank_memory.size(), golden.pp_rank_memory_bytes.size());
    for (std::size_t r = 0; r < rep.pp_rank_memory.size(); ++r)
        EXPECT_EQ(rep.pp_rank_memory[r].total(),
                  golden.pp_rank_memory_bytes[r])
            << "pp rank " << r;
}

/** Peak bytes per PP rank shared by the 8K job and the 131K job (both
 *  hold 8K tokens per rank per micro-batch). */
const std::vector<double> kProductionMemory = {
    0x1.fcd00d5p+35,  0x1.015d30cp+36, 0x1.015d30cp+36, 0x1.015d30cp+36,
    0x1.015d30cp+36,  0x1.015d30cp+36, 0x1.015d30cp+36, 0x1.015d30cp+36,
    0x1.ffd6618p+35,  0x1.fa0e618p+35, 0x1.f446618p+35, 0x1.ee7e618p+35,
    0x1.e8b6618p+35,  0x1.e2ee618p+35, 0x1.dd26618p+35, 0x1.d7130d5p+35};

TEST(TrainSimGolden, Production8k)
{
    expectGolden(TrainSim(production8k()).run(),
                 {0x1.75f916972e37ap+2, 0x1.bd454f1d1f092p+8,
                  0x1.851abcbd884f9p-3, kProductionMemory});
}

TEST(TrainSimGolden, LongContext131kWithDocumentMasks)
{
    expectGolden(TrainSim(longContext131k()).run(),
                 {0x1.baa747955b823p+2, 0x1.8be4fd33ad8dep+8,
                  0x1.e0255d8bd1323p-3, kProductionMemory});
}

TEST(TrainSimGolden, LongContext131kWithOneStraggler)
{
    TrainJobConfig cfg = longContext131k();
    cfg.perf.injectStraggler(stageRank(cfg, 5), 0.7);
    expectGolden(TrainSim(cfg).run(),
                 {0x1.0c21a762ac94cp+3, 0x1.46c99e0e68d42p+8,
                  0x1.e6450bf2ed265p-2, kProductionMemory});
}

TEST(TrainSimGolden, LongContext131kShrunkToDp4)
{
    TrainJobConfig cfg = longContext131k();
    cfg.par = RecoveryCostModel::shrunkPar(cfg.par, 4);
    cfg.cluster = RecoveryCostModel::shrunkCluster(cfg.cluster, cfg.par);
    expectGolden(
        TrainSim(cfg).run(),
        {0x1.949ff2b409968p+3, 0x1.b11a44a4a5188p+8, 0x1.530a6dbd844cdp-3,
         {0x1.1526e35p+36, 0x1.1544318p+36, 0x1.1260318p+36,
          0x1.0f7c318p+36, 0x1.0c98318p+36, 0x1.09b4318p+36,
          0x1.06d0318p+36, 0x1.03ec318p+36, 0x1.0108318p+36,
          0x1.fc4863p+35, 0x1.f68063p+35, 0x1.f0b863p+35, 0x1.eaf063p+35,
          0x1.e52863p+35, 0x1.df6063p+35, 0x1.d934c6ap+35}});
}

/** The 8K job with AFAB and half the batch: 8 micro-batches, 16 ranks. */
TEST(TrainSimGolden, AfabWithFewerMicroBatchesThanRanks)
{
    TrainJobConfig cfg = production8k();
    cfg.global_batch_tokens /= 2;
    cfg.schedule = ScheduleKind::AllForwardAllBackward;
    std::vector<double> memory(16, 0x1.49ba618p+35);
    memory.front() = 0x1.43d00d5p+35;
    memory.back() = 0x1.496f0d5p+35;
    expectGolden(TrainSim(cfg).run(),
                 {0x1.651c3466d587ep+2, 0x1.d24be93741435p+7,
                  0x1.435bafaae1d4p+0, memory});
}

TEST(TrainSimGolden, Classic1F1BAtTwiceTheBatch)
{
    TrainJobConfig cfg = production8k();
    cfg.global_batch_tokens *= 2;
    cfg.schedule = ScheduleKind::Interleaved1F1B;
    expectGolden(
        TrainSim(cfg).run(),
        {0x1.4cf3a6a087383p+3, 0x1.f421557151757p+8, 0x1.9cdf594d4fa9bp-4,
         {0x1.141606a8p+36, 0x1.142730cp+36, 0x1.114330cp+36,
          0x1.0e5f30cp+36, 0x1.0b7b30cp+36, 0x1.089730cp+36,
          0x1.05b330cp+36, 0x1.02cf30cp+36, 0x1.ffd6618p+35,
          0x1.fa0e618p+35, 0x1.f446618p+35, 0x1.ee7e618p+35,
          0x1.e8b6618p+35, 0x1.e2ee618p+35, 0x1.dd26618p+35,
          0x1.d7130d5p+35}});
}

TEST(TrainSimGolden, FlexibleWithMoreConsecutiveMicroBatchesThanRanks)
{
    TrainJobConfig cfg = production8k();
    cfg.global_batch_tokens *= 2;
    cfg.nc = 24; // pp = 16, nmb = 32
    expectGolden(
        TrainSim(cfg).run(),
        {0x1.7218a224eedddp+3, 0x1.c1ef5a556923fp+8, 0x1.d60adfd7c92bfp-3,
         {0x1.650606a8p+36, 0x1.651730cp+36, 0x1.623330cp+36,
          0x1.5f4f30cp+36, 0x1.5c6b30cp+36, 0x1.598730cp+36,
          0x1.56a330cp+36, 0x1.53bf30cp+36, 0x1.50db30cp+36,
          0x1.4df730cp+36, 0x1.4b1330cp+36, 0x1.482f30cp+36,
          0x1.454b30cp+36, 0x1.426730cp+36, 0x1.3f8330cp+36,
          0x1.3c7986a8p+36}});
}

/** One pipeline rank: every producer runs on the consumer's own rank. */
TEST(TrainSimGolden, SinglePipelineRank)
{
    TrainJobConfig cfg = production8k();
    cfg.model = ModelConfig::scaledDown405b(8);
    cfg.par = ParallelismConfig{8, 1, 1, 16};
    cfg.cluster = ClusterSpec::llama3Production(128);
    cfg.global_batch_tokens = 256LL * 8192;
    expectGolden(TrainSim(cfg).run(),
                 {0x1.3f95e59883486p+2, 0x1.1c07963519e48p+9, 0x0p+0,
                  {0x1.de35d8p+34}});
}

TEST(TrainSimGolden, Production8kWithJitteredPerf)
{
    TrainJobConfig cfg = production8k();
    cfg.perf = PerfVariation::jitter(0.03, 5);
    expectGolden(TrainSim(cfg).run(),
                 {0x1.85954cd57b1bcp+2, 0x1.ab6ddf9574ab6p+8,
                  0x1.ae31afb36e807p-3, kProductionMemory});
}

void
expectSameReport(const TrainStepReport &a, const TrainStepReport &b)
{
    EXPECT_EQ(a.step_seconds, b.step_seconds);
    EXPECT_EQ(a.tflops_per_gpu, b.tflops_per_gpu);
    EXPECT_EQ(a.mfu, b.mfu);
    EXPECT_EQ(a.bubble_ratio, b.bubble_ratio);
    EXPECT_EQ(a.exposed_tp_seconds, b.exposed_tp_seconds);
    EXPECT_EQ(a.exposed_cp_seconds, b.exposed_cp_seconds);
    EXPECT_EQ(a.exposed_fsdp_seconds, b.exposed_fsdp_seconds);
    EXPECT_EQ(a.optimizer_seconds, b.optimizer_seconds);
    EXPECT_EQ(a.bs, b.bs);
    EXPECT_EQ(a.nmb, b.nmb);
    EXPECT_EQ(a.v, b.v);
    ASSERT_EQ(a.pp_rank_memory.size(), b.pp_rank_memory.size());
    for (std::size_t r = 0; r < a.pp_rank_memory.size(); ++r) {
        const MemoryBreakdown &x = a.pp_rank_memory[r];
        const MemoryBreakdown &y = b.pp_rank_memory[r];
        EXPECT_EQ(x.weights, y.weights) << "pp rank " << r;
        EXPECT_EQ(x.grads, y.grads) << "pp rank " << r;
        EXPECT_EQ(x.optimizer, y.optimizer) << "pp rank " << r;
        EXPECT_EQ(x.activations, y.activations) << "pp rank " << r;
    }
}

TEST(TrainSim, RerunWithChangedPerfMatchesFreshBuild)
{
    // TrainRunSim prices straggler sets through one base TrainSim with
    // only the PerfVariation changed; that must equal building the job
    // afresh with the new perf, bit for bit.
    const TrainJobConfig job = longContext131k();
    const TrainSim base(job);
    std::vector<PerfVariation> perfs(3, job.perf);
    perfs[0].injectStraggler(stageRank(job, 5), 0.7);
    perfs[1].injectStraggler(stageRank(job, 0), 0.8);
    perfs[1].injectStraggler(stageRank(job, 15), 0.55);
    perfs[2] = PerfVariation::jitter(0.02, 9);
    perfs[2].injectStraggler(stageRank(job, 9), 0.9);
    for (std::size_t i = 0; i < perfs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "perf " << i);
        TrainJobConfig fresh = job;
        fresh.perf = perfs[i];
        expectSameReport(base.run(perfs[i]), TrainSim(fresh).run());
    }
    // The base job's own perf is what run() uses.
    expectSameReport(base.run(job.perf), base.run());
}

/** The 8K job, the 8K job with 1K-mean documents and the 131K job (CP 16,
 *  4K-mean documents), each under @p kind. */
std::vector<TrainJobConfig>
repriceJobs(ScheduleKind kind)
{
    std::vector<TrainJobConfig> jobs(3, production8k());
    jobs[1].doc_mask_mean = 1024.0;
    jobs[2] = longContext131k();
    for (TrainJobConfig &job : jobs)
        job.schedule = kind;
    return jobs;
}

/** @p base with 1-3 random pipeline stages slowed to speeds in
 *  [0.3, 1). */
PerfVariation
randomStragglers(const TrainJobConfig &job, const PerfVariation &base,
                 Rng &rng)
{
    PerfVariation perf = base;
    const std::int64_t count = rng.uniformInt(1, 3);
    for (std::int64_t i = 0; i < count; ++i)
        perf.injectStraggler(
            stageRank(job, rng.uniformInt(0, job.par.pp - 1)),
            rng.uniform(0.3, 1.0));
    return perf;
}

TEST(TrainSim, StepSecondsIsRunsStepBitForBit)
{
    // A straggler reprice times only the makespan; it must price the
    // step run() reports, to the bit, for every schedule kind, with and
    // without document masks and baseline jitter.
    Rng rng(31);
    for (int k = 0; k < 3; ++k) {
        const auto kind = static_cast<ScheduleKind>(k);
        for (const TrainJobConfig &job : repriceJobs(kind)) {
            const TrainSim sim(job);
            for (int trial = 0; trial < 8; ++trial) {
                const PerfVariation base =
                    trial % 2 ? PerfVariation::jitter(0.02, 40 + trial)
                              : job.perf;
                const PerfVariation perf =
                    trial == 0 ? base : randomStragglers(job, base, rng);
                SCOPED_TRACE(::testing::Message()
                             << scheduleKindName(kind) << " seq " << job.seq
                             << " docs " << job.doc_mask_mean << " trial "
                             << trial);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.stepSeconds(perf)),
                          std::bit_cast<std::uint64_t>(
                              sim.run(perf).step_seconds));
            }
        }
    }
}

TEST(TrainSim, StepSecondsNeverFallsAsAStragglerSlows)
{
    // Each op's duration, rounded to the nanosecond, never falls as its
    // stage slows, and the makespan is built from those durations by max
    // and +; so the step is monotone in a straggler's speed, exactly.
    Rng rng(37);
    for (int k = 0; k < 3; ++k) {
        const auto kind = static_cast<ScheduleKind>(k);
        for (const TrainJobConfig &job : repriceJobs(kind)) {
            const TrainSim sim(job);
            const std::int64_t stage = rng.uniformInt(0, job.par.pp - 1);
            std::vector<double> speeds(12);
            for (double &speed : speeds)
                speed = rng.uniform(0.3, 1.0);
            std::sort(speeds.begin(), speeds.end(), std::greater<>());
            double previous = sim.stepSeconds(job.perf);
            for (double speed : speeds) {
                PerfVariation perf = job.perf;
                perf.injectStraggler(stageRank(job, stage), speed);
                const double step = sim.stepSeconds(perf);
                EXPECT_GE(step, previous)
                    << scheduleKindName(kind) << " seq " << job.seq
                    << " docs " << job.doc_mask_mean << " stage " << stage
                    << " speed " << speed;
                previous = step;
            }
        }
    }
}

} // namespace
} // namespace llm4d
