#include "llm4d/plan/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace llm4d {
namespace {

TEST(Planner, ReproducesTable2ShortContext)
{
    // Paper Table 2, 8K row: tp8 cp1 pp16 dp128 on 16K GPUs.
    PlanInput in; // defaults are the production inputs
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->par, (ParallelismConfig{8, 1, 16, 128}));
    EXPECT_EQ(best->bs, 16);
    EXPECT_TRUE(best->feasible);
}

TEST(Planner, ReproducesTable2LongContext)
{
    // Paper Table 2, 131K row: tp8 cp16 pp16 dp8.
    PlanInput in;
    in.seq = 131072;
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->par, (ParallelismConfig{8, 16, 16, 8}));
    EXPECT_EQ(best->bs, 16);
}

TEST(Planner, TpNeverExceedsNodeUnlessForced)
{
    // Section 5.1: tp=8 keeps TP on NVLink; tp=16 pays inter-node
    // latency on every layer and must never win.
    PlanInput in;
    for (const PlanCandidate &cand : enumeratePlans(in)) {
        if (!cand.feasible)
            continue;
        EXPECT_EQ(tryBestPlan(in)->par.tp, 8);
        break;
    }
}

TEST(Planner, TwoDParallelismLosesTo3D)
{
    // Section 5.1's arithmetic-intensity argument: ZeRO-3 2D config is
    // feasible only with exposed per-layer all-gathers; 3D must win.
    PlanInput in;
    const auto plans = enumeratePlans(in);
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    for (const PlanCandidate &cand : plans) {
        if (cand.feasible && cand.par.pp == 1) {
            EXPECT_GT(cand.est_step_seconds, best->est_step_seconds)
                << "2D " << cand.par.str() << " should not beat 3D";
        }
    }
}

TEST(Planner, LongContextRequiresCp)
{
    // At 131K with only 128 sequences per step, cp=1 leaves bs too small
    // for PP (or infeasible); every near-optimal plan uses cp >= 8.
    PlanInput in;
    in.seq = 131072;
    const auto plans = enumeratePlans(in);
    const double best = tryBestPlan(in)->est_step_seconds;
    for (const PlanCandidate &cand : plans) {
        if (!cand.feasible || cand.est_step_seconds > best * 1.05)
            continue;
        EXPECT_GE(cand.par.cp, 4)
            << cand.par.str() << " should not be near-optimal at 131K";
    }
}

TEST(Planner, InfeasibleConfigsCarryReasons)
{
    PlanInput in;
    bool saw_memory = false, saw_batch = false;
    for (const PlanCandidate &cand : enumeratePlans(in)) {
        if (cand.feasible) {
            EXPECT_EQ(cand.reject_reason, RejectReason::None);
            continue;
        }
        EXPECT_NE(cand.reject_reason, RejectReason::None)
            << cand.par.str() << " rejected without a reason";
        saw_memory |=
            cand.reject_reason == RejectReason::MemoryExceeded;
        saw_batch |=
            cand.reject_reason == RejectReason::BatchIndivisible ||
            cand.reject_reason == RejectReason::BatchTooSmall;
    }
    EXPECT_TRUE(saw_memory);
    EXPECT_TRUE(saw_batch);
}

TEST(Planner, RejectReasonsRenderForDisplay)
{
    // Every rejection value formats to a distinct non-empty string;
    // None renders empty (feasible rows print their metrics instead).
    EXPECT_STREQ(toString(RejectReason::None), "");
    const RejectReason reasons[] = {
        RejectReason::ClusterIndivisible, RejectReason::HeadsIndivisible,
        RejectReason::SequenceIndivisible, RejectReason::TooFewLayers,
        RejectReason::BatchIndivisible,    RejectReason::BatchTooSmall,
        RejectReason::MemoryExceeded,
    };
    std::set<std::string> rendered;
    for (const RejectReason reason : reasons) {
        EXPECT_STRNE(toString(reason), "");
        rendered.insert(toString(reason));
    }
    EXPECT_EQ(rendered.size(), std::size(reasons));
}

TEST(Planner, TryBestPlanReturnsNulloptWhenNothingFits)
{
    // tp = 5 divides neither the cluster nor the attention heads, so
    // every candidate is rejected and tryBestPlan reports that instead
    // of aborting.
    PlanInput in;
    in.tp_options = {5};
    in.cp_options = {1};
    in.pp_options = {1, 2};
    EXPECT_FALSE(tryBestPlan(in).has_value());
}

TEST(Planner, EnumerationDoesNotDependOnOptionOrder)
{
    // Each candidate's estimate depends on its own (tp, cp, pp, zero,
    // schedule), not on where its options are listed. Reordering
    // pp_options changes which combo of a (tp, cp) shard is evaluated
    // first, and so which one prices the shard.
    using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                           ZeroMode, ScheduleKind>;
    const auto byKey = [](const std::vector<PlanCandidate> &plans) {
        std::map<Key, PlanCandidate> keyed;
        for (const PlanCandidate &c : plans)
            EXPECT_TRUE(keyed
                            .emplace(Key{c.par.tp, c.par.cp, c.par.pp,
                                         c.zero, c.schedule},
                                     c)
                            .second);
        return keyed;
    };
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (const std::int64_t seq : {8192, 131072}) {
        PlanInput in;
        in.cluster = ClusterSpec::llama3Production(2048);
        in.global_batch_tokens = 2048 * 1024;
        in.seq = seq;
        const std::map<Key, PlanCandidate> want = byKey(enumeratePlans(in));
        for (const bool reverse : {true, false}) {
            PlanInput reordered = in;
            for (std::vector<std::int64_t> *options :
                 {&reordered.tp_options, &reordered.cp_options,
                  &reordered.pp_options}) {
                if (reverse)
                    std::reverse(options->begin(), options->end());
                else
                    std::rotate(options->begin(), options->begin() + 1,
                                options->end());
            }
            const std::map<Key, PlanCandidate> got =
                byKey(enumeratePlans(reordered));
            ASSERT_EQ(got.size(), want.size());
            for (const auto &[key, w] : want) {
                const PlanCandidate &g = got.at(key);
                SCOPED_TRACE(::testing::Message()
                             << "seq " << seq << " reversed " << reverse
                             << ": " << g.par.str() << " zero "
                             << static_cast<int>(g.zero));
                EXPECT_EQ(bits(g.est_step_seconds),
                          bits(w.est_step_seconds));
                EXPECT_EQ(bits(g.est_memory_gib), bits(w.est_memory_gib));
                EXPECT_EQ(bits(g.est_tflops_per_gpu),
                          bits(w.est_tflops_per_gpu));
                EXPECT_EQ(bits(g.exposed_comm_fraction),
                          bits(w.exposed_comm_fraction));
                EXPECT_EQ(bits(g.bubble_ratio), bits(w.bubble_ratio));
                EXPECT_EQ(g.feasible, w.feasible);
                EXPECT_EQ(g.reject_reason, w.reject_reason);
            }
        }
    }
}

TEST(Planner, MemoryEstimatesWithinHbm)
{
    PlanInput in;
    for (const PlanCandidate &cand : enumeratePlans(in)) {
        if (cand.feasible) {
            EXPECT_LE(cand.est_memory_gib,
                      in.cluster.node.gpu.hbm_capacity_gib * 0.94 + 1e-9);
        }
    }
}

TEST(Planner, ThroughputInPlausibleBand)
{
    PlanInput in;
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    // The paper reports 400 TFLOPs/GPU; the model must land in a
    // moderately wide band around it.
    EXPECT_GT(best->est_tflops_per_gpu, 300.0);
    EXPECT_LT(best->est_tflops_per_gpu, 550.0);
}

TEST(Planner, SmallerClusterStillPlans)
{
    PlanInput in;
    in.cluster = ClusterSpec::llama3Production(2048);
    in.global_batch_tokens = 2LL * 1024 * 1024;
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(best->feasible);
    EXPECT_EQ(best->par.worldSize(), 2048);
}

TEST(Planner, SeventyBModelUsesLessModelParallelism)
{
    PlanInput in;
    in.model = ModelConfig::llama3_70b();
    in.cluster = ClusterSpec::llama3Production(4096);
    in.global_batch_tokens = 8LL * 1024 * 1024;
    const std::optional<PlanCandidate> best = tryBestPlan(in);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(best->feasible);
    EXPECT_LE(best->par.modelParallelSize(), 64)
        << "a 70B model must not need the 405B's tp*pp=128";
}

} // namespace
} // namespace llm4d
