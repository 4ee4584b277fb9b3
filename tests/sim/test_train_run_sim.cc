#include "llm4d/sim/train_run_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "llm4d/parallel/parallelism.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

/** Disable every stochastic failure class. */
void
disableAllFaults(TrainRunConfig &cfg)
{
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 0.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
}

/** Production 16K-GPU job, shortened to a test-sized run. */
TrainRunConfig
baseConfig()
{
    TrainRunConfig cfg;
    cfg.total_steps = 400;
    cfg.checkpoint_interval_steps = 40;
    cfg.seed = 42;
    return cfg;
}

double
breakdownSum(const TrainRunReport &rep)
{
    return rep.productive_seconds + rep.degraded_seconds +
           rep.checkpoint_seconds + rep.lost_seconds +
           rep.detection_seconds + rep.restart_seconds +
           rep.spare_swap_seconds + rep.shrink_seconds +
           rep.regrow_seconds + rep.drain_stall_seconds +
           rep.displacement_seconds;
}

/** Faulty 16K-GPU run used by the policy-matrix and determinism tests. */
TrainRunConfig
faultyConfig()
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 400;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 6000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 6000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    return cfg;
}

void
expectBitwiseEqual(const TrainRunReport &a, const TrainRunReport &b)
{
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.goodput_tflops_per_gpu, b.goodput_tflops_per_gpu);
    EXPECT_EQ(a.steps_committed, b.steps_committed);
    EXPECT_EQ(a.steps_lost, b.steps_lost);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.spare_swaps, b.spare_swaps);
    EXPECT_EQ(a.cross_pod_swaps, b.cross_pod_swaps);
    EXPECT_EQ(a.placement_migrations, b.placement_migrations);
    EXPECT_EQ(a.dp_shrinks, b.dp_shrinks);
    EXPECT_EQ(a.dp_regrows, b.dp_regrows);
    EXPECT_EQ(a.hosts_repaired, b.hosts_repaired);
    EXPECT_EQ(a.final_dp, b.final_dp);
    EXPECT_EQ(a.rebalances, b.rebalances);
    EXPECT_EQ(a.productive_seconds, b.productive_seconds);
    EXPECT_EQ(a.degraded_seconds, b.degraded_seconds);
    EXPECT_EQ(a.lost_seconds, b.lost_seconds);
    EXPECT_EQ(a.drain_stall_seconds, b.drain_stall_seconds);
    EXPECT_EQ(a.spare_swap_seconds, b.spare_swap_seconds);
    EXPECT_EQ(a.shrink_seconds, b.shrink_seconds);
    EXPECT_EQ(a.regrow_seconds, b.regrow_seconds);
    EXPECT_EQ(a.displacement_seconds, b.displacement_seconds);
    EXPECT_EQ(a.partial_restarts, b.partial_restarts);
    EXPECT_EQ(a.tier_fallbacks, b.tier_fallbacks);
    for (int t = 0; t < kNumCheckpointTiers; ++t)
        EXPECT_EQ(a.tier_restore_seconds[static_cast<std::size_t>(t)],
                  b.tier_restore_seconds[static_cast<std::size_t>(t)])
            << "tier " << toString(static_cast<CheckpointTier>(t));
}

/** tier_restore_seconds accessor by tier, for readable assertions. */
double
tierRestore(const TrainRunReport &rep, CheckpointTier tier)
{
    return rep.tier_restore_seconds[static_cast<std::size_t>(tier)];
}

TEST(TrainRunSim, FaultFreeRunPaysOnlyCheckpoints)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_EQ(rep.restarts, 0);
    EXPECT_EQ(rep.faults.total(), 0);
    EXPECT_TRUE(rep.timeline.empty());
    EXPECT_NEAR(rep.productive_seconds, rep.ideal_seconds,
                1e-6 * rep.ideal_seconds);
    // 400 steps at interval 40: nine interval saves plus the final commit.
    EXPECT_NEAR(rep.checkpoint_seconds,
                10.0 * sim.checkpoint().saveSeconds(), 1e-6);
    EXPECT_NEAR(rep.wall_seconds,
                rep.productive_seconds + rep.checkpoint_seconds,
                1e-6 * rep.wall_seconds);
    EXPECT_DOUBLE_EQ(rep.degraded_seconds, 0.0);
    EXPECT_DOUBLE_EQ(rep.lost_seconds, 0.0);
    // Goodput is the base throughput shaved by checkpoint overhead only.
    EXPECT_LT(rep.goodputFraction(), 1.0);
    EXPECT_GT(rep.goodputFraction(), 0.95);
    EXPECT_GT(rep.availability, 0.95);
}

TEST(TrainRunSim, RunsAreDeterministic)
{
    // Same config + seed must reproduce the run bit-for-bit, including
    // the fault timeline — the property every debugging replay relies on.
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 300;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 15000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 15000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(cfg).run();
    EXPECT_GT(a.faults.total(), 0) << "config too quiet to test anything";
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.goodput_tflops_per_gpu, b.goodput_tflops_per_gpu);
    EXPECT_EQ(a.steps_committed, b.steps_committed);
    EXPECT_EQ(a.steps_lost, b.steps_lost);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.productive_seconds, b.productive_seconds);
    EXPECT_EQ(a.degraded_seconds, b.degraded_seconds);
    EXPECT_EQ(a.lost_seconds, b.lost_seconds);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].when, b.timeline[i].when);
        EXPECT_EQ(a.timeline[i].kind, b.timeline[i].kind);
        EXPECT_EQ(a.timeline[i].component, b.timeline[i].component);
    }
    // A different fault seed must actually change the run.
    TrainRunConfig other = cfg;
    other.seed = cfg.seed + 1;
    const TrainRunReport c = TrainRunSim(other).run();
    EXPECT_NE(a.wall_seconds, c.wall_seconds);
}

TEST(TrainRunSim, WallClockBreakdownIsComplete)
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 300;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 15000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 15000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.total(), 0);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
}

TEST(TrainRunSim, FatalFaultsLoseWorkAndForceRestarts)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    // Fatal-only, cranked hot: cluster fatal MTBF of ~30 min.
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0;
    cfg.total_steps = 600;
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.gpu_fatal, 0);
    EXPECT_GT(rep.restarts, 0);
    EXPECT_GT(rep.steps_lost, 0);
    EXPECT_GT(rep.lost_seconds, 0.0);
    EXPECT_GT(rep.detection_seconds, 0.0);
    EXPECT_GT(rep.restart_seconds, 0.0);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
    EXPECT_LT(rep.goodputFraction(), 0.95);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
}

TEST(TrainRunSim, StragglersDegradeUntilEvicted)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    // Make detection take a few steps so the drag is visible.
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 300;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.stragglers, 0);
    EXPECT_GT(rep.degraded_seconds, 0.0);
    // Evictions are orderly maintenance restarts: checkpoint first, so
    // nothing is ever rolled back.
    EXPECT_GT(rep.restarts, 0);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_DOUBLE_EQ(rep.lost_seconds, 0.0);
    EXPECT_LT(rep.goodputFraction(), 1.0);
}

TEST(TrainRunSim, LinkFlapsDegradeWithoutKillingTheJob)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.nic_flap_mtbf_hours = 2000.0;
    cfg.total_steps = 300;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.link_flaps, 0);
    EXPECT_GT(rep.degraded_seconds, 0.0);
    EXPECT_EQ(rep.restarts, 0);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
}

TEST(TrainRunSim, TruncatesAtWallClockLimit)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.total_steps = 100000;
    cfg.max_wall_days = 0.01; // 864 simulated seconds
    const TrainRunReport rep = TrainRunSim(cfg).run();
    EXPECT_FALSE(rep.completed);
    EXPECT_GT(rep.steps_committed, 0);
    EXPECT_LT(rep.steps_committed, cfg.total_steps);
    const double limit_s = cfg.max_wall_days * 86400.0;
    EXPECT_GE(rep.wall_seconds, limit_s);
    EXPECT_LT(rep.wall_seconds, limit_s * 1.2);
}

TEST(TrainRunSim, OptimalIntervalTracksYoungDaly)
{
    // Acceptance criterion: with work-losing faults only, the empirical
    // goodput-maximizing checkpoint interval lands within 2x of the
    // Young-Daly first-order optimum. Common random numbers (the fault
    // process is exogenous) make the scan an apples-to-apples comparison.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0; // ~30 min MTBF
    cfg.total_steps = 4000;
    cfg.seed = 5;
    const TrainRunSim sim(cfg);
    const std::int64_t yd = sim.youngDalyIntervalSteps();
    ASSERT_GE(yd, 4) << "test config degenerated";
    const std::vector<std::int64_t> intervals = {
        std::max<std::int64_t>(1, yd / 4),
        std::max<std::int64_t>(1, yd / 2), yd, 2 * yd, 4 * yd};
    const auto points = sim.scanCheckpointIntervals(intervals);
    ASSERT_EQ(points.size(), intervals.size());
    const auto best = std::max_element(
        points.begin(), points.end(),
        [](const IntervalScanPoint &a, const IntervalScanPoint &b) {
            return a.goodput_tflops_per_gpu < b.goodput_tflops_per_gpu;
        });
    EXPECT_GE(best->interval_steps, (yd + 1) / 2)
        << "optimum below half the Young-Daly interval";
    EXPECT_LE(best->interval_steps, 2 * yd)
        << "optimum above twice the Young-Daly interval";
    // Over-checkpointing and under-checkpointing must both visibly hurt.
    EXPECT_GT(best->goodput_tflops_per_gpu,
              points.front().goodput_tflops_per_gpu);
    EXPECT_GT(best->goodput_tflops_per_gpu,
              points.back().goodput_tflops_per_gpu);
}

TEST(TrainRunSim, ScaleUpLowersGoodputAtSamePerGpuFailureRate)
{
    // Acceptance criterion: at identical per-component failure rates and
    // identical per-DP-group batch, the 16K-GPU job loses strictly more
    // goodput to failures than the 2K-GPU job (8x the cluster fault rate).
    const auto configure = [](std::int64_t gpus, ParallelismConfig par,
                              std::int64_t batch_tokens) {
        TrainRunConfig cfg;
        cfg.job.cluster = ClusterSpec::llama3Production(gpus);
        cfg.job.par = par;
        cfg.job.global_batch_tokens = batch_tokens;
        disableAllFaults(cfg);
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 4000.0;
        cfg.total_steps = 1200;
        cfg.checkpoint_interval_steps = 40;
        cfg.seed = 9;
        return cfg;
    };
    const TrainRunConfig big =
        configure(16384, ParallelismConfig{8, 1, 16, 128},
                  16LL * 1024 * 1024);
    const TrainRunConfig small =
        configure(2048, ParallelismConfig{8, 1, 16, 16},
                  2LL * 1024 * 1024);
    const TrainRunReport big_rep = TrainRunSim(big).run();
    const TrainRunReport small_rep = TrainRunSim(small).run();
    ASSERT_TRUE(big_rep.completed);
    ASSERT_TRUE(small_rep.completed);
    EXPECT_GT(big_rep.faults.total(), small_rep.faults.total());
    EXPECT_LT(big_rep.goodput_tflops_per_gpu,
              small_rep.goodput_tflops_per_gpu);
    EXPECT_LT(big_rep.goodputFraction(), small_rep.goodputFraction());
    EXPECT_LT(big_rep.availability, small_rep.availability);
}

TEST(TrainRunSim, YoungDalyStepsMatchesClosedForm)
{
    TrainRunConfig cfg = baseConfig();
    const TrainRunSim sim(cfg);
    const double fatal_mtbf_s =
        3600.0 / cfg.job.cluster.fatalFailuresPerHour();
    const double yd_s = youngDalyIntervalSeconds(
        fatal_mtbf_s, sim.checkpoint().saveSeconds());
    const auto expect = std::max<std::int64_t>(
        1, std::llround(yd_s / sim.baseStep().step_seconds));
    EXPECT_EQ(sim.youngDalyIntervalSteps(), expect);
    EXPECT_GT(sim.mtbfSeconds(), 0.0);
}

TEST(TrainRunSim, AsyncCheckpointOverlapsTheDrain)
{
    // Fault-free async run: the step only ever blocks for the DRAM
    // snapshot; the filesystem drain overlaps subsequent steps except
    // for the final, durability-critical one.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    TrainRunConfig async_cfg = cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim sync_sim(cfg);
    const TrainRunSim async_sim(async_cfg);
    const TrainRunReport sync_rep = sync_sim.run();
    const TrainRunReport async_rep = async_sim.run();
    ASSERT_TRUE(async_rep.completed);
    EXPECT_EQ(async_rep.steps_committed, cfg.total_steps);
    EXPECT_EQ(async_rep.steps_lost, 0);
    // 400 steps at interval 40: nine interval snapshots + the final one.
    EXPECT_NEAR(async_rep.checkpoint_seconds,
                10.0 * async_sim.checkpoint().snapshotSeconds(), 1e-6);
    // Only the final drain is on the critical path.
    EXPECT_NEAR(async_rep.drain_stall_seconds,
                async_sim.checkpoint().drainSeconds(), 1e-6);
    // Drain contention slows the overlapped steps a little.
    EXPECT_GT(async_rep.degraded_seconds, 0.0);
    EXPECT_NEAR(breakdownSum(async_rep), async_rep.wall_seconds,
                1e-6 * async_rep.wall_seconds);
    // The headline: async checkpointing strictly beats sync at the same
    // interval, because ~10x less time blocks the step.
    EXPECT_LT(async_rep.wall_seconds, sync_rep.wall_seconds);
    EXPECT_GT(async_rep.goodputFraction(), sync_rep.goodputFraction());
    EXPECT_EQ(async_sim.blockingSaveSeconds(),
              async_sim.checkpoint().snapshotSeconds());
    EXPECT_EQ(sync_sim.blockingSaveSeconds(),
              sync_sim.checkpoint().saveSeconds());
}

TEST(TrainRunSim, PolicyMatrixKeepsInvariantsAndCommonRandomNumbers)
{
    // Every recovery mode x checkpoint mode combination must keep the
    // wall-clock breakdown complete, stay bit-deterministic per seed,
    // and see the identical exogenous fault timeline (common random
    // numbers across policies).
    const TrainRunConfig base = faultyConfig();
    std::vector<TrainRunConfig> combos;
    for (const RecoveryMode mode :
         {RecoveryMode::FullRestart, RecoveryMode::WarmSpare}) {
        for (const CheckpointMode ckpt :
             {CheckpointMode::Sync, CheckpointMode::Async}) {
            TrainRunConfig cfg = base;
            cfg.policy.mode = mode;
            cfg.policy.spare_hosts =
                mode == RecoveryMode::WarmSpare ? 8 : 0;
            cfg.policy.checkpoint_mode = ckpt;
            combos.push_back(cfg);
        }
    }
    std::vector<TrainRunReport> reports;
    for (const TrainRunConfig &cfg : combos) {
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed)
            << toString(cfg.policy.mode) << "/"
            << toString(cfg.policy.checkpoint_mode);
        EXPECT_GT(rep.faults.total(), 0);
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds);
        expectBitwiseEqual(rep, sim.run());
        reports.push_back(rep);
    }
    // Warm-spare runs swap instead of restarting on fatal faults.
    EXPECT_GT(reports[2].spare_swaps + reports[3].spare_swaps, 0);
    // The fault process is exogenous: all policies see the same events.
    for (std::size_t i = 1; i < reports.size(); ++i) {
        const std::size_t n = std::min(reports[0].timeline.size(),
                                       reports[i].timeline.size());
        ASSERT_GT(n, 0u);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(reports[0].timeline[k].when,
                      reports[i].timeline[k].when);
            EXPECT_EQ(reports[0].timeline[k].kind,
                      reports[i].timeline[k].kind);
            EXPECT_EQ(reports[0].timeline[k].component,
                      reports[i].timeline[k].component);
        }
    }
}

TEST(TrainRunSim, WarmSparesBeatFullRestartsAtScale)
{
    // Acceptance criterion: at 16K GPUs under the default fault tuning
    // and a common random-number fault timeline, warm-spare recovery
    // strictly beats the stop-the-world restart.
    TrainRunConfig full = baseConfig();
    full.total_steps = 4000;
    full.seed = 3;
    TrainRunConfig warm = full;
    warm.policy.mode = RecoveryMode::WarmSpare;
    warm.policy.spare_hosts = 16;
    const TrainRunReport full_rep = TrainRunSim(full).run();
    const TrainRunReport warm_rep = TrainRunSim(warm).run();
    ASSERT_TRUE(full_rep.completed);
    ASSERT_TRUE(warm_rep.completed);
    ASSERT_GT(full_rep.faults.gpu_fatal + full_rep.faults.host_crash, 0)
        << "seed produced no fatal faults; the comparison is vacuous";
    EXPECT_GT(full_rep.restarts, 0);
    EXPECT_GT(warm_rep.spare_swaps, 0);
    EXPECT_EQ(warm_rep.restarts, 0);
    EXPECT_GT(warm_rep.goodput_tflops_per_gpu,
              full_rep.goodput_tflops_per_gpu);
    EXPECT_LT(warm_rep.wall_seconds, full_rep.wall_seconds);
    EXPECT_NEAR(breakdownSum(warm_rep), warm_rep.wall_seconds,
                1e-6 * warm_rep.wall_seconds);
}

TEST(TrainRunSim, AsyncCheckpointingRaisesGoodputUnderFaults)
{
    // Acceptance criterion: async goodput strictly beats sync at the
    // same interval on the same fault timeline.
    TrainRunConfig sync_cfg = baseConfig();
    sync_cfg.total_steps = 1000;
    sync_cfg.seed = 3;
    TrainRunConfig async_cfg = sync_cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunReport sync_rep = TrainRunSim(sync_cfg).run();
    const TrainRunReport async_rep = TrainRunSim(async_cfg).run();
    ASSERT_TRUE(sync_rep.completed);
    ASSERT_TRUE(async_rep.completed);
    EXPECT_GT(async_rep.goodput_tflops_per_gpu,
              sync_rep.goodput_tflops_per_gpu);
    EXPECT_NEAR(breakdownSum(async_rep), async_rep.wall_seconds,
                1e-6 * async_rep.wall_seconds);
}

TEST(TrainRunSim, AsyncOptimalIntervalTracksReducedBlockingCost)
{
    // Under async checkpointing the Young-Daly C is the snapshot (the
    // only step-blocking part), so the optimum interval shrinks by
    // ~sqrt(save/snapshot); the empirical optimum must follow it.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0; // ~30 min MTBF
    cfg.total_steps = 4000;
    cfg.seed = 5;
    TrainRunConfig async_cfg = cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim sync_sim(cfg);
    const TrainRunSim async_sim(async_cfg);
    const std::int64_t yd_sync = sync_sim.youngDalyIntervalSteps();
    const std::int64_t yd = async_sim.youngDalyIntervalSteps();
    EXPECT_LT(yd, yd_sync);
    ASSERT_GE(yd, 2) << "test config degenerated";
    const std::vector<std::int64_t> intervals = {
        std::max<std::int64_t>(1, yd / 4),
        std::max<std::int64_t>(1, yd / 2), yd, 2 * yd, 4 * yd, 8 * yd};
    const auto points = async_sim.scanCheckpointIntervals(intervals);
    const auto best = std::max_element(
        points.begin(), points.end(),
        [](const IntervalScanPoint &a, const IntervalScanPoint &b) {
            return a.goodput_tflops_per_gpu < b.goodput_tflops_per_gpu;
        });
    EXPECT_GE(best->interval_steps, (yd + 1) / 2)
        << "async optimum below half its Young-Daly interval";
    EXPECT_LE(best->interval_steps, 2 * yd)
        << "async optimum above twice its Young-Daly interval";
}

TEST(TrainRunSim, PoolExhaustionDegradesToDpShrink)
{
    // Shrink-friendly job: 48-sequence global batch divides at dp 4, 3,
    // and 2, so dropping one replica group keeps the batch intact.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 400.0;
    cfg.total_steps = 1000;
    cfg.checkpoint_interval_steps = 40;
    cfg.seed = 11;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 1;
    cfg.policy.allow_dp_shrink = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal + rep.faults.host_crash, 1)
        << "need at least two fatal faults to exhaust the one spare";
    EXPECT_EQ(rep.spare_swaps, 1);
    EXPECT_GT(rep.dp_shrinks, 0);
    // dp 4 -> 3 is the only legal shrink: at dp 2 the 48-sequence batch
    // would exceed one micro-batch per pipeline stage, so any further
    // fatal fault falls back to a full restart.
    EXPECT_EQ(rep.final_dp, 3);
    EXPECT_EQ(rep.dp_shrinks, 1);
    EXPECT_GT(rep.shrink_seconds, 0.0);
    // Steps after the shrink run the same global batch on fewer
    // replicas, so extra step time accrues as degradation.
    EXPECT_GT(rep.degraded_seconds, 0.0);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
    // Same seed without the elastic policy: every fault is a restart.
    TrainRunConfig rigid = cfg;
    rigid.policy = RecoveryPolicy{};
    const TrainRunReport rigid_rep = TrainRunSim(rigid).run();
    ASSERT_TRUE(rigid_rep.completed);
    EXPECT_GT(rigid_rep.restarts, 0);
    EXPECT_EQ(rigid_rep.dp_shrinks, 0);
    EXPECT_EQ(rigid_rep.final_dp, cfg.job.par.dp);
}

TEST(TrainRunSim, TieredJobsRestartRatherThanShrinkPastTheirLastDpPeer)
{
    // tp8/pp4/dp2 over a 4-sequence batch: dp 1 keeps the batch whole
    // (four micro-batches, one per stage), so with no spare a fatal
    // fault shrinks to dp 1. With HBM peer mirroring on, dp 1 leaves no
    // DP peer to mirror to, so the same faults restart instead.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(64);
    cfg.job.par = ParallelismConfig{8, 1, 4, 2};
    cfg.job.global_batch_tokens = 4LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 100.0;
    cfg.total_steps = 1000;
    cfg.checkpoint_interval_steps = 40;
    cfg.seed = 11;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.allow_dp_shrink = true;
    const TrainRunReport flat = TrainRunSim(cfg).run();
    ASSERT_TRUE(flat.completed);
    EXPECT_EQ(flat.dp_shrinks, 1);
    EXPECT_EQ(flat.final_dp, 1);

    cfg.storage.hier.enabled = true;
    const TrainRunReport tiered = TrainRunSim(cfg).run();
    ASSERT_TRUE(tiered.completed);
    EXPECT_EQ(tiered.dp_shrinks, 0);
    EXPECT_EQ(tiered.final_dp, 2);
    EXPECT_GT(tiered.restarts, 0);
}

/** Shrink-capable 16K job: 240-sequence global batch at dp 16 gives 15
 *  micro-batches, so dp 16 -> 15 stays within one in-flight micro-batch
 *  per pipeline stage (further shrinks fail divisibility). */
TrainRunConfig
elastic16kConfig()
{
    TrainRunConfig cfg;
    cfg.job.par = ParallelismConfig{8, 8, 16, 16};
    cfg.job.global_batch_tokens = 240LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
    // Long enough that the width bought back by a mid-run regrow
    // amortizes the re-shard outage (a late shrink leaves too short a
    // degraded tail for regrow to pay off over a few hundred steps).
    cfg.total_steps = 3600;
    cfg.checkpoint_interval_steps = 20;
    cfg.policy = RecoveryPolicy::elastic(1);
    // Repairs fast enough to come back within the test-sized run.
    cfg.repairs.gpu_repair_mean_hours = 0.2;
    cfg.repairs.host_repair_mean_hours = 0.3;
    return cfg;
}

TEST(TrainRunSim, RegrowBeatsShrinkOnlyUnderCommonRandomNumbers)
{
    // Acceptance criterion: with elastic recovery at the 16K config,
    // every swept seed where the shrink-only run actually shrinks, the
    // regrow run delivers strictly more goodput (same exogenous fault
    // AND repair timelines: common random numbers), and in at least one
    // seed the DP width recovers fully to the configured degree.
    const TrainRunConfig shrink_only = elastic16kConfig();
    TrainRunConfig regrow = shrink_only;
    regrow.policy.allow_regrow = true;
    int seeds_with_shrinks = 0;
    bool recovered_to_full = false;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig a = shrink_only;
        TrainRunConfig b = regrow;
        a.seed = seed;
        b.seed = seed;
        const TrainRunReport sa = TrainRunSim(a).run();
        const TrainRunReport sb = TrainRunSim(b).run();
        ASSERT_TRUE(sa.completed) << "seed " << seed;
        ASSERT_TRUE(sb.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(sa), sa.wall_seconds,
                    1e-6 * sa.wall_seconds)
            << "seed " << seed;
        EXPECT_NEAR(breakdownSum(sb), sb.wall_seconds,
                    1e-6 * sb.wall_seconds)
            << "seed " << seed;
        // CRN: both runs face the identical fault prefix.
        const std::size_t n =
            std::min(sa.timeline.size(), sb.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(sa.timeline[k].when, sb.timeline[k].when);
            EXPECT_EQ(sa.timeline[k].component, sb.timeline[k].component);
        }
        EXPECT_EQ(sb.final_dp,
                  b.job.par.dp - sb.dp_shrinks + sb.dp_regrows)
            << "seed " << seed;
        if (sa.dp_shrinks > 0) {
            ++seeds_with_shrinks;
            // Shrink-only limps at reduced DP forever; regrow buys the
            // width back for a bounded re-shard outage.
            EXPECT_GT(sb.goodput_tflops_per_gpu,
                      sa.goodput_tflops_per_gpu)
                << "seed " << seed;
            EXPECT_EQ(sa.final_dp, a.job.par.dp - sa.dp_shrinks);
        }
        if (sb.dp_regrows > 0 && sb.final_dp == b.job.par.dp)
            recovered_to_full = true;
    }
    ASSERT_GT(seeds_with_shrinks, 0)
        << "sweep too quiet: no seed ever exhausted the pool and shrank";
    EXPECT_TRUE(recovered_to_full)
        << "no swept seed regrew back to the configured DP width";
}

TEST(TrainRunSim, RegrowRefillsTheSparePoolFirst)
{
    // A repaired host refills the spare pool before any DP regrow: with
    // a pool configured and the DP width intact, it parks as a warm
    // spare (free) instead of forcing a regrow outage — visible as
    // hosts_repaired > 0 with dp_regrows == 0 on runs that never shrank,
    // and as extra swaps beyond the configured pool size.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.policy.allow_regrow = true;
    cfg.policy.allow_dp_shrink = false; // pool is the only elastic path
    // Hot enough that the one-host pool cycles several times.
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    cfg.total_steps = 1200;
    cfg.seed = 2;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal + rep.faults.host_crash, 1)
        << "need repeated fatal faults to cycle the one-host pool";
    EXPECT_GT(rep.hosts_repaired, 0);
    EXPECT_EQ(rep.dp_regrows, 0);
    EXPECT_DOUBLE_EQ(rep.regrow_seconds, 0.0);
    EXPECT_EQ(rep.final_dp, cfg.job.par.dp);
    // The refilled pool absorbs more fatal faults as cheap swaps than
    // the one provisioned spare could.
    EXPECT_GT(rep.spare_swaps, cfg.policy.spare_hosts);
    TrainRunConfig no_regrow = cfg;
    no_regrow.policy.allow_regrow = false;
    const TrainRunReport rigid = TrainRunSim(no_regrow).run();
    ASSERT_TRUE(rigid.completed);
    EXPECT_LE(rigid.spare_swaps, cfg.policy.spare_hosts);
    EXPECT_EQ(rigid.hosts_repaired, 0);
}

TEST(TrainRunSim, RepairShopIsInvisibleWithoutRegrow)
{
    // Back-compat: allow_regrow=false must reproduce pre-repair-shop
    // reports bit-identically. The shop draws from its own RNG streams,
    // so even a wildly different repair tuning cannot perturb a run
    // that never consumes repairs.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    TrainRunConfig other = cfg;
    other.repairs.gpu_repair_mean_hours = 1e-3;
    other.repairs.host_repair_mean_hours = 1e-3;
    other.repairs.requalify_lo = 2.0;
    other.repairs.requalify_hi = 10.0;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(other).run();
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.faults.total(), 0);
    expectBitwiseEqual(a, b);
    EXPECT_EQ(a.hosts_repaired, 0);
    EXPECT_EQ(a.dp_regrows, 0);
    EXPECT_DOUBLE_EQ(a.regrow_seconds, 0.0);
}

TEST(TrainRunSim, RegrowRunsAreDeterministic)
{
    // Seed-swept bit-determinism with the full elastic + regrow stack
    // on: the repair queue, pool refills, and batched re-admissions are
    // all replayable.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.policy.allow_regrow = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        expectBitwiseEqual(sim.run(), sim.run());
    }
}

TEST(TrainRunSim, RebalanceAbsorbsStragglersWithoutEviction)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 300;
    TrainRunConfig mitigated = cfg;
    mitigated.policy.straggler_rebalance = true;
    const TrainRunReport evicting = TrainRunSim(cfg).run();
    const TrainRunReport rebalanced = TrainRunSim(mitigated).run();
    ASSERT_TRUE(evicting.completed);
    ASSERT_TRUE(rebalanced.completed);
    ASSERT_GT(rebalanced.faults.stragglers, 0);
    // The DP peers have headroom for the shifted micro-batches, so the
    // localized stragglers are absorbed instead of evicted.
    EXPECT_GT(rebalanced.rebalances, 0);
    EXPECT_LT(rebalanced.restarts, evicting.restarts);
    EXPECT_EQ(rebalanced.steps_lost, 0);
    // Residual degradation persists but stays far below the eviction
    // outages it replaces.
    EXPECT_GT(rebalanced.degraded_seconds, 0.0);
    EXPECT_GT(rebalanced.goodput_tflops_per_gpu,
              evicting.goodput_tflops_per_gpu);
    EXPECT_NEAR(breakdownSum(rebalanced), rebalanced.wall_seconds,
                1e-6 * rebalanced.wall_seconds);
}

TEST(TrainRunSim, FatalFaultsDuringAsyncEndgameNeverFakeCompletion)
{
    // Regression: a fatal fault that interrupted the *final* snapshot
    // left `finishing` set across the rollback; the next straggler
    // eviction snapshot then took the finish path in on_drain_done and
    // reported completed=true with steps_committed < total_steps. Make
    // the snapshot long relative to the fatal MTBF (faults land inside
    // the final one) and checkpoint rarely, so the rollback re-executes
    // a wide window in which an eviction snapshot can fire. Sweep seeds.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 32.0;    // ~4 min MTBF
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 8.0; // ~1 min MTBF
    // One mild severity whose detection needs ~58 degraded steps: the
    // straggler is still undetected when the run first reaches
    // total_steps, and its countdown completes during the replayed
    // steps — exactly the eviction-after-rollback endgame under test.
    // Pinning the speed also keeps the degraded-step cache warm.
    cfg.faults.straggler_speed_lo = 0.95;
    cfg.faults.straggler_speed_hi = 0.95;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 60;
    cfg.checkpoint_interval_steps = 30;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.storage.async.snapshot_gbps_per_gpu = 0.1; // ~2 min snapshots
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        cfg.seed = seed;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        if (rep.completed) {
            EXPECT_EQ(rep.steps_committed, cfg.total_steps)
                << "seed " << seed
                << ": run reported complete before committing every step";
        }
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
    }
}

TEST(TrainRunSim, FatalFaultsDuringRebalancePauseRollBack)
{
    // Regression: a fatal fault landing inside a rebalance pause used to
    // take the back-to-back-outage path, which skips rollback() — the
    // uncheckpointed steps survived a host loss and an in-flight drain
    // later committed work whose host state was gone. With the pause
    // treated as a pause (rollback + normal recovery), runs under
    // frequent pauses and hot fatal faults must keep losing work, keep
    // the breakdown complete, and stay deterministic.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 32.0;     // ~4 min MTBF
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 64.0; // ~8 min MTBF
    // Severe pinned slowdown, default jitter: localized after one
    // degraded step, so pauses are frequent enough for fatal faults to
    // land inside them. At 0.35 the post-shift residual (4/3.35 ~ 1.19)
    // undercuts the degraded step ratio, and the raised residual cap
    // below keeps rebalance preferred over eviction.
    cfg.faults.straggler_speed_lo = 0.35;
    cfg.faults.straggler_speed_hi = 0.35;
    cfg.policy.rebalance_max_residual = 1.3;
    cfg.total_steps = 60;
    cfg.checkpoint_interval_steps = 10;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.policy.straggler_rebalance = true;
    std::int64_t rebalances = 0;
    double lost = 0.0;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        if (rep.completed) {
            EXPECT_EQ(rep.steps_committed, cfg.total_steps)
                << "seed " << seed;
        }
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
        expectBitwiseEqual(rep, sim.run());
        rebalances += rep.rebalances;
        lost += rep.lost_seconds;
    }
    EXPECT_GT(rebalances, 0) << "no pause was ever exercised";
    EXPECT_GT(lost, 0.0) << "fatal faults must keep losing work";
}

TEST(TrainRunSim, AutoIntervalTracksYoungDalyPerMode)
{
    // checkpoint_interval_auto makes checkpointIntervalSteps() the
    // source of truth: it follows the Young–Daly optimum of whatever
    // checkpoint mode the policy selects.
    TrainRunConfig cfg = faultyConfig();
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    const TrainRunSim sync_sim(cfg);
    EXPECT_EQ(sync_sim.checkpointIntervalSteps(),
              sync_sim.youngDalyIntervalSteps());
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim async_sim(cfg);
    EXPECT_EQ(async_sim.checkpointIntervalSteps(),
              async_sim.youngDalyIntervalSteps());
    // Async only blocks for the snapshot, so its optimum is shorter.
    EXPECT_LT(async_sim.checkpointIntervalSteps(),
              sync_sim.checkpointIntervalSteps());
    // run() consumes the same value the accessor reports.
    expectBitwiseEqual(
        async_sim.run(),
        async_sim.runWithInterval(async_sim.checkpointIntervalSteps()));
}

TEST(TrainRunSim, HierarchyIsInvisibleWhenDisabled)
{
    // Back-compat: with storage.hier.enabled=false the simulator must
    // reproduce pre-tier reports bit-identically, no matter how wild
    // the (unread) tier tuning is.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    TrainRunConfig other = cfg;
    other.storage.hier.hbm_barrier_seconds = 42.0;
    other.storage.hier.nvme_write_gbps_per_host = 0.001;
    other.storage.hier.nvme_read_gbps_per_host = 9999.0;
    other.storage.hier.nvme_barrier_seconds = 17.0;
    other.storage.hier.nvme_every = 1;
    other.storage.hier.global_every = 100;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(other).run();
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.faults.total(), 0);
    expectBitwiseEqual(a, b);
    EXPECT_EQ(a.partial_restarts, 0);
    EXPECT_EQ(a.tier_fallbacks, 0);
    EXPECT_DOUBLE_EQ(tierRestore(a, CheckpointTier::HbmPeer), 0.0);
    EXPECT_DOUBLE_EQ(tierRestore(a, CheckpointTier::HostLocal), 0.0);
}

TEST(TrainRunSim, HostCrashNeverRestoresFromTiersThatDiedWithTheHost)
{
    // Failure-domain audit, seed-swept: a HostCrash destroys that
    // host's HBM mirrors and NVMe copies, so every restore after one
    // must read the global tier — counted as a tier fallback — and the
    // partial-restart path must never engage.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 200.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    int seeds_with_crashes = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        EXPECT_EQ(rep.faults.gpu_fatal, 0) << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::HbmPeer), 0.0)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::HostLocal), 0.0)
            << "seed " << seed;
        EXPECT_EQ(rep.partial_restarts, 0) << "seed " << seed;
        if (rep.faults.host_crash > 0) {
            ++seeds_with_crashes;
            EXPECT_GT(rep.tier_fallbacks, 0) << "seed " << seed;
            EXPECT_GT(tierRestore(rep, CheckpointTier::Global), 0.0)
                << "seed " << seed;
        }
    }
    ASSERT_GT(seeds_with_crashes, 0)
        << "sweep too quiet: no seed ever crashed a host";
}

TEST(TrainRunSim, PartialRestartSwapsReadTheHbmPeerTier)
{
    // GpuFatal leaves both local tiers intact, so with partial restart
    // on, every warm-spare swap restores from the DP-peer HBM mirror
    // and no restore ever falls back past the local tiers.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    cfg.seed = 3;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal, 0);
    EXPECT_EQ(rep.faults.host_crash, 0);
    EXPECT_GT(rep.partial_restarts, 0);
    EXPECT_GT(tierRestore(rep, CheckpointTier::HbmPeer), 0.0);
    EXPECT_EQ(rep.tier_fallbacks, 0);
    // Swaps and shrinks took the partial path; only out-of-pool full
    // restarts (process teardown survives on NVMe) touch deeper tiers.
    EXPECT_EQ(rep.partial_restarts, rep.spare_swaps + rep.dp_shrinks);
    EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::Global), 0.0);
}

TEST(TrainRunSim, HierarchicalPartialRestartBeatsGlobalOnlyAt16K)
{
    // Acceptance criterion: at the 16K elastic config, whenever the
    // common-random-numbers timeline delivers a fatal fault, the
    // hierarchical + partial-restart run delivers strictly more goodput
    // than the global-only run. Each arm runs at its own Young-Daly
    // interval (the tiered arm's blocking cost is the cheap HBM
    // mirror), which is how both would be deployed.
    TrainRunConfig global_only = elastic16kConfig();
    global_only.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    int seeds_with_fatals = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig g = global_only;
        g.seed = seed;
        g.checkpoint_interval_steps =
            TrainRunSim(g).youngDalyIntervalSteps();
        TrainRunConfig h = g;
        h.storage.hier.enabled = true;
        h.policy.partial_restart = true;
        h.checkpoint_interval_steps =
            TrainRunSim(h).youngDalyIntervalSteps();
        const TrainRunReport sg = TrainRunSim(g).run();
        const TrainRunReport sh = TrainRunSim(h).run();
        ASSERT_TRUE(sg.completed) << "seed " << seed;
        ASSERT_TRUE(sh.completed) << "seed " << seed;
        // CRN: identical exogenous fault prefix in both arms.
        const std::size_t n =
            std::min(sg.timeline.size(), sh.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(sg.timeline[k].when, sh.timeline[k].when);
            EXPECT_EQ(sg.timeline[k].component, sh.timeline[k].component);
        }
        // The informational tier overlay stays within the audited
        // breakdown buckets it annotates.
        EXPECT_LE(tierRestore(sh, CheckpointTier::HbmPeer) +
                      tierRestore(sh, CheckpointTier::HostLocal) +
                      tierRestore(sh, CheckpointTier::Global),
                  sh.restart_seconds + sh.spare_swap_seconds +
                      sh.shrink_seconds + 1e-9)
            << "seed " << seed;
        if (sg.faults.gpu_fatal + sg.faults.host_crash > 0) {
            ++seeds_with_fatals;
            EXPECT_GT(sh.goodput_tflops_per_gpu,
                      sg.goodput_tflops_per_gpu)
                << "seed " << seed;
        }
    }
    ASSERT_GT(seeds_with_fatals, 0)
        << "sweep too quiet: no seed ever saw a fatal fault";
}

TEST(TrainRunSim, HierarchicalRunsAreDeterministic)
{
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.host_mtbf_hours = 1500.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        expectBitwiseEqual(sim.run(), sim.run());
    }
}

TEST(TrainRunSim, PlacementCountersStayZeroOnLegacyConfigs)
{
    // Every pre-placement policy (CentralPool, no migration) must never
    // touch the new counters or the displacement bucket.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.spare_swaps, 0);
    EXPECT_EQ(rep.cross_pod_swaps, 0);
    EXPECT_EQ(rep.placement_migrations, 0);
    EXPECT_DOUBLE_EQ(rep.displacement_seconds, 0.0);
}

TEST(TrainRunSim, PodLocalSwapsAreBitIdenticalToLegacyPricing)
{
    // Acceptance criterion: the pod-local spare path reproduces the
    // location-blind pricing exactly. A PerPodReserve run whose every
    // claim lands in the victim's own pod (ample per-pod stock) must be
    // bit-identical to the CentralPool/legacy run on the same seed.
    TrainRunConfig legacy = faultyConfig();
    legacy.policy = RecoveryPolicy::elastic(24);
    TrainRunConfig placed = legacy;
    placed.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    const TrainRunReport a = TrainRunSim(legacy).run();
    const TrainRunReport b = TrainRunSim(placed).run();
    ASSERT_TRUE(a.completed);
    ASSERT_GT(a.spare_swaps, 0) << "seed produced no swaps to compare";
    // 24 spares over 6 pods = 4 per pod: no pod exhausts its reserve
    // in this run, so no claim ever crosses pods.
    ASSERT_EQ(b.cross_pod_swaps, 0)
        << "same-pod fault burst drained a reserve; raise the pool";
    expectBitwiseEqual(a, b);
}

/** Warm-spare 16K run hot enough to exercise the placement machinery. */
TrainRunConfig
placementConfig()
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 2000;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 8;
    // Repairs fast enough that displaced ranks can migrate home within
    // the run.
    cfg.repairs.gpu_repair_mean_hours = 0.2;
    cfg.repairs.host_repair_mean_hours = 0.3;
    return cfg;
}

TEST(TrainRunSim, CrossPodSwapsStrictlyDegradeTheRun)
{
    // Acceptance criterion, seed-swept: pricing the central pool's
    // cross-pod swaps (placement_migration turns pricing on; CentralPool
    // parks every spare out-of-pod) strictly degrades the run versus
    // the location-blind model on the same fault timeline.
    int seeds_with_swaps = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        TrainRunConfig legacy = placementConfig();
        legacy.seed = seed;
        TrainRunConfig priced = legacy;
        priced.policy.placement_migration = true;
        const TrainRunReport a = TrainRunSim(legacy).run();
        const TrainRunReport b = TrainRunSim(priced).run();
        ASSERT_TRUE(a.completed) << "seed " << seed;
        ASSERT_TRUE(b.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(b), b.wall_seconds,
                    1e-6 * b.wall_seconds)
            << "seed " << seed;
        // CRN: identical exogenous fault prefix in both arms.
        const std::size_t n =
            std::min(a.timeline.size(), b.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(a.timeline[k].when, b.timeline[k].when);
            EXPECT_EQ(a.timeline[k].component, b.timeline[k].component);
        }
        EXPECT_EQ(a.cross_pod_swaps, 0) << "seed " << seed;
        if (b.spare_swaps == 0)
            continue;
        ++seeds_with_swaps;
        // Every CentralPool claim is cross-pod once placement is priced.
        EXPECT_EQ(b.cross_pod_swaps, b.spare_swaps) << "seed " << seed;
        EXPECT_GT(b.wall_seconds, a.wall_seconds) << "seed " << seed;
        EXPECT_LT(b.goodput_tflops_per_gpu, a.goodput_tflops_per_gpu)
            << "seed " << seed;
        // The displaced rank's spine crossing shows up as degradation
        // (extra step time) until it migrates home.
        EXPECT_GT(b.degraded_seconds, a.degraded_seconds)
            << "seed " << seed;
    }
    ASSERT_GT(seeds_with_swaps, 0)
        << "sweep too quiet: no seed ever consumed a spare";
}

TEST(TrainRunSim, DisplacedRanksMigrateHomeAtCheckpointBoundaries)
{
    // With migration enabled and repairs fast, a displaced rank moves
    // back into its home pod at a checkpoint boundary: counted in
    // placement_migrations, outage charged to displacement_seconds,
    // and the freed cross-pod spare returns to the pool.
    TrainRunConfig cfg = placementConfig();
    cfg.policy.placement_migration = true;
    int seeds_with_migrations = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
        EXPECT_LE(rep.placement_migrations, rep.cross_pod_swaps)
            << "seed " << seed;
        expectBitwiseEqual(rep, sim.run());
        if (rep.placement_migrations == 0)
            continue;
        ++seeds_with_migrations;
        EXPECT_GT(rep.displacement_seconds, 0.0) << "seed " << seed;
        EXPECT_GT(rep.hosts_repaired, 0) << "seed " << seed;
    }
    ASSERT_GT(seeds_with_migrations, 0)
        << "sweep too quiet: no displaced rank ever migrated home";
}

TEST(TrainRunSim, PerPodReservesBeatTheCentralPoolOnWornFleets)
{
    // The tentpole claim at run level: on a worn fleet where swaps are
    // frequent, spreading the spares across pods (pod-local claims)
    // strictly beats the central pool (all cross-pod) under CRN.
    TrainRunConfig central = placementConfig();
    central.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    central.policy.spare_hosts = 6; // one per pod when spread
    central.policy.placement_migration = true;
    central.seed = 3;
    TrainRunConfig spread = central;
    spread.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    const TrainRunReport c = TrainRunSim(central).run();
    const TrainRunReport p = TrainRunSim(spread).run();
    ASSERT_TRUE(c.completed);
    ASSERT_TRUE(p.completed);
    ASSERT_GT(c.spare_swaps, 0) << "seed produced no swaps";
    EXPECT_EQ(c.cross_pod_swaps, c.spare_swaps);
    EXPECT_LT(p.cross_pod_swaps, p.spare_swaps);
    EXPECT_GT(p.goodput_tflops_per_gpu, c.goodput_tflops_per_gpu);
    EXPECT_LT(p.wall_seconds, c.wall_seconds);
}

TEST(TrainRunSim, ExplicitIntervalIsTheTruthWhenAutoIsOff)
{
    const TrainRunConfig cfg = baseConfig();
    const TrainRunSim sim(cfg);
    EXPECT_EQ(sim.checkpointIntervalSteps(),
              cfg.checkpoint_interval_steps);
}

TEST(TrainRunSim, RepeatOnsetKeepsDetectionProgress)
{
    // Regression (repeat-onset detection clock): a worse repeat onset on
    // a still-undetected rank used to overwrite the whole tracker,
    // resetting steps_to_detect to the fresh value and pushing
    // localization out indefinitely under a steady drip of repeats. The
    // merge must adopt the worse speed but keep the accumulated
    // detection evidence.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(/*tracked_speed=*/0.8,
                            /*tracked_steps_to_detect=*/7,
                            /*tracked_mitigated=*/false,
                            /*onset_severity=*/0.5,
                            /*onset_steps_to_detect=*/40);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 7) << "the pre-fix overwrite reset "
                                           "the clock to the fresh 40";
    EXPECT_FALSE(merge.reset_mitigation);
}

TEST(TrainRunSim, RepeatOnsetAdoptsFasterDetectionWhenWorse)
{
    // A much slower straggler is *easier* to localize: when the fresh
    // detection cost undercuts the remaining clock, take it.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.95, 300, false, 0.3, 5);
    EXPECT_DOUBLE_EQ(merge.speed, 0.3);
    EXPECT_EQ(merge.steps_to_detect, 5);
    EXPECT_FALSE(merge.reset_mitigation);
}

TEST(TrainRunSim, NoWorseRepeatOnsetChangesNothing)
{
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.5, 7, false, 0.8, 3);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 7);
    EXPECT_FALSE(merge.reset_mitigation);
    // Same severity is not worse either.
    EXPECT_EQ(mergeStragglerOnset(0.5, 7, true, 0.5, 3).steps_to_detect,
              7);
}

TEST(TrainRunSim, WorseOnsetOnMitigatedRankRestartsTheCycle)
{
    // The rebalance was sized for the old speed; a worse onset
    // invalidates it, so mitigation starts a fresh detection cycle.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.8, 0, true, 0.5, 40);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 40);
    EXPECT_TRUE(merge.reset_mitigation);
}

TEST(TrainRunSim, ConcurrentStragglersOnDistinctStagesCompound)
{
    // Regression (joint straggler pricing): concurrent stragglers on
    // different PP stages used to be priced as the max over
    // single-straggler runs; the synchronized step actually pays for
    // every slow stage at once. TrainSim is the pricing oracle: two
    // adjacent slow stages cost strictly more than the worst alone.
    TrainJobConfig job;
    const RankGrid grid(job.par);
    const std::int64_t r7 = grid.rankOf(RankCoord{0, 0, 7, 0});
    const std::int64_t r8 = grid.rankOf(RankCoord{0, 0, 8, 0});
    TrainJobConfig j7 = job;
    j7.perf.injectStraggler(r7, 0.35);
    TrainJobConfig j8 = job;
    j8.perf.injectStraggler(r8, 0.35);
    TrainJobConfig both = job;
    both.perf.injectStraggler(r7, 0.35);
    both.perf.injectStraggler(r8, 0.35);
    const double s7 = TrainSim(j7).run().step_seconds;
    const double s8 = TrainSim(j8).run().step_seconds;
    const double joint = TrainSim(both).run().step_seconds;
    EXPECT_GT(joint, std::max(s7, s8))
        << "two slow stages must cost more than the worst alone";
}

TEST(TrainRunSim, RunPricesTheWholeActiveStragglerSetJointly)
{
    // Regression (joint straggler pricing, run level): with a saturated
    // straggler fleet the degraded time must exceed what max-over-single
    // pricing could ever produce. Stragglers only, detection effectively
    // off (sigma 20 -> ~1856 steps to localize a 0.35 straggler), a
    // degenerate severity range so every onset has speed 0.35, and a hot
    // enough rate that all 16 PP stages are slowed for most of the run.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 50.0;
    cfg.faults.straggler_speed_lo = 0.35;
    cfg.faults.straggler_speed_hi = 0.35;
    cfg.detection.straggler.jitter_sigma = 20.0;
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    ASSERT_TRUE(rep.completed);
    EXPECT_EQ(rep.restarts, 0) << "nothing may be detected or evicted";
    EXPECT_EQ(rep.rebalances, 0);
    // Price every observed straggler alone (via its stage
    // representative, the rank TrainSim's cost table actually samples)
    // and bound the buggy semantics: max-over-singles pricing can never
    // charge more than every step running at the worst single.
    const RankGrid grid(cfg.job.par);
    std::vector<std::int64_t> seen;
    double worst_single = 0.0;
    for (const FaultEvent &ev : rep.timeline) {
        if (ev.kind != FaultKind::StragglerOnset)
            continue;
        const std::int64_t stage_rep = grid.rankOf(
            RankCoord{0, 0, grid.coordOf(ev.component).pp, 0});
        if (std::find(seen.begin(), seen.end(), stage_rep) != seen.end())
            continue;
        seen.push_back(stage_rep);
        TrainJobConfig job = cfg.job;
        job.perf.injectStraggler(stage_rep, 0.35);
        worst_single = std::max(worst_single,
                                TrainSim(job).run().step_seconds);
    }
    ASSERT_GE(seen.size(), 2u)
        << "need concurrent stragglers on distinct stages";
    const double base = sim.baseStep().step_seconds;
    ASSERT_GT(worst_single, base);
    const double max_over_singles_bound =
        static_cast<double>(cfg.total_steps) * (worst_single - base);
    EXPECT_GT(rep.degraded_seconds, max_over_singles_bound)
        << "joint pricing must exceed any max-over-singles run";
}

/** Bursty pod-heat tuning shared by the correlation tests. */
ColocationTuning
burstyColocation()
{
    ColocationTuning t;
    t.enabled = true;
    t.heat_per_onset = 2.0;
    t.max_heat = 8.0;
    t.hazard_gain = 10.0;
    t.severity_gain = 2.0;
    t.heat_half_life_s = 600.0;
    return t;
}

TEST(TrainRunSim, CorrelationOffIsBitIdenticalToLegacy)
{
    // The correlation axis must be free when off: a disabled colocation
    // block — whatever its (valid) tuning says — consumes no random
    // numbers and reproduces the pre-correlation run bit for bit.
    const TrainRunConfig legacy = faultyConfig();
    TrainRunConfig off = faultyConfig();
    off.faults.colocation.enabled = false;
    off.faults.colocation.heat_per_onset = 5.0;
    off.faults.colocation.max_heat = 5.0;
    off.faults.colocation.hazard_gain = 99.0;
    off.faults.colocation.heat_half_life_s = 1.0;
    const TrainRunReport a = TrainRunSim(legacy).run();
    const TrainRunReport b = TrainRunSim(off).run();
    EXPECT_GT(a.faults.total(), 0) << "config too quiet to test anything";
    expectBitwiseEqual(a, b);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].when, b.timeline[i].when);
        EXPECT_EQ(a.timeline[i].component, b.timeline[i].component);
    }
}

TEST(TrainRunSim, CorrelatedStragglersCostGoodputUnderCrn)
{
    // The acceptance property: under common random numbers, whenever the
    // correlated arm produces >= 2 stragglers in one pod, it must yield
    // strictly lower goodput than the independent arm — co-location
    // concentrates stragglers into concurrent, worse-severity bursts the
    // jointly-priced step pays for in full. Seeds whose run finishes
    // before the first correlated onset (no shared pod) are skipped.
    int seeds_with_colocation = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig cfg = baseConfig();
        cfg.seed = seed;
        disableAllFaults(cfg);
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 6000.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 4000.0;
        cfg.detection.straggler.jitter_sigma = 0.5;
        TrainRunConfig corr = cfg;
        corr.faults.colocation = burstyColocation();
        const TrainRunReport indep = TrainRunSim(cfg).run();
        const TrainRunReport with_corr = TrainRunSim(corr).run();
        // CRN: the non-straggler sub-timelines share a common prefix —
        // the pod-heat model draws from its own streams, so enabling it
        // cannot move a single fatal event.
        std::vector<const FaultEvent *> fatals_a, fatals_b;
        for (const FaultEvent &ev : indep.timeline)
            if (ev.kind != FaultKind::StragglerOnset)
                fatals_a.push_back(&ev);
        for (const FaultEvent &ev : with_corr.timeline)
            if (ev.kind != FaultKind::StragglerOnset)
                fatals_b.push_back(&ev);
        const std::size_t n = std::min(fatals_a.size(), fatals_b.size());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(fatals_a[i]->when, fatals_b[i]->when);
            EXPECT_EQ(fatals_a[i]->component, fatals_b[i]->component);
        }
        // Pod occupancy of the correlated arm's straggler onsets.
        std::map<std::int64_t, int> per_pod;
        bool shared_pod = false;
        for (const FaultEvent &ev : with_corr.timeline)
            if (ev.kind == FaultKind::StragglerOnset)
                if (++per_pod[cfg.job.cluster.podOf(ev.component)] >= 2)
                    shared_pod = true;
        if (!shared_pod)
            continue;
        ++seeds_with_colocation;
        EXPECT_LT(with_corr.goodput_tflops_per_gpu,
                  indep.goodput_tflops_per_gpu)
            << "seed " << seed;
    }
    ASSERT_GT(seeds_with_colocation, 0)
        << "sweep too quiet to exercise the acceptance property";
}

TEST(TrainRunSim, TieredFullRestartsRestoreFromNvme)
{
    // A full restart tears the processes down, so under hierarchical
    // tiers a GPU fault restores from host-local NVMe: the rollback keeps
    // the NVMe-covered and pending work and drops only the HBM-only and
    // tentative tail. Every restart reads NVMe once at the configured
    // width (full restart never shrinks), and nothing reads the other
    // tiers.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.policy = RecoveryPolicy{};
    cfg.storage.hier.enabled = true;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        ASSERT_GT(rep.restarts, 0) << "seed " << seed;
        const double nvme_s = static_cast<double>(rep.restarts) *
                              sim.checkpoint().nvmeRestoreSeconds();
        EXPECT_NEAR(tierRestore(rep, CheckpointTier::HostLocal), nvme_s,
                    1e-9 * nvme_s)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::Global), 0.0)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::HbmPeer), 0.0)
            << "seed " << seed;
        EXPECT_EQ(rep.tier_fallbacks, 0) << "seed " << seed;
        EXPECT_GT(rep.steps_lost, 0) << "seed " << seed;
    }
}

TEST(TrainRunSim, ProductiveTimeIsIdealOnEveryRecoveryPath)
{
    // Every committed step is credited at fault-free speed and its
    // degradation goes to its own bucket, whichever checkpoint writes and
    // rollbacks it passed through. The bucket-sum check cannot see base
    // seconds leaking into degraded (or out of productive); this pins
    // the split through every fold of the coverage ledger.
    TrainRunConfig base = elastic16kConfig();
    base.total_steps = 1200;
    base.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    base.job.cluster.node.host_mtbf_hours = 2000.0;
    base.job.cluster.node.gpu.straggler_mtbf_hours = 4000.0;
    base.job.cluster.node.nic_flap_mtbf_hours = 2000.0;
    RecoveryPolicy regrow = RecoveryPolicy::elastic(1);
    regrow.allow_regrow = true;
    const std::vector<RecoveryPolicy> policies = {
        RecoveryPolicy{}, RecoveryPolicy::elastic(1), regrow};
    TrainRunReport seen; // path counters summed over the matrix
    for (const CheckpointMode mode :
         {CheckpointMode::Sync, CheckpointMode::Async}) {
        for (const bool tiered : {false, true}) {
            for (RecoveryPolicy policy : policies) {
                policy.checkpoint_mode = mode;
                policy.partial_restart = tiered && policy.allow_regrow;
                for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                    TrainRunConfig cfg = base;
                    cfg.storage.hier.enabled = tiered;
                    cfg.policy = policy;
                    cfg.seed = seed;
                    const TrainRunReport rep = TrainRunSim(cfg).run();
                    const std::string label =
                        std::string(toString(mode)) + "/" +
                        (tiered ? "tiered" : "global") + "/" +
                        toString(policy.mode) +
                        (policy.allow_regrow ? "+regrow" : "") + "/seed " +
                        std::to_string(seed);
                    ASSERT_TRUE(rep.completed) << label;
                    EXPECT_NEAR(rep.productive_seconds, rep.ideal_seconds,
                                1e-12 * rep.ideal_seconds)
                        << label;
                    seen.restarts += rep.restarts;
                    seen.spare_swaps += rep.spare_swaps;
                    seen.dp_shrinks += rep.dp_shrinks;
                    seen.dp_regrows += rep.dp_regrows;
                    seen.partial_restarts += rep.partial_restarts;
                    seen.rebalances += rep.rebalances;
                    seen.drain_stall_seconds += rep.drain_stall_seconds;
                    for (std::size_t t = 0;
                         t < seen.tier_restore_seconds.size(); ++t)
                        seen.tier_restore_seconds[t] +=
                            rep.tier_restore_seconds[t];
                }
            }
        }
    }
    // The matrix must actually reach every recovery path and rung.
    EXPECT_GT(seen.restarts, 0);
    EXPECT_GT(seen.spare_swaps, 0);
    EXPECT_GT(seen.dp_shrinks, 0);
    EXPECT_GT(seen.dp_regrows, 0);
    EXPECT_GT(seen.partial_restarts, 0);
    EXPECT_GT(seen.rebalances, 0);
    EXPECT_GT(seen.drain_stall_seconds, 0.0);
    for (int t = 0; t < kNumCheckpointTiers; ++t)
        EXPECT_GT(seen.tier_restore_seconds[static_cast<std::size_t>(t)],
                  0.0)
            << toString(static_cast<CheckpointTier>(t));
}

/**
 * Shrink-capable 512-GPU job in four pods on a worn fleet: fatal and
 * host MTBF at 1/24 of the calibrated rates, stragglers at 1/10, and
 * repairs fast enough to refill, regrow and migrate within the run.
 */
TrainRunConfig
wornFleetConfig()
{
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.cluster.nodes_per_pod = 16;
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours /= 24.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours /= 10.0;
    cfg.job.cluster.node.host_mtbf_hours /= 24.0;
    cfg.total_steps = 6000;
    cfg.checkpoint_interval_steps = 40;
    cfg.repairs.gpu_repair_mean_hours = 0.5;
    cfg.repairs.host_repair_mean_hours = 1.0;
    return cfg;
}

/** Whether RecoveryPolicy::validate and TrainRunConfig::validate accept
 *  @p cfg's swept knobs (the rest of wornFleetConfig is valid). */
bool
knobsValid(const TrainRunConfig &cfg)
{
    const RecoveryPolicy &p = cfg.policy;
    const bool needs_warm_spare =
        p.spare_hosts > 0 || p.allow_regrow || p.partial_restart ||
        p.placement_migration ||
        p.spare_placement != SparePlacementPolicy::CentralPool;
    return (p.mode == RecoveryMode::WarmSpare || !needs_warm_spare) &&
           (!p.partial_restart || cfg.storage.hier.enabled);
}

/** A random valid policy, tier setting and fault seed on the worn fleet. */
TrainRunConfig
randomWornConfig(Rng &rng)
{
    TrainRunConfig cfg = wornFleetConfig();
    cfg.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1000000));
    // Short runs read few knobs and long ones run their pools dry.
    cfg.total_steps = 2000 * rng.uniformInt(1, 6);
    cfg.storage.hier.enabled = rng.bernoulli(0.5);
    cfg.storage.hier.global_every = 4;
    cfg.storage.hier.nvme_every = 2;
    RecoveryPolicy &p = cfg.policy;
    p.checkpoint_mode =
        rng.bernoulli(0.5) ? CheckpointMode::Async : CheckpointMode::Sync;
    p.straggler_rebalance = rng.bernoulli(0.5);
    p.allow_dp_shrink = rng.bernoulli(0.5);
    if (rng.bernoulli(0.2))
        return cfg; // the full-restart baseline
    p.mode = RecoveryMode::WarmSpare;
    p.spare_hosts = rng.uniformInt(0, 2);
    p.spare_placement = static_cast<SparePlacementPolicy>(
        rng.uniformInt(0, kNumSparePlacementPolicies - 1));
    p.placement_migration = rng.bernoulli(0.5);
    p.allow_regrow = rng.bernoulli(0.5);
    p.partial_restart = cfg.storage.hier.enabled && rng.bernoulli(0.5);
    return cfg;
}

/** Every valid config that differs from @p cfg in one swept knob the
 *  run did not read. */
std::vector<TrainRunConfig>
unreadKnobFlips(const TrainRunConfig &cfg, const PolicyFootprint &read)
{
    std::vector<TrainRunConfig> out;
    const auto flip = [&](PolicyKnob knob, auto &&set) {
        if (read.contains(knob))
            return;
        TrainRunConfig flipped = cfg;
        set(flipped.policy);
        if (knobsValid(flipped))
            out.push_back(flipped);
    };
    flip(PolicyKnob::Mode, [](RecoveryPolicy &p) {
        p.mode = p.mode == RecoveryMode::WarmSpare ? RecoveryMode::FullRestart
                                                   : RecoveryMode::WarmSpare;
    });
    for (std::int64_t n = 0; n <= 2; ++n) {
        if (n != cfg.policy.spare_hosts)
            flip(PolicyKnob::SpareHosts,
                 [n](RecoveryPolicy &p) { p.spare_hosts = n; });
    }
    for (int i = 0; i < kNumSparePlacementPolicies; ++i) {
        const auto placement = static_cast<SparePlacementPolicy>(i);
        if (placement != cfg.policy.spare_placement)
            flip(PolicyKnob::SparePlacement, [placement](RecoveryPolicy &p) {
                p.spare_placement = placement;
            });
    }
    flip(PolicyKnob::PlacementMigration, [](RecoveryPolicy &p) {
        p.placement_migration = !p.placement_migration;
    });
    flip(PolicyKnob::AllowDpShrink,
         [](RecoveryPolicy &p) { p.allow_dp_shrink = !p.allow_dp_shrink; });
    flip(PolicyKnob::AllowRegrow,
         [](RecoveryPolicy &p) { p.allow_regrow = !p.allow_regrow; });
    flip(PolicyKnob::PartialRestart,
         [](RecoveryPolicy &p) { p.partial_restart = !p.partial_restart; });
    return out;
}

std::string
footprintText(const PolicyFootprint &fp)
{
    std::string text;
    for (int i = 0; i < kNumPolicyKnobs; ++i) {
        const auto knob = static_cast<PolicyKnob>(i);
        if (fp.contains(knob))
            text += std::string(text.empty() ? "" : ",") + toString(knob);
    }
    return "{" + text + "}";
}

TEST(TrainRunSim, FlippingAKnobOutsideTheFootprintChangesNothing)
{
    // Metamorphic soundness of the decision footprint: a run never read
    // a knob outside it, so every valid flip of such a knob must give
    // the identical report and footprint. Worn rates, pools of 0-2 that
    // run dry, fast repairs and four pods reach every recording site.
    const TrainRunSim job(wornFleetConfig());
    Rng rng(20261017);
    int flips = 0;
    int runs_with_swaps = 0;
    int runs_without_recoveries = 0;
    std::array<int, kNumPolicyKnobs> recorded{};
    for (int i = 0; i < 30; ++i) {
        const TrainRunConfig cfg = randomWornConfig(rng);
        ASSERT_TRUE(knobsValid(cfg));
        const TrainRunReport rep = TrainRunSim(cfg, job).run();
        for (int k = 0; k < kNumPolicyKnobs; ++k)
            recorded[static_cast<std::size_t>(k)] +=
                rep.footprint.contains(static_cast<PolicyKnob>(k));
        if (rep.spare_swaps > 0) {
            ++runs_with_swaps;
            EXPECT_TRUE(rep.footprint.contains(PolicyKnob::Mode));
            EXPECT_TRUE(rep.footprint.contains(PolicyKnob::SpareHosts));
        }
        // No fatal fault and no eviction: no recovery decision, no read.
        if (rep.faults.gpu_fatal + rep.faults.host_crash == 0 &&
            rep.restarts + rep.spare_swaps + rep.dp_shrinks == 0) {
            ++runs_without_recoveries;
            EXPECT_TRUE(rep.footprint.empty())
                << "config " << i << ": " << footprintText(rep.footprint);
        }
        for (const TrainRunConfig &flipped :
             unreadKnobFlips(cfg, rep.footprint)) {
            ++flips;
            const TrainRunReport other = TrainRunSim(flipped, job).run();
            EXPECT_TRUE(other == rep)
                << "config " << i << " footprint "
                << footprintText(rep.footprint) << ": wall "
                << rep.wall_seconds << " s became " << other.wall_seconds
                << " s, footprint " << footprintText(other.footprint);
        }
    }
    EXPECT_GT(runs_with_swaps, 0);
    EXPECT_GT(runs_without_recoveries, 0);
    EXPECT_GT(flips, 30);
    // Every knob is read by some run, so every recording site ran.
    for (int k = 0; k < kNumPolicyKnobs; ++k)
        EXPECT_GT(recorded[static_cast<std::size_t>(k)], 0)
            << toString(static_cast<PolicyKnob>(k));
}

TEST(TrainRunSim, RunsWithoutRecoveriesReadNoKnob)
{
    // No fatal fault and no eviction: stragglers are rebalanced away
    // and flaps only degrade steps, so no recovery decision is taken
    // and the run is the same under every swept knob.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 300;
    cfg.storage.hier.enabled = true;
    cfg.policy = RecoveryPolicy::elastic(2);
    cfg.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    cfg.policy.placement_migration = true;
    cfg.policy.allow_regrow = true;
    cfg.policy.partial_restart = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.rebalances, 0);
    ASSERT_GT(rep.faults.link_flaps, 0);
    ASSERT_EQ(rep.restarts + rep.spare_swaps + rep.dp_shrinks, 0);
    EXPECT_TRUE(rep.footprint.empty()) << footprintText(rep.footprint);
}

/** The pinned fields of one run report. */
struct GoldenRun
{
    double wall_seconds;
    double productive_seconds;
    double degraded_seconds;
    double lost_seconds;
    double checkpoint_seconds;
    double detection_seconds;
    double drain_stall_seconds;
    std::int64_t steps_lost;
    std::int64_t restarts;
    std::int64_t spare_swaps;
    std::int64_t dp_shrinks;
    std::int64_t dp_regrows;
    std::int64_t rebalances;
    std::int64_t partial_restarts;
    std::size_t timeline;
};

void
expectGolden(const TrainRunReport &rep, const GoldenRun &golden)
{
    EXPECT_EQ(rep.wall_seconds, golden.wall_seconds);
    EXPECT_EQ(rep.productive_seconds, golden.productive_seconds);
    EXPECT_EQ(rep.degraded_seconds, golden.degraded_seconds);
    EXPECT_EQ(rep.lost_seconds, golden.lost_seconds);
    EXPECT_EQ(rep.checkpoint_seconds, golden.checkpoint_seconds);
    EXPECT_EQ(rep.detection_seconds, golden.detection_seconds);
    EXPECT_EQ(rep.drain_stall_seconds, golden.drain_stall_seconds);
    EXPECT_EQ(rep.steps_lost, golden.steps_lost);
    EXPECT_EQ(rep.restarts, golden.restarts);
    EXPECT_EQ(rep.spare_swaps, golden.spare_swaps);
    EXPECT_EQ(rep.dp_shrinks, golden.dp_shrinks);
    EXPECT_EQ(rep.dp_regrows, golden.dp_regrows);
    EXPECT_EQ(rep.rebalances, golden.rebalances);
    EXPECT_EQ(rep.partial_restarts, golden.partial_restarts);
    EXPECT_EQ(rep.timeline.size(), golden.timeline);
}

/** wornFleetConfig with fatal GPU and host faults @p hotter times as
 *  frequent, and no stragglers or flaps. */
TrainRunConfig
fatalOnlyWornConfig(double hotter)
{
    TrainRunConfig cfg = wornFleetConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours /= hotter;
    cfg.job.cluster.node.host_mtbf_hours /= hotter;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
    cfg.total_steps = 3000;
    return cfg;
}

// Reports pinned bit for bit. The first seven were computed with one
// engine event per step, the next two with one per step segment, write
// and drain, so they hold the walk to results of runs that scheduled
// all their work as events. The last nine were computed by walking
// every checkpoint period of a quiet stretch, before periods were
// replayed: they hold the replay to its edges. Between them the runs
// end segments at every cadence the run controls (checkpoint, finish,
// warmup, straggler detection, wall limit) and settle them at every
// interrupt it does not (fatal faults, straggler onsets, flap onsets
// and expiries, async drains).

TEST(TrainRunSimGolden, FaultFreeSyncRun)
{
    TrainRunConfig cfg = wornFleetConfig();
    disableAllFaults(cfg);
    cfg.total_steps = 2000;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.db8780a393ee6p+13, 0x1.5e607f92f599p+13, 0x0p+0,
                  0x0p+0, 0x1.f49c044284df7p+11, 0x0p+0, 0x0p+0, 0, 0, 0,
                  0, 0, 0, 0, 0});
}

TEST(TrainRunSimGolden, FatalFaultsWithWarmSparesAndWarmup)
{
    // Sync saves, a two-host pool that runs dry, shrinks, regrows, and
    // 25 slow warmup steps after every recovery.
    TrainRunConfig cfg = fatalOnlyWornConfig(40.0);
    cfg.seed = 3;
    cfg.restart.warmup_steps = 25;
    cfg.policy = RecoveryPolicy::elastic(2);
    cfg.policy.checkpoint_mode = CheckpointMode::Sync;
    cfg.policy.allow_regrow = true;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.7990c25b4a75fp+15, 0x1.06c85fae3833p+14,
                  0x1.289c721eecf0dp+11, 0x1.3fbc07be2b773p+13,
                  0x1.8f3cd03537192p+12, 0x1.22336ff3960bdp+11, 0x0p+0, 1397,
                  26, 46, 7, 7, 0, 0, 79});
}

TEST(TrainRunSimGolden, AsyncDrainsCompleteMidSegment)
{
    // An 80 s drain under a 224 s interval: every drain but the last
    // lands while steps run, and fatal faults force full restarts.
    TrainRunConfig cfg = fatalOnlyWornConfig(20.0);
    cfg.seed = 5;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.92d62d36a1856p+14, 0x1.06c85fae3833p+14,
                  0x1.0f1b9003726c3p+8, 0x1.8c450f284c07bp+11,
                  0x1.cc63e08fa249dp+5, 0x1.7e79ef498cc48p+9,
                  0x1.4063d9c42c146p+6, 544, 26, 0, 0, 0, 0, 0, 26});
}

TEST(TrainRunSimGolden, PricedFlapsAndRebalancedStragglers)
{
    // 14 flaps at 15-60% link capacity reprice the step at their onset
    // and at their expiry; three stragglers are localized after a few
    // degraded steps and rebalanced away.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 1000.0;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.policy.straggler_rebalance = true;
    cfg.total_steps = 600;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.0a6405c4b6309p+12, 0x1.b63fe6792a299p+11,
                  0x1.ff2ae9f9f522dp+7, 0x0p+0, 0x1.7eaece13f4a97p+6,
                  0x1.95p+8, 0x0p+0, 0, 0, 0, 0, 0, 3, 0, 17});
}

TEST(TrainRunSimGolden, TieredPartialRestart)
{
    // Every boundary mirrors to DP-peer HBM; swaps restore from those
    // mirrors, and host crashes fall back to the global tier.
    TrainRunConfig cfg = fatalOnlyWornConfig(20.0);
    cfg.seed = 9;
    cfg.storage.hier.enabled = true;
    cfg.storage.hier.global_every = 4;
    cfg.storage.hier.nvme_every = 2;
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.policy.partial_restart = true;
    cfg.policy.allow_regrow = true;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.8e3115e917ap+14, 0x1.06c85fae38327p+14,
                  0x1.d5c132e90ab88p+7, 0x1.00eb01ca880f1p+12,
                  0x1.36eb000589567p+9, 0x1.77p+9, 0x1.4063d9c42c146p+6, 699,
                  5, 14, 6, 6, 0, 17, 25});
}

TEST(TrainRunSimGolden, TruncatedAtTheWallLimit)
{
    // The last step starts by the 1.2-hour limit; the work after the
    // last durable save is lost.
    TrainRunConfig cfg = fatalOnlyWornConfig(20.0);
    cfg.seed = 11;
    cfg.total_steps = 100000;
    cfg.max_wall_days = 0.05;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    EXPECT_FALSE(rep.completed);
    expectGolden(rep,
                 {0x1.0f33079e69c93p+12, 0x1.c07b849325e21p+10,
                  0x1.93a25db7a218ap+4, 0x1.62afdf7b01225p+9,
                  0x1.4063d9c42c147p+9, 0x1.2cp+7, 0x0p+0, 108, 5, 0, 0, 0, 0,
                  0, 5});
}

TEST(TrainRunSimGolden, CrossPodSwapsAndMigrationsFromPodReserves)
{
    // One spare per pod: a pod whose reserve is dry swaps in a spare
    // from another pod, and the displaced rank's spine crossing slows
    // every step until it migrates home at a checkpoint boundary. Three
    // flaps land along the way.
    TrainRunConfig cfg = wornFleetConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours /= 4.0;
    cfg.job.cluster.node.host_mtbf_hours /= 4.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 1000.0;
    cfg.total_steps = 3000;
    cfg.seed = 12;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 4;
    cfg.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    cfg.policy.placement_migration = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    expectGolden(rep, {0x1.8f09292dac022p+14, 0x1.06c85fae3833p+14,
                       0x1.4de689ec94408p+9, 0x1.c9b2659e98c12p+9,
                       0x1.77750331e3a79p+12, 0x1.a4p+7, 0x0p+0, 148, 0, 7,
                       0, 0, 0, 0, 10});
    EXPECT_EQ(rep.cross_pod_swaps, 5);
    EXPECT_EQ(rep.placement_migrations, 5);
    EXPECT_EQ(rep.displacement_seconds, 0x1.e79c1cd6a568bp+7);
    EXPECT_EQ(rep.faults.link_flaps, 3);
}

TEST(TrainRunSimGolden, AsyncDrainsOutlastTheInterval)
{
    // Half the filesystem bandwidth drains a snapshot in 156 s against a
    // 56 s interval: every boundary stalls on the single snapshot buffer
    // until the previous drain lands, and the run spends more time
    // stalled than training.
    TrainRunConfig cfg = fatalOnlyWornConfig(1.0);
    cfg.seed = 5;
    cfg.checkpoint_interval_steps = 10;
    cfg.storage.write_gbps_per_host = 0.5;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.7635399549b9fp+15, 0x1.06c85fae3831bp+14,
                  0x1.02286145fb6abp+9, 0x1.b8d3052a2c95ep+7,
                  0x1.bda25128919d8p+7, 0x1.ep+5, 0x1.cf5417ad6e0dep+14, 38,
                  2, 0, 0, 0, 0, 0, 2});
}

TEST(TrainRunSimGolden, AsyncEvictionsWaitForDurability)
{
    // Stragglers at 1/2000 of the calibrated MTBF and no rebalancing:
    // each of 17 detections snapshots, blocks until the drain lands,
    // then evicts the culprit. Of the 19 recoveries (two for fatal
    // faults), the one-host pool serves one, a shrink one, and full
    // restarts the rest.
    TrainRunConfig cfg = wornFleetConfig();
    cfg.job.cluster.node.gpu.straggler_mtbf_hours /= 200.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
    cfg.total_steps = 3000;
    cfg.seed = 2;
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.policy.straggler_rebalance = false;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    expectGolden(rep, {0x1.902a791760cd6p+14, 0x1.06c85fae3833p+14,
                       0x1.0882b21106a17p+9, 0x1.d1c05692d5b24p+7,
                       0x1.1a895904a906ep+6, 0x1.068p+11,
                       0x1.0586d3a9a0d66p+11, 38, 17, 1, 1, 0, 0, 0, 19});
    EXPECT_EQ(rep.faults.stragglers, 17);
}

/**
 * fatalOnlyWornConfig(2.0) over 6,000 steps with a checkpoint boundary
 * every 8 steps and hierarchical tiers at their default cadence (NVMe
 * every 4th boundary, global every 16th): a handful of fatal faults
 * between quiet stretches of many 16-boundary periods.
 */
TrainRunConfig
tieredSparseConfig(std::uint64_t seed)
{
    TrainRunConfig cfg = fatalOnlyWornConfig(2.0);
    cfg.seed = seed;
    cfg.total_steps = 6000;
    cfg.checkpoint_interval_steps = 8;
    cfg.storage.hier.enabled = true;
    return cfg;
}

TEST(TrainRunSimGolden, TieredSyncAtTheDefaultCadence)
{
    // Five fatal faults and full restarts from NVMe or the global tier;
    // between them, sync saves every 16th boundary.
    expectGolden(TrainRunSim(tieredSparseConfig(1)).run(),
                 {0x1.4c65ad405d82p+15, 0x1.06c85fae38328p+15,
                  0x1.505ca36e5c69dp+5, 0x1.06669ade65febp+9,
                  0x1.c56d7525c6e31p+12, 0x1.2cp+7, 0x0p+0, 92, 5, 0, 0,
                  0, 0, 0, 5});
}

TEST(TrainRunSimGolden, TieredAsyncAtTheDefaultCadence)
{
    // The same faults under async snapshots every 16th boundary: two
    // warm-spare swaps and a shrink restore from DP-peer HBM, and two
    // host crashes restart from the global tier.
    TrainRunConfig cfg = tieredSparseConfig(1);
    cfg.policy = RecoveryPolicy::elastic(2);
    cfg.policy.partial_restart = true;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.2fe3441df374dp+15, 0x1.06c85fae38327p+15,
                  0x1.8567c428521e9p+8, 0x1.b2113798e643ap+6,
                  0x1.e7ba290a0f787p+11, 0x1.2cp+7, 0x1.a5da77b03ac5dp+6,
                  18, 2, 2, 1, 0, 0, 3, 5});
}

TEST(TrainRunSimGolden, RepairsLandBetweenGlobalBoundaries)
{
    // A one-host pool under sync saves: each repair becomes ready
    // somewhere between two global boundaries, and the next durable
    // boundary refills the pool (four times) or regrows the replica the
    // dry pool shrank away (once).
    TrainRunConfig cfg = tieredSparseConfig(1);
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.policy.checkpoint_mode = CheckpointMode::Sync;
    cfg.policy.allow_regrow = true;
    cfg.policy.partial_restart = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    expectGolden(rep, {0x1.452448615e02bp+15, 0x1.06c85fae38328p+15,
                       0x1.f2f7302f3c592p+5, 0x1.40b96daaffbffp+7,
                       0x1.bde997f8afa94p+12, 0x1.2cp+7, 0x0p+0, 16, 0, 4,
                       1, 1, 0, 5, 5});
    EXPECT_EQ(rep.hosts_repaired, 5);
}

TEST(TrainRunSimGolden, RepairsAfterWarmupFreeSwaps)
{
    // The same run without warmup steps: a swap that restores from
    // DP-peer HBM leaves the coverage it had, so the run is back in its
    // steady state at the first boundary after the outage, before any
    // durable boundary has looked at the repair the fault submitted.
    TrainRunConfig cfg = tieredSparseConfig(1);
    cfg.restart.warmup_steps = 0;
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.policy.checkpoint_mode = CheckpointMode::Sync;
    cfg.policy.allow_regrow = true;
    cfg.policy.partial_restart = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    expectGolden(rep, {0x1.451376f2cbb17p+15, 0x1.06c85fae38327p+15,
                       0x1.7964e7753081p+3, 0x1.e9bb1f95fe892p+6,
                       0x1.c2eb275fc0594p+12, 0x1.2cp+7, 0x0p+0, 19, 0, 4,
                       1, 1, 0, 5, 5});
    EXPECT_EQ(rep.hosts_repaired, 5);
}

TEST(TrainRunSimGolden, SlowDetectionsSpanPeriods)
{
    // Two stragglers under 50x the calibrated step jitter, evicted once
    // localized: the milder one (speed 0.94) takes ~850 degraded steps,
    // several periods at one price, to detect.
    TrainRunConfig cfg = tieredSparseConfig(7);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 0.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    cfg.detection.straggler.jitter_sigma = 0.5;
    cfg.policy.straggler_rebalance = false;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    expectGolden(rep, {0x1.4514e6d9686f4p+15, 0x1.06c85fae38328p+15,
                       0x1.fe4f8a1692532p+5, 0x0p+0, 0x1.c7ee3c5b7afa1p+12,
                       0x1.ep+7, 0x0p+0, 0, 2, 0, 0, 0, 0, 0, 2});
    EXPECT_EQ(rep.faults.stragglers, 2);
}

TEST(TrainRunSimGolden, LongWarmupsSpanPeriods)
{
    // 400 slow warmup steps after each of five full restarts: several
    // periods at the warmup price before the steady one.
    TrainRunConfig cfg = tieredSparseConfig(1);
    cfg.restart.warmup_steps = 400;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.6fe7a11afd4b4p+15, 0x1.06c85fae38328p+15,
                  0x1.23837c92d8ap+12, 0x1.c39c2f6565b8p+8,
                  0x1.c52d611442007p+12, 0x1.2cp+7, 0x0p+0, 66, 5, 0, 0,
                  0, 0, 0, 5});
}

TEST(TrainRunSimGolden, FinishLandsInsideAPeriod)
{
    // No fault: the whole run is one stretch, and its last step lands
    // three steps past a boundary.
    TrainRunConfig cfg = tieredSparseConfig(1);
    disableAllFaults(cfg);
    cfg.total_steps = 6003;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.3eaf68bf367bp+15, 0x1.06ea028b5cd55p+15, 0x0p+0,
                  0x0p+0, 0x1.be2b319ede7c2p+12, 0x0p+0, 0x0p+0, 0, 0, 0,
                  0, 0, 0, 0, 0});
}

TEST(TrainRunSimGolden, WallLimitLandsInsideAPeriod)
{
    // No fault and async snapshots: the 4.8-hour limit cuts the one
    // stretch between two global boundaries, losing the work after the
    // last drained snapshot.
    TrainRunConfig cfg = tieredSparseConfig(1);
    disableAllFaults(cfg);
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.max_wall_days = 0.2;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    EXPECT_FALSE(rep.completed);
    expectGolden(rep, {0x1.0e1b92e34b9cfp+14, 0x1.d6e81800e7c79p+13,
                       0x1.78b9accd863a2p+5, 0x1.24b0dde9e371dp+9,
                       0x1.8c5a31d2b5efdp+10, 0x0p+0, 0x0p+0, 104, 0, 0, 0,
                       0, 0, 0, 0});
}

TEST(TrainRunSimGolden, TieredDrainsOutlastEveryPeriod)
{
    // A twentieth of the filesystem bandwidth drains a snapshot in
    // ~1,500 s, about two 16-boundary periods: every global boundary
    // stalls on the single snapshot buffer.
    TrainRunConfig cfg = tieredSparseConfig(5);
    cfg.storage.write_gbps_per_host = 0.05;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    expectGolden(TrainRunSim(cfg).run(),
                 {0x1.1ae02bd7a35dap+16, 0x1.06c85fae38328p+15,
                  0x1.f563b06a1b5c2p+9, 0x1.18ad4fe201b1ep+8,
                  0x1.ac0267e190b11p+11, 0x1.68p+7, 0x1.fff6c9d436df6p+14,
                  47, 6, 0, 0, 0, 0, 0, 6});
}

TEST(JobPricingGolden, DisplacementSlowdownPerSpineOversubscription)
{
    // A displaced rank runs the NIC-bound share of the step at
    // 1/oversubscription of the NIC rate, priced like a link flap at
    // that capacity. Pinned bit for bit on the default 8K job and on
    // perfbench's run_degraded job: Table 2's 131K row
    // (tp8/cp16/pp16/dp8) with 4K-mean document masks.
    struct Pin
    {
        double oversubscription;
        double production;
        double long_context;
    };
    for (const Pin &pin : {Pin{1.0, 0x1p+0, 0x1p+0},
                           Pin{7.0, 0x1.7d8253f5776ap+0,
                               0x1.c96d0431be7e5p+0},
                           Pin{14.0, 0x1.7ab686ff3a869p+1,
                               0x1.b70432174dcdep+1}}) {
        TrainJobConfig production;
        TrainJobConfig long_context;
        long_context.par = ParallelismConfig{8, 16, 16, 8};
        long_context.seq = 131072;
        long_context.doc_mask_mean = 4096.0;
        production.cluster.spine_oversubscription = pin.oversubscription;
        long_context.cluster.spine_oversubscription = pin.oversubscription;
        EXPECT_EQ(JobPricing(production).displacementSlowdown(),
                  pin.production)
            << "oversubscription " << pin.oversubscription;
        EXPECT_EQ(JobPricing(long_context).displacementSlowdown(),
                  pin.long_context)
            << "oversubscription " << pin.oversubscription;
    }
}

/** Share of @p step that crosses the NICs, as the NIC price reads it:
 *  exposed FSDP + CP over the step, between a 2% floor and 90%. */
double
nicBoundShare(const TrainStepReport &step)
{
    return std::clamp(
        (step.exposed_fsdp_seconds + step.exposed_cp_seconds) /
            step.step_seconds,
        0.02, 0.9);
}

TEST(JobPricing, DisplacementSlowdownStretchesOnlyTheNicBoundShare)
{
    // The spine offers 1/oversubscription of the NIC rate, so the
    // NIC-bound share of the step takes oversubscription times as long
    // and the rest of the step none longer. The long-context job adds
    // exposed CP traffic to that share.
    TrainJobConfig long_context;
    long_context.par = ParallelismConfig{8, 16, 16, 8};
    long_context.seq = 131072;
    long_context.doc_mask_mean = 4096.0;
    for (TrainJobConfig job : {TrainJobConfig{}, long_context}) {
        for (double oversubscription : {2.0, 2.5, 4.0, 7.0, 14.0}) {
            job.cluster.spine_oversubscription = oversubscription;
            const JobPricing pricing(job);
            const double share = nicBoundShare(pricing.baseStep());
            EXPECT_GT(share, 0.02);
            EXPECT_LT(share, 0.9);
            EXPECT_DOUBLE_EQ(pricing.displacementSlowdown(),
                             1.0 + (oversubscription - 1.0) * share)
                << "seq " << job.seq << ", oversubscription "
                << oversubscription;
        }
    }
}

TEST(JobPricing, DisplacementSlowdownGrowsWithSpineOversubscription)
{
    // More oversubscription, less spine capacity, slower steps; never
    // slower than the whole step running at the spine's rate.
    double prev = 0.0;
    for (double oversubscription = 1.0; oversubscription <= 16.0;
         oversubscription += 0.5) {
        TrainJobConfig job;
        job.cluster.spine_oversubscription = oversubscription;
        const double slowdown = JobPricing(job).displacementSlowdown();
        EXPECT_GE(slowdown, 1.0);
        EXPECT_LE(slowdown, oversubscription);
        if (oversubscription > 1.0) {
            EXPECT_GT(slowdown, prev)
                << "oversubscription " << oversubscription;
        }
        prev = slowdown;
    }
}

TEST(JobPricing, NicFloorPricesJobsWithoutExposedNicTraffic)
{
    // One TP-only node exposes no FSDP or CP traffic; the 2% floor, kept
    // for P2P and infra traffic the step report does not itemize, is
    // the whole NIC-bound share.
    TrainJobConfig job;
    job.cluster = ClusterSpec::llama3Production(8);
    job.par = ParallelismConfig{8, 1, 1, 1};
    job.global_batch_tokens = 4LL * 8192;
    job.cluster.spine_oversubscription = 7.0;
    const JobPricing pricing(job);
    EXPECT_EQ(pricing.baseStep().exposed_fsdp_seconds, 0.0);
    EXPECT_EQ(pricing.baseStep().exposed_cp_seconds, 0.0);
    EXPECT_DOUBLE_EQ(pricing.displacementSlowdown(), 1.0 + 6.0 * 0.02);
}

TEST(JobPricing, PricesTheLowestAcceptedSpineCapacity)
{
    // 1e6x oversubscription is the lowest capacity the clock prices
    // (1e-6 of the NIC): the NIC-bound share stretches a million-fold
    // and the price stays finite.
    TrainJobConfig job;
    job.cluster.spine_oversubscription = 1e6;
    const JobPricing pricing(job);
    const double slowdown = pricing.displacementSlowdown();
    EXPECT_TRUE(std::isfinite(slowdown));
    EXPECT_DOUBLE_EQ(slowdown,
                     1.0 + (1e6 - 1.0) * nicBoundShare(pricing.baseStep()));
}

/** @p rep without what its NIC flaps own: their timeline entries, their
 *  count, and the engine events and walked work they took. */
TrainRunReport
withoutFlaps(TrainRunReport rep)
{
    std::erase_if(rep.timeline, [](const FaultEvent &ev) {
        return ev.kind == FaultKind::LinkFlap;
    });
    rep.faults.link_flaps = 0;
    rep.engine_events = 0;
    rep.walked_work = 0;
    return rep;
}

TEST(TrainRunSim, FullCapacityFlapsChangeNothing)
{
    // A flap that keeps the full link capacity prices no step, yet its
    // onset and its expiry land mid-segment and settle it. Settling must
    // credit exactly the steps that ended and keep the one in flight, so
    // every field the flaps do not own equals the flap-free run's. The
    // flap stream is its own, so the other faults arrive unchanged.
    TrainRunConfig flapping = wornFleetConfig();
    flapping.job.cluster.node.nic_flap_mtbf_hours = 200.0;
    flapping.faults.flap_capacity_lo = 1.0;
    flapping.faults.flap_capacity_hi = 1.0;
    TrainRunConfig flap_free = wornFleetConfig();
    flap_free.job.cluster.node.nic_flap_mtbf_hours = 0.0;
    const TrainRunSim flapping_job(flapping);
    const TrainRunSim flap_free_job(flap_free);
    Rng rng(20261017);
    std::int64_t flaps = 0;
    for (int i = 0; i < 20; ++i) {
        TrainRunConfig cfg = randomWornConfig(rng);
        cfg.job = flap_free.job;
        const TrainRunReport base = TrainRunSim(cfg, flap_free_job).run();
        cfg.job = flapping.job;
        cfg.faults = flapping.faults;
        const TrainRunReport rep = TrainRunSim(cfg, flapping_job).run();
        flaps += rep.faults.link_flaps;
        EXPECT_TRUE(withoutFlaps(rep) == withoutFlaps(base))
            << "config " << i << ": wall " << base.wall_seconds
            << " s became " << rep.wall_seconds << " s with "
            << rep.faults.link_flaps << " flaps";
    }
    EXPECT_GT(flaps, 200);
}

TEST(TrainRunSim, FullCapacityFlapsCutReplaysAndChangeNothing)
{
    // Inert interrupts on long quiet stretches. A flap at full link
    // capacity prices no step, but its onset and its expiry are engine
    // events: each ends a walk at a random point of a checkpoint period,
    // so a replay stops short of it and the walk goes on from there.
    // Every field the flaps do not own must equal the flap-free run's.
    // The runs are sparse-fault tiered runs at the default cadence, whose
    // flap-free stretches replay most of their periods: they walk fewer
    // segments, writes and drains than they have boundaries.
    TrainRunConfig flapping = tieredSparseConfig(1);
    flapping.job.cluster.node.nic_flap_mtbf_hours = 100.0;
    flapping.faults.flap_capacity_lo = 1.0;
    flapping.faults.flap_capacity_hi = 1.0;
    const TrainRunSim flapping_job(flapping);
    const TrainRunSim flap_free_job(tieredSparseConfig(1));
    Rng rng(20261025);
    std::int64_t flaps = 0;
    for (int i = 0; i < 12; ++i) {
        TrainRunConfig cfg = tieredSparseConfig(
            static_cast<std::uint64_t>(rng.uniformInt(1, 1000000)));
        RecoveryPolicy &p = cfg.policy;
        p.checkpoint_mode =
            rng.bernoulli(0.5) ? CheckpointMode::Async : CheckpointMode::Sync;
        if (rng.bernoulli(0.75)) {
            p.mode = RecoveryMode::WarmSpare;
            p.spare_hosts = rng.uniformInt(0, 2);
            p.allow_dp_shrink = rng.bernoulli(0.5);
            p.allow_regrow = rng.bernoulli(0.5);
            p.partial_restart = rng.bernoulli(0.5);
        }
        const TrainRunReport base = TrainRunSim(cfg, flap_free_job).run();
        EXPECT_LT(base.walked_work,
                  cfg.total_steps / cfg.checkpoint_interval_steps)
            << "config " << i;
        cfg.job = flapping.job;
        cfg.faults = flapping.faults;
        const TrainRunReport rep = TrainRunSim(cfg, flapping_job).run();
        flaps += rep.faults.link_flaps;
        EXPECT_TRUE(withoutFlaps(rep) == withoutFlaps(base))
            << "config " << i << ": wall " << base.wall_seconds
            << " s became " << rep.wall_seconds << " s with "
            << rep.faults.link_flaps << " flaps";
    }
    EXPECT_GT(flaps, 100);
}

/** wornFleetConfig with NIC flaps, all at link capacity @p capacity, as
 *  its only faults. */
TrainRunConfig
flapOnlyConfig(double capacity)
{
    TrainRunConfig cfg = wornFleetConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.nic_flap_mtbf_hours = 200.0;
    cfg.faults.flap_capacity_lo = capacity;
    cfg.faults.flap_capacity_hi = capacity;
    return cfg;
}

TEST(TrainRunSim, LowerFlapCapacityDegradesMore)
{
    // The same flap stream (a fixed capacity still draws it) at less
    // and less of the link: each step a flap overlaps costs more. A
    // slower run lasts longer, so it meets at least as many flaps.
    const TrainRunReport base = TrainRunSim(flapOnlyConfig(1.0)).run();
    ASSERT_GT(base.faults.link_flaps, 0);
    EXPECT_EQ(base.degraded_seconds, 0.0);
    double prev_degraded = 0.0;
    for (double capacity : {0.6, 0.3, 0.15, 0.05}) {
        const TrainRunReport rep =
            TrainRunSim(flapOnlyConfig(capacity)).run();
        ASSERT_TRUE(rep.completed);
        EXPECT_GE(rep.faults.link_flaps, base.faults.link_flaps);
        EXPECT_EQ(rep.steps_committed, base.steps_committed);
        EXPECT_EQ(rep.restarts, 0);
        EXPECT_GT(rep.degraded_seconds, prev_degraded)
            << "capacity " << capacity;
        prev_degraded = rep.degraded_seconds;
    }
}

TEST(TrainRunSim, FlapsOnlyAddDegradedTime)
{
    // A flap slows the steps it overlaps and takes nothing else: the
    // flapped run's extra wall-clock time is exactly its degraded time.
    TrainRunConfig flap_free = flapOnlyConfig(1.0);
    flap_free.job.cluster.node.nic_flap_mtbf_hours = 0.0;
    const TrainRunReport base = TrainRunSim(flap_free).run();
    const TrainRunReport rep = TrainRunSim(flapOnlyConfig(0.3)).run();
    ASSERT_GT(rep.faults.link_flaps, 0);
    EXPECT_GT(rep.degraded_seconds, 0.0);
    EXPECT_EQ(rep.steps_committed, base.steps_committed);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_DOUBLE_EQ(rep.productive_seconds, base.productive_seconds);
    EXPECT_DOUBLE_EQ(rep.checkpoint_seconds, base.checkpoint_seconds);
    EXPECT_NEAR(rep.wall_seconds - base.wall_seconds, rep.degraded_seconds,
                1e-6 * rep.wall_seconds);
}

TEST(TrainRunSim, FlapsAtTheLowestPricedCapacityComplete)
{
    // 1e-6 of the link is the lowest capacity the clock prices: a step
    // a flap overlaps stretches a million-fold on its NIC-bound share,
    // and the run still finishes on a finite clock.
    TrainRunConfig cfg = flapOnlyConfig(1e-6);
    cfg.job.cluster.node.nic_flap_mtbf_hours = 2000.0;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_GT(rep.faults.link_flaps, 0);
    EXPECT_TRUE(rep.completed);
    EXPECT_TRUE(std::isfinite(rep.wall_seconds));
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
    EXPECT_GT(rep.degraded_seconds, rep.productive_seconds);
}

TEST(TrainRunSim, FlapsPriceACapacityLikeADisplacedRank)
{
    // A flap at 1/7 of the link and a rank displaced over the 7x
    // oversubscribed spine price the same capacity alike. Every step a
    // flap overlaps pays the displacement slowdown's extra time, so the
    // degraded time is a whole number of such steps.
    const TrainRunConfig cfg = flapOnlyConfig(1.0 / 7.0);
    ASSERT_EQ(cfg.job.cluster.spine_oversubscription, 7.0);
    const JobPricing pricing(cfg.job);
    const double extra_per_step = (pricing.displacementSlowdown() - 1.0) *
                                  pricing.baseStep().step_seconds;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_GT(rep.faults.link_flaps, 0);
    const double steps = rep.degraded_seconds / extra_per_step;
    EXPECT_GE(steps, 1.0);
    EXPECT_NEAR(steps, std::round(steps), 1e-6);
}

TEST(TrainRunSim, AClassPastTheClockRunsFaultFree)
{
    // A fatal MTBF scaled by 1e9 puts the class's gaps past the int64
    // nanosecond clock: it never fires, so the run is the fault-free run,
    // with no fault and no engine event.
    TrainRunConfig quiet = baseConfig();
    disableAllFaults(quiet);
    const TrainRunReport want = TrainRunSim(quiet).run();
    for (const std::uint64_t seed : {1, 2, 3, 42}) {
        TrainRunConfig cfg = quiet;
        cfg.seed = seed;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours =
            baseConfig().job.cluster.node.gpu.fatal_mtbf_hours * 1e9;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        EXPECT_EQ(rep.faults.total(), 0) << "seed " << seed;
        EXPECT_EQ(rep.engine_events, 0) << "seed " << seed;
        EXPECT_EQ(rep.wall_seconds, want.wall_seconds) << "seed " << seed;
    }
}

TEST(TrainRunSim, FaultFreeRunsTakeNoEngineEvent)
{
    // Only interrupts are engine events. Nothing interrupts a fault-free
    // run, so the call that starts it walks every segment, write, drain
    // and stall to the end, at any interval, in every checkpoint mode.
    for (const bool tiered : {false, true}) {
        for (const CheckpointMode mode :
             {CheckpointMode::Sync, CheckpointMode::Async}) {
            for (const std::int64_t interval : {1, 7, 100}) {
                TrainRunConfig cfg = wornFleetConfig();
                disableAllFaults(cfg);
                cfg.total_steps = 6000;
                cfg.checkpoint_interval_steps = interval;
                cfg.storage.hier.enabled = tiered;
                cfg.storage.hier.global_every = 4;
                cfg.storage.hier.nvme_every = 2;
                cfg.policy.checkpoint_mode = mode;
                const TrainRunReport rep = TrainRunSim(cfg).run();
                ASSERT_TRUE(rep.completed);
                EXPECT_EQ(rep.engine_events, 0)
                    << (tiered ? "tiered " : "") << toString(mode)
                    << " at interval " << interval;
            }
        }
    }
}

TEST(TrainRunSim, FaultFreeTieredRunWalksAboutThreePeriods)
{
    // A fault-free run is one quiet stretch of 750 boundaries, 47
    // periods of 16 at the default cadence. The walk records boundaries
    // until one is where the boundary a period before it was, then
    // replays to the last boundary the finish leaves room for, and
    // walks the rest: at most about three periods. A period walks a
    // segment and a tier write per boundary, plus a global save, or a
    // snapshot and the drain that cuts a segment in two.
    for (const CheckpointMode mode :
         {CheckpointMode::Sync, CheckpointMode::Async}) {
        TrainRunConfig cfg = wornFleetConfig();
        disableAllFaults(cfg);
        cfg.total_steps = 6000;
        cfg.checkpoint_interval_steps = 8;
        cfg.storage.hier.enabled = true;
        cfg.policy.checkpoint_mode = mode;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        ASSERT_TRUE(rep.completed);
        const std::int64_t per_period = 2 * 16 + 3;
        EXPECT_LE(rep.walked_work, 3 * per_period) << toString(mode);
    }
}

TEST(TrainRunSim, EngineEventsAreInterrupts)
{
    // Every engine event is an interrupt: a fault (one per timeline
    // entry, plus the one queued when the run ends), a flap expiry (one
    // per flap) or an outage end (one per recovery, rebalance pause,
    // regrow or migration; a regrow or a migration re-admits at least
    // one host). Straggler detections cost no event of their own.
    const TrainRunSim job(wornFleetConfig());
    Rng rng(20261019);
    for (int i = 0; i < 30; ++i) {
        const TrainRunConfig cfg = randomWornConfig(rng);
        const TrainRunReport rep = TrainRunSim(cfg, job).run();
        const std::int64_t outages =
            rep.restarts + rep.spare_swaps + rep.dp_shrinks +
            rep.rebalances + rep.dp_regrows + rep.placement_migrations;
        const auto timeline = static_cast<std::int64_t>(rep.timeline.size());
        EXPECT_LE(rep.engine_events,
                  timeline + rep.faults.link_flaps + outages + 1)
            << "config " << i << ": " << cfg.total_steps << " steps at "
            << cfg.checkpoint_interval_steps << " per checkpoint";
    }
}

/**
 * The tp8/pp16/dp16 candidate of the planner's worn full-grid test as
 * one run: 2,048 GPUs in four pods, fatal and host MTBF at 1/24 of the
 * calibrated rates, stragglers at 1/10, and repairs fast enough to
 * regrow. 240 sequences give 15 micro-batches per replica, so it can
 * shrink to 15 replicas.
 */
TrainRunConfig
wornCandidateConfig()
{
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(2048);
    cfg.job.cluster.nodes_per_pod = 64;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours /= 24.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours /= 10.0;
    cfg.job.cluster.node.host_mtbf_hours /= 24.0;
    cfg.job.par = ParallelismConfig{8, 1, 16, 16};
    cfg.job.global_batch_tokens = 240LL * 8192;
    cfg.total_steps = 1200;
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.repairs.gpu_repair_mean_hours = 0.5;
    cfg.repairs.host_repair_mean_hours = 1.0;
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.policy.allow_regrow = true;
    cfg.seed = 54;
    return cfg;
}

/** Run @p task(i) for every i < @p count on @p threads threads, each
 *  taking every threads-th index. */
template <typename Task>
void
runOnThreads(std::size_t threads, std::size_t count, const Task &task)
{
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&task, t, threads, count] {
            for (std::size_t i = t; i < count; i += threads)
                task(i);
        });
    }
    for (std::thread &thread : pool)
        thread.join();
}

/** Expect @p runs to reach straggler onsets, spare swaps and a DP
 *  shrink, so they read every lazily priced job-keyed value. */
void
expectEveryJobPriceUsed(const std::vector<TrainRunReport> &runs)
{
    std::int64_t onsets = 0;
    std::int64_t swaps = 0;
    std::int64_t shrinks = 0;
    for (const TrainRunReport &rep : runs) {
        onsets += rep.faults.stragglers;
        swaps += rep.spare_swaps;
        shrinks += rep.dp_shrinks;
    }
    EXPECT_GT(onsets, 0);
    EXPECT_GT(swaps, 0);
    EXPECT_GT(shrinks, 0);
}

TEST(TrainRunSimThreads, OneInstanceMatchesSerialRuns)
{
    // A const TrainRunSim is immutable: 16 intervals run on 4 threads
    // against one fresh instance, whose shared memos start cold, give
    // the serial reports bit for bit.
    const TrainRunConfig cfg = wornCandidateConfig();
    std::vector<std::int64_t> intervals;
    for (std::int64_t interval = 4; interval <= 64; interval += 4)
        intervals.push_back(interval);
    const TrainRunSim serial_sim(cfg);
    std::vector<TrainRunReport> serial;
    for (const std::int64_t interval : intervals)
        serial.push_back(serial_sim.runWithInterval(interval));
    expectEveryJobPriceUsed(serial);

    const TrainRunSim shared(cfg);
    std::vector<TrainRunReport> concurrent(intervals.size());
    runOnThreads(4, intervals.size(), [&](std::size_t i) {
        concurrent[i] = shared.runWithInterval(intervals[i]);
    });
    for (std::size_t i = 0; i < intervals.size(); ++i)
        EXPECT_TRUE(concurrent[i] == serial[i])
            << "interval " << intervals[i] << ": wall "
            << serial[i].wall_seconds << " s became "
            << concurrent[i].wall_seconds << " s";
}

TEST(TrainRunSimThreads, CellsSharingOneJobMatchSerialRuns)
{
    // A planner candidate's cells on 4 threads: every cell is built as
    // TrainRunSim(cfg, first), so they all price through one JobPricing
    // and miss on the same straggler sets and shrunk widths at once.
    std::vector<TrainRunConfig> cells;
    for (const std::int64_t spares : {0, 1, 8}) {
        for (const CheckpointMode mode :
             {CheckpointMode::Sync, CheckpointMode::Async}) {
            for (const bool tiered : {false, true}) {
                for (const bool correlated : {false, true}) {
                    TrainRunConfig cfg = wornCandidateConfig();
                    cfg.policy.spare_hosts = spares;
                    cfg.policy.checkpoint_mode = mode;
                    cfg.storage.hier.enabled = tiered;
                    cfg.storage.hier.global_every = 4;
                    cfg.storage.hier.nvme_every = 2;
                    cfg.policy.partial_restart = tiered;
                    cfg.faults.colocation.enabled = correlated;
                    cells.push_back(cfg);
                }
            }
        }
    }
    std::vector<TrainRunReport> serial;
    for (const TrainRunConfig &cfg : cells)
        serial.push_back(TrainRunSim(cfg).run());
    expectEveryJobPriceUsed(serial);

    const TrainRunSim first(cells.front());
    std::vector<TrainRunReport> concurrent(cells.size());
    runOnThreads(4, cells.size(), [&](std::size_t i) {
        concurrent[i] = TrainRunSim(cells[i], first).run();
    });
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_TRUE(concurrent[i] == serial[i])
            << "cell " << i << ": wall " << serial[i].wall_seconds
            << " s became " << concurrent[i].wall_seconds << " s";
}

TEST(TrainRunSim, SharedJobConstructorSharesOneJobPricing)
{
    // The shared-job constructor holds the same JobPricing, not a copy:
    // a candidate's cells price the job once between them.
    const TrainRunSim a(wornFleetConfig());
    TrainRunConfig cfg2 = wornFleetConfig();
    cfg2.policy = RecoveryPolicy::elastic(1);
    cfg2.seed = 7;
    const TrainRunSim b(cfg2, a);
    EXPECT_EQ(&b.baseStep(), &a.baseStep());
}

TEST(TrainRunSimDeathTest, AutoIntervalValidation)
{
    // An explicit interval alongside auto mode is a contradiction, not
    // a silent override.
    TrainRunConfig conflict = faultyConfig();
    conflict.checkpoint_interval_auto = true; // interval stays 40
    EXPECT_DEATH(conflict.validate(),
                 "conflicts with checkpoint_interval_auto");
    // Young–Daly is undefined without a fatal failure rate.
    TrainRunConfig no_faults = baseConfig();
    disableAllFaults(no_faults);
    no_faults.checkpoint_interval_steps = 0;
    no_faults.checkpoint_interval_auto = true;
    EXPECT_DEATH(TrainRunSim{no_faults}, "fatal failure class");
}

TEST(TrainRunSimDeathTest, SharedJobConstructorRejectsADifferentJob)
{
    const TrainRunSim job(wornFleetConfig());
    TrainRunConfig other = wornFleetConfig();
    other.job.seq = 4096;
    EXPECT_DEATH(TrainRunSim(other, job), "same job");
}

TEST(TrainRunSimDeathTest, RejectsLinkCapacitiesTheClockCannotPrice)
{
    // A 1-second transfer stretched to 1/capacity seconds must fit the
    // nanosecond clock: a flap at 1e-10 of the link and a spine at 1e7x
    // oversubscription both abort instead of overflowing it.
    TrainRunConfig flaps = baseConfig();
    disableAllFaults(flaps);
    flaps.job.cluster.node.nic_flap_mtbf_hours = 1000.0;
    flaps.faults.flap_capacity_lo = 1e-10;
    flaps.faults.flap_capacity_hi = 1e-10;
    EXPECT_DEATH((void)TrainRunSim(flaps).run(),
                 "link capacity factor must be in");
    TrainJobConfig job;
    job.cluster.spine_oversubscription = 1e7;
    EXPECT_DEATH(JobPricing{job}, "link capacity factor must be in");
}

TEST(TrainRunSimDeathTest, RejectsSpinesJustPastTheLowestPricedCapacity)
{
    // 1e6x oversubscription is priced; a hair more is not.
    TrainJobConfig job;
    job.cluster.spine_oversubscription = 1.000001e6;
    EXPECT_DEATH(JobPricing{job}, "link capacity factor must be in");
}

TEST(TrainRunSimDeathTest, RejectsBadConfigs)
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 0;
    EXPECT_DEATH(TrainRunSim{cfg}, "at least one step");
    TrainRunConfig bad_interval = baseConfig();
    bad_interval.checkpoint_interval_steps = 0;
    EXPECT_DEATH(TrainRunSim{bad_interval}, "interval");
    TrainRunConfig cfg2 = baseConfig();
    const TrainRunSim sim(cfg2);
    EXPECT_DEATH(sim.runWithInterval(-1), "interval");
}

TEST(TrainRunSimDeathTest, ValidateRejectsBadPolicies)
{
    // TrainRunConfig::validate() is the single entry gate: policy
    // inconsistencies die before any simulation starts.
    TrainRunConfig pool = baseConfig();
    pool.policy.mode = RecoveryMode::WarmSpare;
    pool.policy.spare_hosts = pool.job.cluster.num_nodes + 1;
    EXPECT_DEATH(pool.validate(), "exceeds");
    EXPECT_DEATH(TrainRunSim{pool}, "exceeds");
    TrainRunConfig orphan_spares = baseConfig();
    orphan_spares.policy.spare_hosts = 4; // mode stays FullRestart
    EXPECT_DEATH(TrainRunSim{orphan_spares}, "warm-spare");
    TrainRunConfig bad_detection = baseConfig();
    bad_detection.detection.fast_fail_seconds = -1.0;
    EXPECT_DEATH(bad_detection.validate(), "non-negative");
    TrainRunConfig bad_storage = baseConfig();
    bad_storage.storage.async.snapshot_gbps_per_gpu = 0.0;
    EXPECT_DEATH(bad_storage.validate(), "snapshot bandwidth");
    TrainRunConfig bad_restart = baseConfig();
    bad_restart.restart.warmup_slowdown = 0.5;
    EXPECT_DEATH(bad_restart.validate(), "restart");
    // Hierarchical-tier knobs are gated by the same entry point.
    TrainRunConfig partial_without_hier = baseConfig();
    partial_without_hier.policy = RecoveryPolicy::elastic(2);
    partial_without_hier.policy.partial_restart = true;
    EXPECT_DEATH(partial_without_hier.validate(), "hier.enabled");
    TrainRunConfig bad_hier = baseConfig();
    bad_hier.storage.hier.nvme_write_gbps_per_host = 0.0;
    EXPECT_DEATH(bad_hier.validate(), "NVMe tier bandwidth");
    TrainRunConfig bad_cadence = baseConfig();
    bad_cadence.storage.hier.global_every = 0;
    EXPECT_DEATH(bad_cadence.validate(), "global cadence");
}

} // namespace
} // namespace llm4d
