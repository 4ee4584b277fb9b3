#include "llm4d/plan/goodput_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ios>
#include <optional>
#include <type_traits>
#include <vector>

namespace llm4d {
namespace {

/** A 2048-GPU problem small enough to sweep quickly in tests. */
GoodputPlanInput
smallInput()
{
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(2048);
    in.base.global_batch_tokens = 2LL * 1024 * 1024;
    in.top_k = 3;
    in.horizon_steps = 1200;
    // Pin the tier axes off: the legacy-grid tests assert exact sweep
    // shapes; the dedicated tier-axis tests below opt back in.
    in.hier_global_every_options = {0};
    in.partial_restart_options = {false};
    return in;
}

/**
 * A worn 2,048-GPU question with every sweep axis open: fatal and host
 * MTBF at 1/24 of the calibrated rates, stragglers at 1/10, pools of 0,
 * 1 and 8 spares in every placement over four pods, and repairs fast
 * enough to refill, regrow and migrate within the horizon.
 */
GoodputPlanInput
wornFullGridInput()
{
    GoodputPlanInput in = smallInput();
    GpuSpec &gpu = in.base.cluster.node.gpu;
    gpu.fatal_mtbf_hours /= 24.0;
    gpu.straggler_mtbf_hours /= 10.0;
    in.base.cluster.node.host_mtbf_hours /= 24.0;
    in.base.cluster.nodes_per_pod = 64;
    // One candidate, tp8/pp16/dp16 over 240 sequences: 15 micro-batches
    // per replica, so it can shrink to 15 replicas within pp.
    in.base.global_batch_tokens = 240LL * 8192;
    in.base.tp_options = {8};
    in.base.cp_options = {1};
    in.base.pp_options = {16};
    in.top_k = 1;
    in.repairs.gpu_repair_mean_hours = 0.5;
    in.repairs.host_repair_mean_hours = 1.0;
    in.spare_pool_options = {0, 1, 8};
    in.hier_global_every_options = {0, 4};
    in.partial_restart_options = {false, true};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve,
                            SparePlacementPolicy::Adaptive};
    in.straggler_correlation_options = {false, true};
    in.placement_migration = true;
    return in;
}

/** The TrainRunConfig of one sweep cell, built apart from the planner. */
TrainRunConfig
cellConfig(const GoodputPlanInput &in, const PlanCandidate &cand,
           const GoodputSweepPoint &pt)
{
    TrainRunConfig cfg;
    cfg.job.model = in.base.model;
    cfg.job.cluster = in.base.cluster;
    cfg.job.par = cand.par;
    cfg.job.zero = cand.zero;
    cfg.job.schedule = cand.schedule;
    cfg.job.seq = in.base.seq;
    cfg.job.global_batch_tokens = in.base.global_batch_tokens;
    cfg.total_steps = in.horizon_steps;
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.faults = in.faults;
    cfg.faults.colocation.enabled = pt.straggler_correlation;
    cfg.repairs = in.repairs;
    cfg.storage = in.storage;
    cfg.storage.hier.enabled = pt.hier_global_every > 0;
    if (pt.hier_global_every > 0) {
        cfg.storage.hier.global_every = pt.hier_global_every;
        cfg.storage.hier.nvme_every =
            std::min(in.storage.hier.nvme_every, pt.hier_global_every);
    }
    cfg.detection = in.detection;
    cfg.restart = in.restart;
    cfg.policy = pt.policy;
    cfg.seed = in.fault_seed;
    return cfg;
}

/** Cells of @p ranked that simulated their own run. */
std::int64_t
simulatedRuns(const std::vector<GoodputPlanCandidate> &ranked)
{
    std::int64_t runs = 0;
    for (const GoodputPlanCandidate &cand : ranked) {
        for (const GoodputSweepPoint &pt : cand.sweep)
            runs += !pt.reuses_cell;
    }
    return runs;
}

bool
sameRanking(const std::vector<GoodputPlanCandidate> &a,
            const std::vector<GoodputPlanCandidate> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].analytic.par == b[i].analytic.par) ||
            a[i].analytic.zero != b[i].analytic.zero ||
            a[i].analytic.schedule != b[i].analytic.schedule ||
            a[i].goodput_tflops_per_gpu != b[i].goodput_tflops_per_gpu ||
            a[i].best_point != b[i].best_point)
            return false;
    }
    return true;
}

TEST(GoodputPlanner, SweepPoliciesCoverTheCrossProduct)
{
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0, 4};
    in.checkpoint_mode_options = {CheckpointMode::Sync,
                                  CheckpointMode::Async};
    in.dp_shrink_options = {false, true};
    in.regrow_options = {false, true};
    in.partial_restart_options = {false, true};
    const std::vector<RecoveryPolicy> grid = in.sweepPolicies();
    // 2x2x2 base combinations; the six elastic ones are quadrupled by
    // the regrow and partial axes, the two full-restart baselines (no
    // spares, no shrink) collapse both axes: 6*4 + 2.
    EXPECT_EQ(grid.size(), 26u);
    std::int64_t regrow_cells = 0;
    std::int64_t partial_cells = 0;
    for (const RecoveryPolicy &p : grid) {
        // WarmSpare exactly when the elastic paths have something to do.
        const bool elastic = p.spare_hosts > 0 || p.allow_dp_shrink;
        EXPECT_EQ(p.mode, elastic ? RecoveryMode::WarmSpare
                                  : RecoveryMode::FullRestart);
        EXPECT_EQ(p.straggler_rebalance, in.straggler_rebalance);
        if (p.allow_regrow) {
            ++regrow_cells;
            EXPECT_TRUE(elastic)
                << "regrow-on cells need a pool or a shrink to undo";
        }
        if (p.partial_restart) {
            ++partial_cells;
            EXPECT_TRUE(elastic)
                << "partial-restart cells need a live recovery path";
        }
    }
    EXPECT_EQ(regrow_cells, 12);
    EXPECT_EQ(partial_cells, 12);
}

TEST(GoodputPlanner, RegrowAxisCollapsesOnTheFullRestartBaseline)
{
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0};
    in.dp_shrink_options = {false};
    in.checkpoint_mode_options = {CheckpointMode::Sync};
    in.regrow_options = {false, true};
    // Nothing for regrow to do: the axis must not duplicate the cell —
    // and the partial-restart axis collapses on the same baseline.
    EXPECT_EQ(in.sweepPolicies().size(), 1u);
    in.partial_restart_options = {false, true};
    EXPECT_EQ(in.sweepPolicies().size(), 1u);
}

TEST(GoodputPlanner, TierAxesSweepOnlyWhereTheyApply)
{
    // Trimmed grid isolating the two new axes: one elastic pool, async
    // snapshots. Two policies (partial on/off) x two tier cadences
    // (global-only, every-16th), minus the invalid partial-without-tiers
    // combination: three cells per candidate with a DP peer.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {2};
    in.checkpoint_mode_options = {CheckpointMode::Async};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.hier_global_every_options = {0, 16};
    in.partial_restart_options = {false, true};
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        const bool has_peer =
            cand.analytic.par.dp * cand.analytic.par.cp >= 2;
        ASSERT_EQ(cand.sweep.size(), has_peer ? 3u : 1u)
            << cand.analytic.par.str();
        std::int64_t tiered = 0;
        std::int64_t partial = 0;
        for (const GoodputSweepPoint &pt : cand.sweep) {
            EXPECT_TRUE(pt.hier_global_every == 0 ||
                        pt.hier_global_every == 16);
            if (pt.policy.partial_restart) {
                ++partial;
                // Partial restart only rides on tiered cells.
                EXPECT_GT(pt.hier_global_every, 0);
            }
            if (pt.hier_global_every > 0) {
                ++tiered;
                EXPECT_TRUE(has_peer);
            }
            EXPECT_TRUE(pt.report.completed);
            EXPECT_GT(pt.checkpoint_interval_steps, 0);
        }
        if (has_peer) {
            EXPECT_EQ(tiered, 2);
            EXPECT_EQ(partial, 1);
        }
    }
}

TEST(GoodputPlanner, PlacementAxisSweepsOnlyWherePoolsExist)
{
    // The placement axis multiplies only the cells that actually have a
    // spare pool: a spare-less baseline has nothing to place.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0, 4};
    in.checkpoint_mode_options = {CheckpointMode::Sync};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.placement_migration = true;
    const std::vector<RecoveryPolicy> grid = in.sweepPolicies();
    // spares=0 collapses to the one CentralPool baseline; spares=4
    // sweeps both placements: 1 + 2.
    ASSERT_EQ(grid.size(), 3u);
    std::int64_t per_pod_cells = 0;
    for (const RecoveryPolicy &p : grid) {
        if (p.spare_placement == SparePlacementPolicy::PerPodReserve) {
            ++per_pod_cells;
            EXPECT_GT(p.spare_hosts, 0);
        }
        // Migration rides only on the elastic (warm-spare) cells.
        EXPECT_EQ(p.placement_migration,
                  p.mode == RecoveryMode::WarmSpare);
        p.validate(in.base.cluster);
    }
    EXPECT_EQ(per_pod_cells, 1);
    // The default single-option axis leaves the legacy grid untouched.
    GoodputPlanInput legacy = smallInput();
    for (const RecoveryPolicy &p : legacy.sweepPolicies()) {
        EXPECT_EQ(p.spare_placement, SparePlacementPolicy::CentralPool);
        EXPECT_FALSE(p.placement_migration);
    }
}

TEST(GoodputPlanner, PerPodReservesWinAWornFleetCellAt16K)
{
    // Acceptance criterion: on a worn 16K fleet (MTBF at a third of the
    // paper's nominal rates) with placement priced, the planner's
    // placement sweep produces a CRN-deterministic ranking in which the
    // per-pod reserve strictly beats the central pool in at least one
    // cell — spreading the spares converts every swap from a
    // spine-priced displacement into a pod-local splice.
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(16384);
    in.base.cluster.node.gpu.fatal_mtbf_hours /= 3.0;
    in.base.cluster.node.host_mtbf_hours /= 3.0;
    in.top_k = 2;
    in.horizon_steps = 3000;
    in.spare_pool_options = {6}; // one per pod when spread
    in.checkpoint_mode_options = {CheckpointMode::Async};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.hier_global_every_options = {0};
    in.partial_restart_options = {false};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.placement_migration = true;
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    EXPECT_TRUE(sameRanking(ranked, planGoodput(in)));
    bool saw_swaps = false;
    bool per_pod_won = false;
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_EQ(cand.sweep.size(), 2u) << cand.analytic.par.str();
        const GoodputSweepPoint *central = nullptr;
        const GoodputSweepPoint *spread = nullptr;
        for (const GoodputSweepPoint &pt : cand.sweep) {
            if (pt.policy.spare_placement ==
                SparePlacementPolicy::PerPodReserve)
                spread = &pt;
            else
                central = &pt;
        }
        ASSERT_NE(central, nullptr);
        ASSERT_NE(spread, nullptr);
        if (central->report.spare_swaps == 0)
            continue;
        saw_swaps = true;
        // Central-pool spares always live out-of-pod; spread reserves
        // serve at least their first claim per pod locally.
        EXPECT_EQ(central->report.cross_pod_swaps,
                  central->report.spare_swaps)
            << cand.analytic.par.str();
        EXPECT_LT(spread->report.cross_pod_swaps,
                  spread->report.spare_swaps)
            << cand.analytic.par.str();
        if (spread->goodput_tflops_per_gpu >
            central->goodput_tflops_per_gpu)
            per_pod_won = true;
    }
    ASSERT_TRUE(saw_swaps)
        << "worn fleet never consumed a spare within the horizon";
    EXPECT_TRUE(per_pod_won)
        << "per-pod reserves never beat the central pool in any cell";
}

TEST(GoodputPlanner, SameSeedAndSweepGiveIdenticalRanking)
{
    // Common random numbers: re-running the identical input must
    // reproduce the ranking exactly (values, order, and best cells).
    const GoodputPlanInput in = smallInput();
    const auto first = planGoodput(in);
    const auto second = planGoodput(in);
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(sameRanking(first, second));
}

TEST(GoodputPlanner, RankingInvariantToCandidateEvaluationOrder)
{
    // Reversing the analytic axis enumeration must not change the
    // ranked outcome: survivors are re-sorted under a total order
    // before selection and after scoring.
    const GoodputPlanInput forward = smallInput();
    GoodputPlanInput backward = forward;
    std::reverse(backward.base.tp_options.begin(),
                 backward.base.tp_options.end());
    std::reverse(backward.base.cp_options.begin(),
                 backward.base.cp_options.end());
    std::reverse(backward.base.pp_options.begin(),
                 backward.base.pp_options.end());
    const auto a = planGoodput(forward);
    const auto b = planGoodput(backward);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(sameRanking(a, b));
}

TEST(GoodputPlanner, GoodputWinnerAtLeastMatchesAnalyticWinner)
{
    // The acceptance property: under the same fault seed, the goodput
    // winner's simulated goodput must be >= the fault-free TFLOPs
    // winner's, because the analytic pick always competes in stage 2.
    const GoodputPlanInput in = smallInput();
    const std::optional<PlanCandidate> analytic = tryBestPlan(in.base);
    ASSERT_TRUE(analytic.has_value());
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());

    const auto analytic_scored = std::find_if(
        ranked.begin(), ranked.end(),
        [&](const GoodputPlanCandidate &c) {
            return c.analytic.par == analytic->par &&
                   c.analytic.zero == analytic->zero &&
                   c.analytic.schedule == analytic->schedule;
        });
    ASSERT_NE(analytic_scored, ranked.end())
        << "the analytic preferred plan must always be simulated";
    EXPECT_GE(ranked.front().goodput_tflops_per_gpu,
              analytic_scored->goodput_tflops_per_gpu);
}

TEST(GoodputPlanner, EveryCellReportsACompletedRun)
{
    const auto ranked = planGoodput(smallInput());
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_FALSE(cand.sweep.empty());
        ASSERT_LT(cand.best_point, cand.sweep.size());
        EXPECT_EQ(cand.goodput_tflops_per_gpu,
                  cand.best().goodput_tflops_per_gpu);
        for (const GoodputSweepPoint &pt : cand.sweep) {
            EXPECT_TRUE(pt.report.completed);
            EXPECT_GT(pt.checkpoint_interval_steps, 0);
            EXPECT_GT(pt.goodput_tflops_per_gpu, 0.0);
        }
    }
}

TEST(GoodputPlanner, IdleSparesAreChargedAsProvisionedCapacity)
{
    const GoodputPlanInput in = smallInput();
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    const double gpus_per_host =
        static_cast<double>(in.base.cluster.node.gpus_per_node);
    bool saw_spares = false;
    for (const GoodputPlanCandidate &cand : ranked) {
        const double world =
            static_cast<double>(cand.analytic.par.worldSize());
        for (const GoodputSweepPoint &pt : cand.sweep) {
            const double provisioned =
                world + static_cast<double>(pt.policy.spare_hosts) *
                            gpus_per_host;
            EXPECT_NEAR(pt.goodput_tflops_per_gpu,
                        pt.report.goodput_tflops_per_gpu * world /
                            provisioned,
                        1e-12);
            saw_spares |= pt.policy.spare_hosts > 0;
        }
    }
    EXPECT_TRUE(saw_spares) << "default sweep must include a spare pool";
}

TEST(GoodputPlanner, AsyncCellsContractTheYoungDalyInterval)
{
    // Under async checkpointing only the snapshot blocks the step, so
    // the auto-tuned interval must be strictly shorter than the sync
    // cell's for the same candidate.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0};
    in.dp_shrink_options = {false};
    in.checkpoint_mode_options = {CheckpointMode::Sync,
                                  CheckpointMode::Async};
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_EQ(cand.sweep.size(), 2u);
        const auto &sync_pt =
            cand.sweep[cand.sweep[0].policy.checkpoint_mode ==
                               CheckpointMode::Sync
                           ? 0
                           : 1];
        const auto &async_pt =
            cand.sweep[cand.sweep[0].policy.checkpoint_mode ==
                               CheckpointMode::Sync
                           ? 1
                           : 0];
        EXPECT_LT(async_pt.checkpoint_interval_steps,
                  sync_pt.checkpoint_interval_steps)
            << cand.analytic.par.str();
    }
}

TEST(GoodputPlanner, EveryCellEqualsAFreshRunOfItsConfig)
{
    // The oracle for run sharing: whether a cell simulated its run or
    // reused an earlier cell's, its report and interval are what a
    // fresh simulator of the cell's own config gives, bit for bit.
    const GoodputPlanInput in = wornFullGridInput();
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    std::int64_t cells = 0;
    std::int64_t swapped = 0;
    std::int64_t shrunk = 0;
    std::int64_t regrown = 0;
    std::int64_t migrated = 0;
    for (const GoodputPlanCandidate &cand : ranked) {
        for (std::size_t i = 0; i < cand.sweep.size(); ++i) {
            const GoodputSweepPoint &pt = cand.sweep[i];
            ++cells;
            if (pt.reuses_cell) {
                ASSERT_LT(*pt.reuses_cell, i);
                EXPECT_FALSE(cand.sweep[*pt.reuses_cell].reuses_cell);
            }
            const TrainRunSim fresh(cellConfig(in, cand.analytic, pt));
            EXPECT_EQ(pt.checkpoint_interval_steps,
                      fresh.checkpointIntervalSteps());
            const TrainRunReport rep = fresh.run();
            EXPECT_TRUE(pt.report == rep)
                << cand.analytic.par.str() << " cell " << i << ": wall "
                << pt.report.wall_seconds << " s, fresh " << rep.wall_seconds
                << " s";
            swapped += rep.spare_swaps > 0;
            shrunk += rep.dp_shrinks > 0;
            regrown += rep.dp_regrows > 0;
            migrated += rep.placement_migrations > 0;
        }
    }
    // The grid reaches every recovery path, and shares runs.
    EXPECT_GT(swapped, 0);
    EXPECT_GT(shrunk, 0);
    EXPECT_GT(regrown, 0);
    EXPECT_GT(migrated, 0);
    EXPECT_LT(simulatedRuns(ranked), cells);
}

TEST(GoodputPlanner, SmallInputSimulatesEachDistinctRunOnce)
{
    // 4 candidates x 14 policy cells. At nominal failure rates no fatal
    // fault lands within the 1,200-step horizon, so no run reads a
    // swept knob: each candidate simulates one sync and one async run.
    const auto ranked = planGoodput(smallInput());
    std::int64_t cells = 0;
    for (const GoodputPlanCandidate &cand : ranked)
        cells += static_cast<std::int64_t>(cand.sweep.size());
    EXPECT_EQ(cells, 56);
    EXPECT_EQ(simulatedRuns(ranked), 8);
}

/** 64-bit FNV-1a over the little-endian bytes of each value added. */
class Fnv1a
{
  public:
    void add(std::uint64_t bits)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    template <typename E>
        requires std::is_enum_v<E>
    void add(E v)
    {
        add(static_cast<std::int64_t>(v));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Every cell of every ranked candidate, in sweep order: the cell's
 *  policy, tier cadence, correlation flag, shared run, interval and
 *  goodput bits, then the candidate's best cell and goodput. */
std::uint64_t
digest(const std::vector<GoodputPlanCandidate> &ranked)
{
    Fnv1a h;
    for (const GoodputPlanCandidate &cand : ranked) {
        h.add(cand.analytic.par.tp);
        h.add(cand.analytic.par.cp);
        h.add(cand.analytic.par.pp);
        h.add(cand.analytic.par.dp);
        h.add(cand.analytic.zero);
        h.add(cand.analytic.schedule);
        for (const GoodputSweepPoint &pt : cand.sweep) {
            const RecoveryPolicy &p = pt.policy;
            h.add(p.mode);
            h.add(p.spare_hosts);
            h.add(p.spare_placement);
            h.add(p.placement_migration);
            h.add(p.spare_activation_seconds);
            h.add(p.swap_reinit_seconds);
            h.add(p.allow_dp_shrink);
            h.add(p.allow_regrow);
            h.add(p.checkpoint_mode);
            h.add(p.partial_restart);
            h.add(p.straggler_rebalance);
            h.add(p.rebalance_seconds);
            h.add(p.rebalance_max_residual);
            h.add(pt.hier_global_every);
            h.add(pt.straggler_correlation);
            h.add(pt.reuses_cell
                      ? static_cast<std::int64_t>(*pt.reuses_cell)
                      : std::int64_t{-1});
            h.add(pt.checkpoint_interval_steps);
            h.add(pt.report.goodput_tflops_per_gpu);
            h.add(pt.goodput_tflops_per_gpu);
        }
        h.add(static_cast<std::int64_t>(cand.best_point));
        h.add(cand.goodput_tflops_per_gpu);
    }
    return h.value();
}

/** Pins @p in's ranking: candidate and cell counts, and the digest. */
void
expectPinned(const GoodputPlanInput &in, std::size_t candidates,
             std::size_t cells, std::uint64_t pinned)
{
    const std::vector<GoodputPlanCandidate> ranked = planGoodput(in);
    std::size_t swept = 0;
    for (const GoodputPlanCandidate &cand : ranked)
        swept += cand.sweep.size();
    EXPECT_EQ(ranked.size(), candidates);
    EXPECT_EQ(swept, cells);
    const std::uint64_t got = digest(ranked);
    EXPECT_EQ(got, pinned) << std::hex << "digest 0x" << got
                           << ", pinned 0x" << pinned;
}

// The grid's cells, their order and their results, pinned bit for bit:
// ties for best_point break by sweep order, so moving one cell can move
// a ranking without changing any cell's report.

TEST(GoodputPlannerGolden, WornFullGrid)
{
    expectPinned(wornFullGridInput(), 1, 320, 0x14e06db137b85532ULL);
}

TEST(GoodputPlannerGolden, PlanSweepShapedQuestionAt2K)
{
    // plan_sweep's 2K question: 1024 tokens per GPU, the default grid
    // and horizon.
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(2048);
    in.base.global_batch_tokens = 2048LL * 1024;
    expectPinned(in, 5, 200, 0x5912d78903f337fbULL);
}

TEST(GoodputPlanner, PlanSweepShapedQuestionAt2KTakesFewEngineEvents)
{
    // The golden question above simulates 20 runs that meet 20 fatal
    // faults between them. Only interrupts are engine events: the
    // faults, their outages' ends, and the fault each run leaves queued
    // when it ends. Steps, checkpoint writes and drains take none (they
    // took 5,300 events as one per segment, write and drain).
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(2048);
    in.base.global_batch_tokens = 2048LL * 1024;
    const std::vector<GoodputPlanCandidate> ranked = planGoodput(in);
    std::int64_t events = 0;
    for (const GoodputPlanCandidate &cand : ranked) {
        for (const GoodputSweepPoint &pt : cand.sweep) {
            if (!pt.reuses_cell)
                events += pt.report.engine_events;
        }
    }
    EXPECT_EQ(simulatedRuns(ranked), 20);
    EXPECT_LE(events, 60);
}

TEST(GoodputPlannerGolden, CandidatesWithAndWithoutADpPeer)
{
    // A 70B model on 64 GPUs: tp8/pp4/dp2 candidates sweep all 40 cells
    // of the default grid, tp8/pp8/dp1 ones only the 14 global-only
    // cells (no DP peer to mirror a tier to). Fatal and host faults at
    // 1/200 of the calibrated MTBF make the runs differ.
    GoodputPlanInput in;
    in.base.model = ModelConfig::llama3_70b();
    in.base.cluster = ClusterSpec::llama3Production(64);
    in.base.cluster.node.gpu.fatal_mtbf_hours /= 200.0;
    in.base.cluster.node.host_mtbf_hours /= 200.0;
    in.base.global_batch_tokens = 16LL * 8192;
    in.base.tp_options = {8};
    in.base.cp_options = {1};
    in.base.pp_options = {4, 8};
    in.spare_pool_options = {0, 1};
    expectPinned(in, 4, 108, 0x4722d64b60e25f24ULL);
}

TEST(GoodputPlanner, TryBestReturnsNulloptWhenNothingFits)
{
    GoodputPlanInput in = smallInput();
    in.base.tp_options = {5}; // divides neither cluster nor heads
    in.base.cp_options = {1};
    in.base.pp_options = {1};
    EXPECT_FALSE(tryBestGoodputPlan(in).has_value());
}

TEST(GoodputPlanner, ValidateRejectsInsaneSweeps)
{
    {
        GoodputPlanInput in = smallInput();
        in.top_k = 0;
        EXPECT_DEATH(planGoodput(in), "at least one survivor");
    }
    {
        GoodputPlanInput in = smallInput();
        in.horizon_steps = 0;
        EXPECT_DEATH(planGoodput(in), "horizon must be positive");
    }
    {
        GoodputPlanInput in = smallInput();
        in.checkpoint_mode_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.regrow_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.spare_pool_options = {-1};
        EXPECT_DEATH(planGoodput(in), "cannot be negative");
    }
    {
        GoodputPlanInput in = smallInput();
        in.hier_global_every_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.partial_restart_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.hier_global_every_options = {-4};
        EXPECT_DEATH(planGoodput(in), "global cadence");
    }
    {
        GoodputPlanInput in = smallInput();
        in.placement_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.base.cluster.node.gpu.fatal_mtbf_hours = 0.0;
        in.base.cluster.node.host_mtbf_hours = 0.0;
        EXPECT_DEATH(planGoodput(in), "fatal failure class");
    }
}

} // namespace
} // namespace llm4d
