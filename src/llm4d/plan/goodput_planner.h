#ifndef LLM4D_PLAN_GOODPUT_PLANNER_H_
#define LLM4D_PLAN_GOODPUT_PLANNER_H_

/**
 * @file
 * Goodput-aware planner: rank parallelism plans by what they deliver
 * under failures, not by fault-free step time alone.
 *
 * The Section-5 analytic planner (plan/planner.h) optimizes fault-free
 * TFLOPs/GPU, but at 16K GPUs production behavior is dominated by
 * everything around the steps — restarts, spare swaps, DP-shrinks,
 * checkpoint overhead (paper Section 8; MegaScale arXiv:2402.15627). A
 * plan that wins on bubble ratio can lose on goodput once its restart
 * blast radius and checkpoint footprint are charged; the 4D-parallelism
 * planning line (arXiv:2411.06465) stops at memory/step-time
 * feasibility, so this ranking is where the two diverge.
 *
 * Two stages:
 *  1. enumeratePlans() prunes the search space analytically and keeps
 *     the top-K feasible candidates by estimated step time (always
 *     including the analytic planner's preferred pick);
 *  2. each survivor is run through TrainRunSim under a fixed fault seed
 *     — common random numbers, so every candidate faces the identical
 *     exogenous failure timeline — once per point of a recovery-policy
 *     sweep: sync vs. async checkpointing, warm-spare pool sizes from
 *     spare_pool_options (idle spares cost capacity in the goodput
 *     denominator but shrink MTTR), DP-shrink on/off, repair-aware
 *     regrow on/off (re-admit repaired hosts at checkpoint boundaries),
 *     hierarchical checkpoint-tier cadence (global-only vs. HBM/NVMe
 *     tiers with a global write every Nth boundary), partial restart
 *     on/off, and spare placement (central pool vs. per-pod reserves,
 *     optionally with displaced-rank migration). Checkpoint intervals
 *     are Young–Daly auto-tuned per point so a policy flip cannot
 *     desynchronize them. Each distinct outcome is simulated once: a
 *     candidate prices its fault-free step, its straggler sets and its
 *     shrunk steps once for all its cells (one shared JobPricing), and
 *     a cell that differs from an earlier simulated cell only in knobs
 *     that run never read reuses its report (GoodputSweepPoint::
 *     reuses_cell).
 *
 * Candidates are ranked by their best sweep point's goodput TFLOPs per
 * *provisioned* GPU (training world + idle spares); each candidate
 * retains its full sweep with per-point lost-time breakdowns, so "why
 * did tp8/pp16 lose to tp8/cp2/pp8" is answerable from the output.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "llm4d/fault/fault_model.h"
#include "llm4d/fault/recovery_policy.h"
#include "llm4d/plan/planner.h"
#include "llm4d/sim/train_run_sim.h"

namespace llm4d {

/** Inputs of a goodput-aware planning run. */
struct GoodputPlanInput
{
    /** The analytic search space (model, cluster, batch, axis options). */
    PlanInput base;

    /** Analytic survivors simulated in stage 2 (top-K by est. step
     *  time; the analytic preferred plan is always kept). */
    std::int64_t top_k = 4;

    /** Steps simulated per {candidate, policy} cell. Longer horizons
     *  see more faults and price recovery more sharply. */
    std::int64_t horizon_steps = 6000;

    /** Fault-timeline seed, shared by every simulation (CRN: the
     *  failure process is exogenous, so rankings compare policies and
     *  plans against the identical timeline). */
    std::uint64_t fault_seed = 54;

    /** Fault severity/duration tuning shared by every cell. */
    FaultTuning faults;

    /** Repair-shop MTTR tuning shared by every cell (the repair
     *  timeline is exogenous like the fault timeline). */
    RepairTuning repairs;

    /** Checkpoint filesystem + async-snapshot characteristics. */
    CheckpointStorage storage;

    /** Failure detection/localization latencies. */
    DetectionConfig detection;

    /** Full-restart re-init and warmup costs. */
    RestartConfig restart;

    // ---- Recovery-policy sweep axes. ----
    // The grid crosses them in the order declared here, the first
    // outermost and each in its option order: the six policy axes, then
    // each cell's tier cadence and straggler correlation. It then drops
    // the cells its five rules (goodput_planner.cc, cellApplies) do not
    // apply to: a knob swept where it has nothing to act on, or a cell
    // the models would refuse to build. Each axis names its rules.

    /** Warm-spare pool sizes, in hosts. Spares shrink MTTR (a ~80 s
     *  swap instead of a 180 s scheduler round-trip) but idle capacity
     *  is charged in the goodput denominator. */
    std::vector<std::int64_t> spare_pool_options = {0, 8};

    /** Sync sharded saves vs. async snapshot-then-drain. */
    std::vector<CheckpointMode> checkpoint_mode_options = {
        CheckpointMode::Sync, CheckpointMode::Async};

    /** Whether to DP-shrink when the spare pool is dry. */
    std::vector<bool> dp_shrink_options = {false, true};

    /**
     * Whether to re-admit repaired hosts at checkpoint boundaries
     * (refill the spare pool, regrow a shrunk DP dimension). Rule 1.
     */
    std::vector<bool> regrow_options = {false, true};

    /** Partial-restart on/off axis (RecoveryPolicy::partial_restart).
     *  Rules 1 and 3. */
    std::vector<bool> partial_restart_options = {false, true};

    /** Spare-placement axis (fault/spare_placement.h): where the warm
     *  spares physically live. Rule 2. */
    std::vector<SparePlacementPolicy> placement_options = {
        SparePlacementPolicy::CentralPool};

    /**
     * Hierarchical checkpoint-tier cadence axis: a global (PFS)
     * checkpoint every Nth boundary with HBM peer mirrors at every
     * boundary in between (CheckpointStorage::hier). 0 disables the
     * tiers (the global-only baseline). Rules 3 and 4.
     */
    std::vector<std::int64_t> hier_global_every_options = {0, 16};

    /**
     * Straggler co-location axis (FaultTuning::colocation, the pod-heat
     * model): independent Poisson straggler onsets vs pod-correlated
     * arrivals with heat-worsened severities — the planner stress-tested
     * against worst-case co-location. Rule 5.
     */
    std::vector<bool> straggler_correlation_options = {false};

    /**
     * Price spare swaps over the actual victim-to-spare path and
     * migrate displaced ranks home at durable checkpoint boundaries
     * (RecoveryPolicy::placement_migration). Applied to every elastic
     * cell; the full-restart baseline never swaps, so it is unaffected.
     */
    bool placement_migration = false;

    /** Mitigate localized stragglers by micro-batch rebalancing. */
    bool straggler_rebalance = true;

    /** The policies the grid sweeps: the policy axes crossed and
     *  filtered by the rules a policy alone decides (1-2), in grid
     *  order. mode is WarmSpare exactly when spares or shrinking give
     *  it something to do. */
    [[nodiscard]] std::vector<RecoveryPolicy> sweepPolicies() const;

    /** Abort unless the axes' options and the stage-2 knobs are sane.
     *  An empty axis aborts where the grid crosses it. */
    void validate() const;
};

/**
 * One {policy, tier cadence, straggler correlation} cell of a
 * survivor's sweep. A cell whose run would read only knobs on which it
 * agrees with an earlier simulated cell reuses that run (sharesRun on
 * the run's footprint): same report, bit for bit, as simulating it.
 */
struct GoodputSweepPoint
{
    RecoveryPolicy policy;

    /** Hierarchical-tier cadence this cell ran with: global checkpoint
     *  every Nth boundary, HBM mirrors in between. 0 = global-only. */
    std::int64_t hier_global_every = 0;

    /** Whether this cell ran with pod-correlated straggler arrivals. */
    bool straggler_correlation = false;

    /** Young–Daly interval this cell ran at (per-point: it contracts
     *  under async checkpointing, and under hierarchical tiers where
     *  the blocking cost is the cheap HBM mirror). */
    std::int64_t checkpoint_interval_steps = 0;

    /** Full run outcome, including the lost-time breakdown buckets;
     *  report.footprint names the policy knobs the run read. */
    TrainRunReport report;

    /** Index in the candidate's sweep of the earlier cell whose run
     *  this cell reuses, or nullopt when this cell was simulated. */
    std::optional<std::size_t> reuses_cell;

    /**
     * Goodput TFLOPs per *provisioned* GPU: the run's goodput diluted
     * by the idle spare pool,
     *   report.goodput * world / (world + spares * gpus_per_host).
     * The ranking metric — spares must buy back more goodput through
     * cheaper recovery than they cost in parked capacity.
     */
    double goodput_tflops_per_gpu = 0.0;
};

/** One analytic candidate with its simulated fault-aware record. */
struct GoodputPlanCandidate
{
    /** The stage-1 analytic evaluation (par, zero, step estimate). */
    PlanCandidate analytic;

    /** Every cell of the grid that applies to this candidate, in grid
     *  order (GoodputPlanInput's axes). */
    std::vector<GoodputSweepPoint> sweep;

    /** Index into sweep of the best cell (highest provisioned-GPU
     *  goodput, deterministic tie-break on the sweep order). */
    std::size_t best_point = 0;

    /** The winning sweep cell. */
    [[nodiscard]] const GoodputSweepPoint &best() const
    {
        return sweep[best_point];
    }

    /** Ranking metric: best().goodput_tflops_per_gpu. */
    double goodput_tflops_per_gpu = 0.0;
};

/**
 * Run both stages and return every simulated candidate, ranked best
 * goodput first. Deterministic: the same input yields the identical
 * ranking, and the ranking is invariant to the enumeration order of the
 * analytic axis options (candidates are re-sorted under a total order
 * before and after simulation).
 */
[[nodiscard]] std::vector<GoodputPlanCandidate>
planGoodput(const GoodputPlanInput &input);

/** The goodput-optimal candidate, or nullopt when stage 1 finds no
 *  feasible plan. */
[[nodiscard]] std::optional<GoodputPlanCandidate>
tryBestGoodputPlan(const GoodputPlanInput &input);

} // namespace llm4d

#endif // LLM4D_PLAN_GOODPUT_PLANNER_H_
