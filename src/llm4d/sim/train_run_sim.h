#ifndef LLM4D_SIM_TRAIN_RUN_SIM_H_
#define LLM4D_SIM_TRAIN_RUN_SIM_H_

/**
 * @file
 * Multi-step training-*run* simulation: goodput under failures,
 * checkpoint/restart, and straggler degradation.
 *
 * TrainSim prices one fault-free step; production behavior at 16K GPUs is
 * dominated by everything around the steps (paper Section 8, MegaScale
 * arXiv:2402.15627). TrainRunSim composes the per-step cost model with
 * the fault subsystem over days of simulated wall-clock through the
 * discrete-event Engine:
 *
 *  - steps execute at TrainSim speed and periodically pay a checkpoint:
 *    either a synchronous sharded save, or (CheckpointMode::Async) a
 *    blocking DRAM snapshot whose filesystem drain overlaps subsequent
 *    steps — rollback then targets the last *durable* (fully drained)
 *    checkpoint, and a snapshot that catches the previous drain still
 *    in flight stalls until it completes;
 *  - with hierarchical tiers (CheckpointStorage::hier) every boundary
 *    blocks only for the HBM peer mirror; NVMe and global persists run
 *    on their own cadences, and restore selects the newest tier whose
 *    surviving copies cover the fault's blast radius (HostCrash kills
 *    both local tiers; partial restart lets live recovery paths roll
 *    back only to the last HBM mirror);
 *  - fatal faults (GPU / host) interrupt the in-flight step after a
 *    detection latency (fast-fail NCCL error propagation), roll
 *    progress back to the last durable checkpoint, and recover per the
 *    configured RecoveryPolicy: swap in a warm spare host, shrink the
 *    DP dimension when the pool is dry, or fall back to the full
 *    stop-the-world restart (re-init + checkpoint load + slow warmup);
 *  - failed components enter the repair shop (fault/repair_model.h);
 *    when the policy allows regrow, repaired hosts are re-admitted at
 *    checkpoint boundaries — refilling the warm-spare pool first, then
 *    regrowing the DP dimension back toward its configured width at a
 *    re-shard cost symmetric to the shrink;
 *  - silent stragglers degrade every subsequent step (the synchronized
 *    cluster runs at its slowest rank) until the trace-driven detector
 *    (debug/straggler_detect.h) accumulates enough steps to localize
 *    them, then either rebalance micro-batches away from the culprit
 *    (bounded by DP-peer memory headroom) or force a maintenance
 *    restart that evicts it;
 *  - NIC flaps degrade (not kill) steps for their duration: the
 *    NIC-bound share of the step runs at the flapped link capacity.
 *
 * The report is MegaScale's first-order production metric: goodput —
 * effective TFLOPs/GPU after discounting lost, degraded, and overhead
 * time — plus availability and a lost-time breakdown. The empirical
 * optimal checkpoint interval is validated against the Young–Daly
 * approximation sqrt(2 * MTBF * save_cost).
 */

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "llm4d/debug/straggler_detect.h"
#include "llm4d/fault/checkpoint_model.h"
#include "llm4d/fault/fault_model.h"
#include "llm4d/fault/recovery_policy.h"
#include "llm4d/fault/repair_model.h"
#include "llm4d/sim/train_sim.h"
#include "llm4d/simcore/audit.h"
#include "llm4d/simcore/memo.h"

namespace llm4d {

#if LLM4D_AUDIT_ENABLED
namespace audit_testing {
/**
 * Audit-build test seam: seconds leaked into the lost-time bucket just
 * before TrainRunSim's breakdown-conservation audit. Death tests set
 * this to a non-zero value to deliberately desynchronize the buckets
 * and assert the auditor fires — proving the conservation invariant has
 * teeth. Never compiled into regular builds; defaults to 0.0 (no skew).
 */
extern double trainrun_lost_skew_seconds;
} // namespace audit_testing
#endif

/** How failures are noticed (MegaScale Section 4: detection latency). */
struct DetectionConfig
{
    /** Detection latency for fatal faults: fast-fail error propagation
     *  (NCCL abort), seconds. */
    double fast_fail_seconds = 30.0;

    /** Trace collection + top-down localization run, once suspected. */
    double straggler_analysis_seconds = 120.0;

    /** Noise/confidence model feeding stragglerDetectionSteps(). */
    StragglerDetectModel straggler;
};

/**
 * Resolution of a repeat StragglerOnset on an already-tracked rank.
 * Extracted from TrainRunSim's fault handler so the merge semantics are
 * unit-testable: a worse onset adopts the slower speed but must KEEP the
 * accumulated detection progress (the detector has been watching the
 * rank all along, and a slower straggler is easier to localize, never
 * harder) — unless the rank was already mitigated, in which case the
 * rebalance was sized for the old speed and the whole mitigation cycle
 * restarts from scratch. A no-worse repeat changes nothing.
 */
struct StragglerOnsetMerge
{
    /** Tracked speed after the repeat onset (min of old and new). */
    double speed = 1.0;

    /** Detection steps still owed after the repeat onset. */
    std::int64_t steps_to_detect = 0;

    /** True when an existing mitigation was invalidated: the tracker
     *  must drop its rebalance state and start a fresh cycle. */
    bool reset_mitigation = false;
};

/**
 * Merge a repeat onset of @p onset_severity (whose fresh detection cost
 * is @p onset_steps_to_detect) into the tracked straggler state.
 */
[[nodiscard]] StragglerOnsetMerge
mergeStragglerOnset(double tracked_speed,
                    std::int64_t tracked_steps_to_detect,
                    bool tracked_mitigated, double onset_severity,
                    std::int64_t onset_steps_to_detect);

/** Cost of coming back after an interruption. */
struct RestartConfig
{
    /** Scheduler re-queue + process spawn + NCCL re-init, seconds. */
    double reinit_seconds = 180.0;

    /** Steps after restore that run slower (cache/dataloader warmup). */
    std::int64_t warmup_steps = 3;

    /** Slowdown multiplier of warmup steps (>= 1). */
    double warmup_slowdown = 1.5;
};

/** Full description of one multi-step training run. */
struct TrainRunConfig
{
    TrainJobConfig job;

    /** Steps the run must complete (committed past the final step). */
    std::int64_t total_steps = 2000;

    /**
     * Steps between checkpoints (sync saves or async snapshots, per
     * policy.checkpoint_mode). Must be 0 when checkpoint_interval_auto
     * is set — TrainRunSim::checkpointIntervalSteps() is the single
     * source of truth consumers read.
     */
    std::int64_t checkpoint_interval_steps = 50;

    /**
     * Young–Daly auto mode: derive the interval from the run itself
     * (sqrt(2 * MTBF * blocking save cost), in steps) instead of the
     * explicit field above. Keeps the interval synchronized with
     * policy.checkpoint_mode — flipping sync to async automatically
     * contracts the interval to the snapshot-cost optimum, which a
     * policy sweep would otherwise desynchronize.
     */
    bool checkpoint_interval_auto = false;

    FaultTuning faults;

    /**
     * Repair-shop MTTR tuning (RepairModel). Repairs are drawn for every
     * fatal fault regardless of policy so the repair timeline is a pure
     * function of (cluster, tuning, seed); they only change the run when
     * policy.allow_regrow consumes them.
     */
    RepairTuning repairs;

    CheckpointStorage storage;
    DetectionConfig detection;
    RestartConfig restart;
    RecoveryPolicy policy;

    /** Fault-timeline RNG seed (independent of job.seed). */
    std::uint64_t seed = 1;

    /** Give up and report an incomplete run past this much wall-clock. */
    double max_wall_days = 365.0;

    /**
     * Abort unless every field is sane: positive step counts and
     * checkpoint interval, non-negative detection/restart latencies,
     * valid fault tuning and storage, and a recovery policy that fits
     * the cluster (spare pool <= hosts). Called by TrainRunSim before
     * any simulation.
     */
    void validate() const;
};

/** Per-kind interruption/degradation counters. */
struct FaultCounts
{
    std::int64_t gpu_fatal = 0;
    std::int64_t host_crash = 0;
    std::int64_t link_flaps = 0;
    std::int64_t stragglers = 0;

    [[nodiscard]] std::int64_t total() const
    {
        return gpu_fatal + host_crash + link_flaps + stragglers;
    }

    bool operator==(const FaultCounts &) const = default;
};

/** Outcome of one simulated training run. */
struct TrainRunReport
{
    /** False when the run hit max_wall_days before finishing. */
    bool completed = false;

    /** Total simulated wall-clock, seconds. */
    double wall_seconds = 0.0;

    /** Fault-free wall-clock for the same steps (no checkpoints). */
    double ideal_seconds = 0.0;

    /** Committed steps (== total_steps when completed). */
    std::int64_t steps_committed = 0;

    /** Steps whose work was rolled back and re-executed. */
    std::int64_t steps_lost = 0;

    /** Number of full restarts (fatal faults + straggler evictions). */
    std::int64_t restarts = 0;

    /** Warm-spare host swaps (RecoveryMode::WarmSpare). */
    std::int64_t spare_swaps = 0;

    /**
     * Warm-spare swaps whose replacement came from another pod
     * (placement-aware policies only): the swap was priced over the
     * spine and left one rank displaced, degrading every subsequent
     * step until it migrated home.
     */
    std::int64_t cross_pod_swaps = 0;

    /**
     * Displaced ranks that migrated back to their home pod at a durable
     * checkpoint boundary once a repair completed
     * (policy.placement_migration).
     */
    std::int64_t placement_migrations = 0;

    /** DP-shrink events after the spare pool ran dry. */
    std::int64_t dp_shrinks = 0;

    /** DP-regrow events re-admitting repaired hosts (allow_regrow). */
    std::int64_t dp_regrows = 0;

    /** Repaired hosts consumed: spare-pool refills + DP re-admissions. */
    std::int64_t hosts_repaired = 0;

    /** Stragglers mitigated by micro-batch rebalancing (not evicted). */
    std::int64_t rebalances = 0;

    /**
     * Recoveries that took the partial-restart path (policy.
     * partial_restart with hierarchical tiers): only the replacement
     * ranks re-fetched state from DP-peer HBM mirrors; survivors rolled
     * back to their own in-HBM snapshot.
     */
    std::int64_t partial_restarts = 0;

    /**
     * Restores that had to fall back past a destroyed newer tier: every
     * HostCrash recovery under hierarchical tiers, whose HBM + NVMe
     * copies died with the host and forced the global tier.
     */
    std::int64_t tier_fallbacks = 0;

    /**
     * Restore seconds attributed to each tier actually restored from,
     * indexed by CheckpointTier (HbmPeer, HostLocal, Global). An
     * informational overlay: these seconds are a *subset* of the
     * restart/spare_swap/shrink buckets (the post-activation/re-init
     * portion of each recovery, attributed at dispatch and not refunded
     * on back-to-back failures), so they are excluded from the
     * breakdown-conservation sum.
     */
    std::array<double, kNumCheckpointTiers> tier_restore_seconds{};

    /**
     * Data-parallel degree at the end of the run: shrinks persist until
     * a regrow (policy.allow_regrow) re-admits repaired hosts, so this
     * equals configured dp - dp_shrinks + dp_regrows.
     */
    std::int64_t final_dp = 0;

    FaultCounts faults;

    /**
     * Wall-clock breakdown, sums to wall_seconds:
     *  productive  — committed steps at fault-free speed;
     *  degraded    — extra step time under stragglers/flaps/warmup,
     *                post-shrink slowdown, drain contention, and the
     *                spine-crossing penalty of displaced ranks;
     *  checkpoint  — blocking save or snapshot stages;
     *  lost        — rolled-back step work (including partial steps);
     *  detection   — fault detection/localization latency windows
     *                (plus rebalance reconfiguration);
     *  restart     — full-restart re-init + checkpoint restore;
     *  spare_swap  — warm-spare activation + re-init + re-acquisition;
     *  shrink      — DP-shrink re-init + re-shard + restore;
     *  regrow      — DP-regrow re-init + peer state gathering;
     *  drain_stall — waits on an in-flight async checkpoint drain;
     *  displacement — migrate-home outages of displaced ranks
     *                (re-init + pod-local peer re-gather).
     * @{
     */
    double productive_seconds = 0.0;
    double degraded_seconds = 0.0;
    double checkpoint_seconds = 0.0;
    double lost_seconds = 0.0;
    double detection_seconds = 0.0;
    double restart_seconds = 0.0;
    double spare_swap_seconds = 0.0;
    double shrink_seconds = 0.0;
    double regrow_seconds = 0.0;
    double drain_stall_seconds = 0.0;
    double displacement_seconds = 0.0;
    /** @} */

    /** Effective useful TFLOPs per GPU-second over the whole run. */
    double goodput_tflops_per_gpu = 0.0;

    /** Fault-free TFLOPs/GPU of the underlying step (TrainSim). */
    double base_tflops_per_gpu = 0.0;

    /** goodput / base: the fraction of ideal throughput retained. */
    [[nodiscard]] double goodputFraction() const
    {
        return base_tflops_per_gpu > 0.0
                   ? goodput_tflops_per_gpu / base_tflops_per_gpu
                   : 0.0;
    }

    /** Fraction of wall-clock spent on committed productive steps. */
    double availability = 0.0;

    /** Failure timeline that shaped this run (onset-ordered). */
    std::vector<FaultEvent> timeline;

    /**
     * Engine events the run processed: its interrupts, one per fault
     * (plus the one queued when the run ends), flap expiry and outage
     * end. The steps, checkpoint writes and drains between them take
     * none, so the count grows with interrupts, not with checkpoint
     * intervals: a fault-free run takes none. A work count, not a
     * result. A planner cell that reuses another cell's run
     * (GoodputSweepPoint::reuses_cell) carries the reused run's count.
     */
    std::int64_t engine_events = 0;

    /**
     * Step segments, checkpoint writes and drains the run handled one
     * at a time between its interrupts. Once a quiet stretch repeats
     * its checkpoint period, whole periods are replayed from one
     * period's recorded additions, which count nothing here: the count
     * grows with the periods walked around interrupts, not with the
     * run's length. A work count, not a result; a reused planner cell
     * carries the reused run's count, as for engine_events.
     */
    std::int64_t walked_work = 0;

    /**
     * The swept RecoveryPolicy knobs this run read. A run under any
     * policy that differs only in knobs outside it is this run, bit
     * for bit (sharesRun), which is how the planner shares runs.
     */
    PolicyFootprint footprint;

    /** Every counter, bucket, timeline event and the footprint; a
     *  field added later is compared too. */
    bool operator==(const TrainRunReport &) const = default;
};

/** One point of a checkpoint-interval scan. */
struct IntervalScanPoint
{
    std::int64_t interval_steps = 0;
    double goodput_tflops_per_gpu = 0.0;
};

/**
 * The prices that depend on the job alone: the fault-free step, the
 * step under each straggler set, the step at each shrunk DP degree and
 * the displaced-rank slowdown. A straggler set reads nothing but the
 * step time, so it is repriced with TrainSim::stepSeconds, which times
 * only the makespan of the job's checked schedule; the fault-free and
 * shrunk steps keep their full reports. Built once per job and shared,
 * never copied, by every TrainRunSim of that job (TrainRunSim(cfg,
 * same_job)), so a planner candidate's cells price each of them once
 * between them.
 * Thread-safe: the two lazily priced families go through a Memo, and
 * each value is a pure function of its key, so no thread timing can
 * change a report. A new job-keyed price belongs here.
 */
class JobPricing
{
  public:
    /** Prices the fault-free step and the displaced-rank slowdown. */
    explicit JobPricing(TrainJobConfig job);

    /** The fault-free per-step report. */
    [[nodiscard]] const TrainStepReport &baseStep() const { return base_; }

    /**
     * Step seconds with the whole active-straggler set @p active
     * ((rank, speed) pairs) injected into *one* reprice of the base
     * TrainSim (TrainSim::stepSeconds under a changed PerfVariation,
     * its masks and schedule reused): the synchronized step pays every
     * slow stage at once.
     * Stragglers on one PP stage collapse to the slowest (the stage
     * already waits for its worst rank). Memoized on that canonical
     * (stage representative, speed) set.
     */
    [[nodiscard]] double degradedStepSeconds(
        const std::vector<std::pair<std::int64_t, double>> &active) const;

    /** Fault-free step report at DP degree @p dp (a TrainSim of the
     *  shrunk job, memoized; baseStep() at the configured degree). Same
     *  global batch, so fewer replicas -> slower steps. */
    [[nodiscard]] const TrainStepReport &stepReportAtDp(std::int64_t dp) const;

    /** Step-time multiplier while any rank is displaced cross-pod:
     *  the NIC-bound share of the step runs at spine (1/oversub)
     *  capacity, priced like a link flap at that capacity. */
    [[nodiscard]] double displacementSlowdown() const
    {
        return displacement_slowdown_;
    }

  private:
    /** Prices the fault-free step and, with a changed PerfVariation,
     *  every straggler set (shrunk DP degrees build their own). */
    TrainSim sim_;
    TrainStepReport base_;
    double displacement_slowdown_ = 0.0;
    /** Keyed by the (stage representative rank -> slowest speed) map. */
    Memo<std::map<std::int64_t, double>, double> degraded_steps_;
    Memo<std::int64_t, TrainStepReport> shrunk_steps_;
};

/**
 * Simulates whole training runs for one job configuration. Immutable
 * after construction, so one instance may run on many threads at once.
 * Prices live with their key: the job's prices in a shared JobPricing,
 * the run's (checkpoint cost at the current DP width, recovery costs)
 * in the run itself.
 */
class TrainRunSim
{
  public:
    /** Validates the config and prices the job (JobPricing). */
    explicit TrainRunSim(TrainRunConfig cfg);

    /**
     * Validates @p cfg and shares @p same_job's JobPricing instead of
     * pricing the job again. Aborts unless
     * cfg.job == same_job.config().job; the rest of @p cfg (policy,
     * storage, faults, ...) may differ.
     */
    TrainRunSim(TrainRunConfig cfg, const TrainRunSim &same_job);

    [[nodiscard]] const TrainRunConfig &config() const { return cfg_; }

    /** The fault-free per-step report the run is built on (the shared
     *  JobPricing's, so every instance of one job returns one object). */
    [[nodiscard]] const TrainStepReport &baseStep() const
    {
        return job_->baseStep();
    }

    /** Checkpoint save/load pricing in use. */
    [[nodiscard]] const CheckpointModel &checkpoint() const { return ckpt_; }

    /** Cluster-level mean time between fault events, seconds. */
    [[nodiscard]] double mtbfSeconds() const;

    /**
     * The checkpoint interval the run actually uses: the Young–Daly
     * optimum under checkpoint_interval_auto, the explicit
     * checkpoint_interval_steps otherwise. The source of truth — read
     * this, not the config field, so auto mode and the checkpoint mode
     * can never desynchronize.
     */
    [[nodiscard]] std::int64_t checkpointIntervalSteps() const;

    /** Simulate the configured run. */
    [[nodiscard]] TrainRunReport run() const;

    /** Simulate with an overridden checkpoint interval. */
    [[nodiscard]] TrainRunReport runWithInterval(std::int64_t interval_steps) const;

    /** Goodput at each candidate interval (same fault timeline: the
     *  failure process is exogenous, so common random numbers make the
     *  scan a true apples-to-apples comparison). */
    [[nodiscard]] std::vector<IntervalScanPoint>
    scanCheckpointIntervals(const std::vector<std::int64_t> &intervals) const;

    /** Young–Daly optimal interval for this run, in steps (>= 1).
     *  Uses blockingSaveSeconds(): under async checkpointing only the
     *  snapshot blocks the step, so the optimum shifts to the much
     *  shorter sqrt(2 * MTBF * snapshot) interval. */
    [[nodiscard]] std::int64_t youngDalyIntervalSteps() const;

    /** Step-blocking cost of one checkpoint under the configured mode:
     *  the full sharded save (sync) or just the DRAM snapshot (async). */
    [[nodiscard]] double blockingSaveSeconds() const;

  private:
    /** One run's state and event handlers (train_run_sim.cc). */
    class RunState;

    /** Whether the job remains valid with DP shrunk to @p dp. */
    bool canShrinkTo(std::int64_t dp) const;

    /** Activation headroom on the straggler's DP peers at the current
     *  DP degree @p dp, in units of one stage micro-batch (how many
     *  extra in-flight micro-batches the tightest peer can absorb). */
    double rebalanceHeadroomMicrobatches(std::int64_t straggler_rank,
                                         std::int64_t dp) const;

    TrainRunConfig cfg_;
    std::shared_ptr<const JobPricing> job_;
    CheckpointModel ckpt_;
    RecoveryCostModel recovery_;
};

} // namespace llm4d

#endif // LLM4D_SIM_TRAIN_RUN_SIM_H_
