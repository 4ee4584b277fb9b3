#include "llm4d/sim/train_run_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>

#include "llm4d/net/topology.h"
#include "llm4d/simcore/common.h"
#include "llm4d/simcore/engine.h"

namespace llm4d {

#if LLM4D_AUDIT_ENABLED
namespace audit_testing {
double trainrun_lost_skew_seconds = 0.0;
} // namespace audit_testing
#endif

namespace {

constexpr double kSecondsPerHour = 3600.0;

TrainRunConfig
validated(TrainRunConfig cfg)
{
    cfg.validate();
    return cfg;
}

/** @p other, once checked to simulate the same job as @p cfg. */
const TrainRunSim &
sameJob(const TrainRunConfig &cfg, const TrainRunSim &other)
{
    LLM4D_CHECK(cfg.job == other.config().job,
                "a TrainRunSim can share job pricing only with a "
                "TrainRunSim of the same job");
    return other;
}

/**
 * Step-time multiplier when the NICs run at @p capacity of their rate
 * (link flaps and spine-crossing displaced ranks both price through
 * here). Only the NIC-bound share of the step stretches: FSDP + CP
 * exposure crosses the NICs, TP is NVLink-local and immune, and a 2%
 * floor covers PP P2P and infra traffic the step report does not
 * itemize. A 1-second reference transfer with the whole degraded link
 * to itself takes bytes / rate = nic / (nic * capacity) seconds on the
 * nanosecond clock. Keep that form: 1 / capacity rounds differently at
 * some capacities, and every report depends on the bits.
 */
double
nicSlowdown(const TrainStepReport &base, const ClusterSpec &cluster,
            double capacity)
{
    LLM4D_CHECK(capacity >= kMinLinkCapacity && capacity <= 1.0,
                "link capacity factor must be in [" << kMinLinkCapacity
                    << ", 1], got " << capacity);
    const double nic_share = std::clamp(
        (base.exposed_fsdp_seconds + base.exposed_cp_seconds) /
            base.step_seconds,
        0.02, 0.9);
    const double nic_bps = cluster.node.gpu.nic_bw_gbps * 1e9;
    const double xfer_slowdown =
        timeToSeconds(secondsToTime(nic_bps / (nic_bps * capacity)));
    return 1.0 + (xfer_slowdown - 1.0) * nic_share;
}

/** @p x's bits, so that == compares doubles bit for bit. */
std::int64_t
bits(double x)
{
    return std::bit_cast<std::int64_t>(x);
}

/**
 * Where completed steps are covered, oldest rung first. A step enters
 * Tentative when it completes and moves toward Committed as checkpoint
 * writes land; a rollback drops the rungs newer than its restore point.
 * Hbm and Nvme stay empty without hierarchical tiers, Pending without
 * async checkpointing. A plain enum: it indexes the ledger's rungs.
 */
enum Rung : std::size_t
{
    Committed, ///< durable: global save, or a fully drained snapshot
    Pending,   ///< snapshotted to host DRAM, filesystem drain in flight
    Nvme,      ///< covered by the latest host-local NVMe persist
    Hbm,       ///< covered only by the latest DP-peer HBM mirror
    Tentative, ///< completed since the last checkpoint write
};

/**
 * The run's single coverage ledger. Every move sums the rungs it takes
 * from newest to oldest, so each report sum has one fixed order.
 */
class CoverageLedger
{
  public:
    /** Work in one rung. Base and extra stay apart so a commit credits
     *  productive and degraded time separately. */
    struct Coverage
    {
        std::int64_t steps = 0;
        double base_s = 0.0;  ///< the steps at fault-free speed
        double extra_s = 0.0; ///< degradation on top of base_s
    };

    const Coverage &operator[](Rung rung) const { return rungs_[rung]; }

    /** Steps completed and not rolled back, whatever covers them. */
    std::int64_t steps() const
    {
        std::int64_t total = 0;
        for (const Coverage &c : rungs_)
            total += c.steps;
        return total;
    }

    void addStep(double base_s, double extra_s)
    {
        Coverage &t = rungs_[Rung::Tentative];
        ++t.steps;
        t.base_s += base_s;
        t.extra_s += extra_s;
    }

    /** Move the rungs from @p from down to just above @p into into it.
     *  @return what moved. */
    Coverage fold(Rung from, Rung into)
    {
        Coverage moved;
        for (std::size_t r = from; r > into; --r) {
            moved.steps += rungs_[r].steps;
            moved.base_s += rungs_[r].base_s;
            moved.extra_s += rungs_[r].extra_s;
            rungs_[r] = Coverage{};
        }
        credit(into, moved);
        return moved;
    }

    /** Add @p moved, as one fold would, to rung @p into. */
    void credit(Rung into, const Coverage &moved)
    {
        Coverage &to = rungs_[into];
        to.steps += moved.steps;
        to.base_s += moved.base_s;
        to.extra_s += moved.extra_s;
    }

    /** Discard every rung newer than @p keep, adding each rung's base
     *  and then its extra to one running sum. @return (steps, seconds)
     *  dropped. */
    std::pair<std::int64_t, double> dropNewerThan(Rung keep)
    {
        std::int64_t steps = 0;
        double seconds = 0.0;
        for (std::size_t r = Rung::Tentative; r > keep; --r) {
            steps += rungs_[r].steps;
            seconds += rungs_[r].base_s;
            seconds += rungs_[r].extra_s;
            rungs_[r] = Coverage{};
        }
        return {steps, seconds};
    }

    /** Whether the rungs above Committed hold what @p other's hold,
     *  bit for bit. */
    bool sameAboveCommitted(const CoverageLedger &other) const
    {
        for (std::size_t r = Rung::Committed + 1; r <= Rung::Tentative; ++r) {
            const Coverage &a = rungs_[r];
            const Coverage &b = other.rungs_[r];
            if (a.steps != b.steps || bits(a.base_s) != bits(b.base_s) ||
                bits(a.extra_s) != bits(b.extra_s))
                return false;
        }
        return true;
    }

    /** Take @p other's rungs above Committed; keep Committed. */
    void takeAboveCommitted(const CoverageLedger &other)
    {
        std::copy(other.rungs_.begin() + Rung::Committed + 1,
                  other.rungs_.end(), rungs_.begin() + Rung::Committed + 1);
    }

  private:
    std::array<Coverage, Rung::Tentative + 1> rungs_{};
};

/** The newest rung a restore keeps, indexed by CheckpointTier
 *  (HbmPeer, HostLocal, Global). */
constexpr std::array<Rung, kNumCheckpointTiers> kRestorePoint = {
    Rung::Hbm, Rung::Nvme, Rung::Committed};

/** The longest cadence period, in boundaries, a run records. */
constexpr std::int64_t kMaxPeriodBoundaries = 64;

/** Room in the addition log per recorded boundary. A boundary adds at
 *  most four: its tier write and, at a global boundary, the landing of
 *  the drain it waits for, that wait, and the snapshot. */
constexpr std::int64_t kCarriesPerBoundary = 8;

/**
 * Checkpoint boundaries per cadence period: one without tiers, and
 * lcm(nvme_every, global_every) with them, after which the tier writes
 * repeat. 0 when that is longer than a run records.
 */
std::int64_t
cadencePeriod(const HierarchicalCheckpointSpec &hier)
{
    if (!hier.enabled)
        return 1;
    if (hier.nvme_every > kMaxPeriodBoundaries ||
        hier.global_every > kMaxPeriodBoundaries)
        return 0;
    const std::int64_t period = std::lcm(hier.nvme_every, hier.global_every);
    return period <= kMaxPeriodBoundaries ? period : 0;
}

} // namespace

void
TrainRunConfig::validate() const
{
    LLM4D_CHECK(total_steps > 0, "run needs at least one step");
    if (checkpoint_interval_auto) {
        LLM4D_CHECK(checkpoint_interval_steps == 0,
                    "explicit checkpoint_interval_steps of "
                        << checkpoint_interval_steps
                        << " conflicts with checkpoint_interval_auto; "
                           "set it to 0 and read "
                           "TrainRunSim::checkpointIntervalSteps()");
        LLM4D_CHECK(job.cluster.fatalFailuresPerHour() > 0.0,
                    "Young-Daly auto interval needs an enabled fatal "
                    "failure class");
    } else {
        LLM4D_CHECK(checkpoint_interval_steps > 0,
                    "checkpoint interval must be positive");
    }
    LLM4D_CHECK(restart.reinit_seconds >= 0.0 &&
                    restart.warmup_steps >= 0 &&
                    restart.warmup_slowdown >= 1.0,
                "invalid restart config");
    LLM4D_CHECK(detection.fast_fail_seconds >= 0.0 &&
                    detection.straggler_analysis_seconds >= 0.0,
                "detection latencies must be non-negative");
    LLM4D_CHECK(max_wall_days > 0.0, "max wall-clock must be positive");
    faults.validate();
    repairs.validate();
    storage.validate();
    policy.validate(job.cluster);
    LLM4D_CHECK(!policy.partial_restart || storage.hier.enabled,
                "partial restart requires hierarchical checkpoint tiers "
                "(storage.hier.enabled)");
}

StragglerOnsetMerge
mergeStragglerOnset(double tracked_speed,
                    std::int64_t tracked_steps_to_detect,
                    bool tracked_mitigated, double onset_severity,
                    std::int64_t onset_steps_to_detect)
{
    StragglerOnsetMerge merge;
    if (onset_severity >= tracked_speed) {
        // No-worse repeat: the detector keeps watching unperturbed.
        merge.speed = tracked_speed;
        merge.steps_to_detect = tracked_steps_to_detect;
        return merge;
    }
    merge.speed = onset_severity;
    if (tracked_mitigated) {
        // The rebalance was sized for the old speed; the worse onset
        // invalidates it, so mitigation restarts from scratch.
        merge.steps_to_detect = onset_steps_to_detect;
        merge.reset_mitigation = true;
    } else {
        // Keep the accumulated detection evidence while adopting the
        // worse speed. A repeat onset must never push localization
        // further out — the pre-fix code overwrote the tracker and
        // reset the detection clock here.
        merge.steps_to_detect =
            std::min(tracked_steps_to_detect, onset_steps_to_detect);
    }
    return merge;
}

JobPricing::JobPricing(TrainJobConfig job)
    : sim_(std::move(job)), base_(sim_.run()),
      // The displaced rank's DP traffic crosses the spine, which offers
      // 1/oversubscription of the pod-local NIC capacity.
      displacement_slowdown_(
          nicSlowdown(base_, sim_.config().cluster,
                      1.0 / sim_.config().cluster.spine_oversubscription))
{
}

double
JobPricing::degradedStepSeconds(
    const std::vector<std::pair<std::int64_t, double>> &active) const
{
    LLM4D_ASSERT(!active.empty(),
                 "joint straggler pricing needs at least one straggler");
    // TrainSim's cost table only samples the representative rank of each
    // PP coordinate, so map every straggler onto the representative of
    // its pipeline stage; synchronized training then propagates the
    // compounded slowdown to the whole step. Two stragglers on the same
    // stage collapse to the slowest — the stage already waits for its
    // worst rank, so their slowdowns do not stack.
    const RankGrid grid(sim_.config().par);
    std::map<std::int64_t, double> by_rep;
    for (const auto &[rank, speed] : active) {
        const std::int64_t pp_coord = grid.coordOf(rank).pp;
        const std::int64_t rep = grid.rankOf(RankCoord{0, 0, pp_coord, 0});
        const auto it = by_rep.find(rep);
        if (it == by_rep.end() || speed < it->second)
            by_rep[rep] = speed;
    }
    return degraded_steps_.get(by_rep, [&] {
        PerfVariation perf = sim_.config().perf;
        for (const auto &[rep, speed] : by_rep)
            perf.injectStraggler(rep, speed);
        return std::max(sim_.stepSeconds(perf), base_.step_seconds);
    });
}

const TrainStepReport &
JobPricing::stepReportAtDp(std::int64_t dp) const
{
    if (dp == sim_.config().par.dp)
        return base_;
    // Same global batch over fewer replicas: each survivor runs more
    // micro-batches, so the fault-free step gets strictly slower.
    return shrunk_steps_.get(dp, [&] {
        TrainJobConfig shrunk = sim_.config();
        shrunk.par = RecoveryCostModel::shrunkPar(shrunk.par, dp);
        shrunk.cluster =
            RecoveryCostModel::shrunkCluster(shrunk.cluster, shrunk.par);
        return TrainSim(shrunk).run();
    });
}

TrainRunSim::TrainRunSim(TrainRunConfig cfg)
    : cfg_(validated(std::move(cfg))),
      job_(std::make_shared<const JobPricing>(cfg_.job)),
      ckpt_(cfg_.job.model, cfg_.job.cluster, cfg_.job.par, cfg_.storage),
      recovery_(cfg_.job.model, cfg_.job.cluster, cfg_.job.par,
                cfg_.storage, cfg_.policy)
{
}

TrainRunSim::TrainRunSim(TrainRunConfig cfg, const TrainRunSim &same_job)
    : cfg_(validated(std::move(cfg))),
      job_(sameJob(cfg_, same_job).job_),
      ckpt_(cfg_.job.model, cfg_.job.cluster, cfg_.job.par, cfg_.storage),
      recovery_(cfg_.job.model, cfg_.job.cluster, cfg_.job.par,
                cfg_.storage, cfg_.policy)
{
}

double
TrainRunSim::mtbfSeconds() const
{
    return kSecondsPerHour / cfg_.job.cluster.failuresPerHour();
}

double
TrainRunSim::blockingSaveSeconds() const
{
    // With hierarchical tiers every checkpoint boundary blocks only for
    // the HBM peer mirror (the NVMe/global persists ride the configured
    // cadences), so that is the Young–Daly C.
    if (cfg_.storage.hier.enabled)
        return ckpt_.hbmMirrorSeconds();
    return cfg_.policy.checkpoint_mode == CheckpointMode::Async
               ? ckpt_.snapshotSeconds()
               : ckpt_.saveSeconds();
}

std::int64_t
TrainRunSim::youngDalyIntervalSteps() const
{
    // Young–Daly counts only work-losing failures; stragglers and flaps
    // degrade throughput but lose no checkpointable progress. Under
    // async checkpointing only the snapshot blocks the step, so the
    // relevant C is blockingSaveSeconds(), not the filesystem drain.
    const double fatal_rate = cfg_.job.cluster.fatalFailuresPerHour();
    LLM4D_CHECK(fatal_rate > 0.0,
                "Young-Daly undefined without fatal failure classes");
    const double yd_seconds = youngDalyIntervalSeconds(
        kSecondsPerHour / fatal_rate, blockingSaveSeconds());
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(yd_seconds / baseStep().step_seconds)));
}

bool
TrainRunSim::canShrinkTo(std::int64_t dp) const
{
    if (dp < 1)
        return false;
    // The hierarchical checkpoint model is unbuildable at a shrunk
    // layout that leaves no DP peer to mirror to.
    if (cfg_.storage.hier.enabled &&
        !hasDpPeer(RecoveryCostModel::shrunkPar(cfg_.job.par, dp)))
        return false;
    const std::int64_t world =
        cfg_.job.par.worldSize() / cfg_.job.par.dp * dp;
    if (world % cfg_.job.cluster.node.gpus_per_node != 0)
        return false;
    // The surviving replicas must still split the global batch into
    // whole micro-batches (TrainSim aborts otherwise, so pre-check).
    if (cfg_.job.global_batch_tokens % cfg_.job.seq != 0)
        return false;
    const std::int64_t gbs_seqs =
        cfg_.job.global_batch_tokens / cfg_.job.seq;
    if (gbs_seqs % dp != 0)
        return false;
    if ((gbs_seqs / dp) % cfg_.job.mbs != 0)
        return false;
    // Schedule-feasibility envelope: the flexible PP schedule deadlocks
    // past one micro-batch per pipeline stage in flight, so survivors
    // cannot absorb more micro-batches than the pipeline is deep.
    const std::int64_t shrunk_nmb = gbs_seqs / dp / cfg_.job.mbs;
    return shrunk_nmb <= std::max(baseStep().nmb, cfg_.job.par.pp);
}

double
TrainRunSim::rebalanceHeadroomMicrobatches(std::int64_t straggler_rank,
                                           std::int64_t dp) const
{
    // The pp coordinate comes from the original grid (the straggler is
    // named in pre-shrink rank numbering), but peak memory and the
    // per-micro-batch footprint are taken at the current DP degree:
    // after a shrink each survivor already holds more micro-batches and
    // a larger optimizer shard, so the pre-shrink headroom overstates
    // what the peers can absorb.
    const RankGrid grid(cfg_.job.par);
    const std::int64_t pp_coord = grid.coordOf(straggler_rank).pp;
    const TrainStepReport &step = job_->stepReportAtDp(dp);
    const auto &mem =
        step.pp_rank_memory[static_cast<std::size_t>(pp_coord)];
    const double headroom =
        mem.headroomBytes(cfg_.job.cluster.node.gpu.hbm_capacity_gib);
    if (headroom <= 0.0)
        return 0.0;
    // Bytes of one extra in-flight stage micro-batch on the peers that
    // would absorb the shifted work (same PP coordinate as the
    // straggler, so the same activation footprint).
    const MemoryModel mm(cfg_.job.model, cfg_.job.par.tp,
                         dp * cfg_.job.par.cp, cfg_.job.zero,
                         cfg_.job.memory_optimized);
    const std::int64_t layers_per_rank =
        ceilDiv(cfg_.job.model.num_layers, cfg_.job.par.pp);
    const std::int64_t stage_layers =
        ceilDiv(layers_per_rank, std::max<std::int64_t>(1, step.v));
    const std::int64_t tokens =
        cfg_.job.mbs * cfg_.job.seq / cfg_.job.par.cp;
    const double per_microbatch = mm.activationBytes(
        tokens, stage_layers, false, false, cfg_.job.act);
    return per_microbatch > 0.0 ? headroom / per_microbatch : 0.0;
}

std::int64_t
TrainRunSim::checkpointIntervalSteps() const
{
    return cfg_.checkpoint_interval_auto ? youngDalyIntervalSteps()
                                         : cfg_.checkpoint_interval_steps;
}

TrainRunReport
TrainRunSim::run() const
{
    return runWithInterval(checkpointIntervalSteps());
}

/**
 * The state of one simulated run and its handlers; the members are the
 * whole state between events. Only the interrupts the run does not
 * control are Engine events (interruptAt): faults, flap expiries and
 * outage ends. Everything the run does between them is walked in one
 * loop (walk), after each interrupt and up to the engine's next event:
 * step segments (runs of steps at one price), checkpoint writes, async
 * drains and drain stalls, in the order the engine would run them as
 * events. An interrupt finds the step, write or stall in flight and
 * settles the segment before it changes anything (settleSteps). Once
 * the walk is back where it was one checkpoint cadence period earlier,
 * it replays whole periods from that period's recorded additions
 * instead of walking them (atBoundary, replay).
 */
class TrainRunSim::RunState
{
  public:
    RunState(const TrainRunSim &sim, std::int64_t interval_steps)
        : sim_(sim), job_(*sim.job_), cfg_(sim.cfg_), pol_(sim.cfg_.policy),
          interval_steps_(interval_steps),
          async_(pol_.checkpointMode() == CheckpointMode::Async),
          tiered_(cfg_.storage.hier.enabled),
          base_step_s_(job_.baseStep().step_seconds),
          wall_limit_(
              secondsToTime(cfg_.max_wall_days * 24.0 * kSecondsPerHour)),
          faults_(cfg_.job.cluster, cfg_.faults, cfg_.seed),
          // Every fatal fault is submitted to the repair shop whether
          // or not the policy consumes repairs: the shop draws from its
          // own streams at submit time, so the repair timeline is
          // policy-invariant (common random numbers) and
          // allow_regrow=false runs stay bit-identical to runs with no
          // repair shop at all.
          repair_shop_(cfg_.job.cluster, cfg_.repairs, cfg_.seed),
          topo_(cfg_.job.cluster),
          dp_now_(cfg_.job.par.dp), step_(&job_.baseStep()), ckpt_(sim.ckpt_),
          period_(cadencePeriod(cfg_.storage.hier)),
          // A period is at least its boundaries' steps at the base
          // price; a replay needs one period recorded and one to apply.
          min_record_s_(2.0 * static_cast<double>(period_) *
                        static_cast<double>(interval_steps_) * base_step_s_)
    {
    }

    /** Simulate to completion or truncation; fills the report's
     *  counters, buckets, wall clock and final DP. */
    TrainRunReport run()
    {
        // Pull-based fault stream: exactly one fault event is in the
        // queue at a time; consuming it schedules the next, so the
        // timeline is a pure function of the seed no matter how long
        // the run takes.
        if (!faults_.silent())
            pumpFault();
        scheduleSteps();
        restartRecording();
        walk();
        eng_.run();
        rep_.completed = finished_ && !truncated_;
        rep_.steps_committed = ledger_[Rung::Committed].steps;
        rep_.productive_seconds = ledger_[Rung::Committed].base_s;
        rep_.degraded_seconds = ledger_[Rung::Committed].extra_s;
        rep_.final_dp = dp_now_;
        // The engine clock can drift past the end while draining a
        // trailing (ignored) fault event; the recorded stop time is the
        // true wall.
        rep_.wall_seconds = timeToSeconds(
            (finished_ || truncated_) ? stopped_at_ : eng_.now());
        rep_.footprint = pol_.footprint();
        rep_.engine_events = eng_.eventsProcessed();
        return std::move(rep_);
    }

  private:
    struct ActiveFlap
    {
        Time until = 0;
        double multiplier = 1.0;
    };
    struct ActiveStraggler
    {
        double speed = 1.0;
        std::int64_t steps_to_detect = 0;
        bool mitigated = false;    ///< micro-batches rebalanced away
        double residual = 1.0;     ///< post-rebalance step multiplier
    };
    enum class AsyncWait
    {
        None,     ///< no one is blocked on the drain
        Snapshot, ///< a snapshot wants the single host buffer
        Final,    ///< finish/eviction blocks until durability
    };
    /** What a checkpoint write does when it lands. */
    enum class Write
    {
        Save,         ///< sync global save: commits everything
        Snapshot,     ///< async DRAM snapshot: starts the drain
        TierBoundary, ///< HBM mirror (+ NVMe on its cadence)
    };

    /**
     * What the walk reads at a checkpoint boundary, its times relative
     * to the clock: the coverage above Committed, the DP width and step
     * price of the stretch, the cadence phase, the segment just started,
     * the drain in flight and the write that just landed. Not the
     * Committed rung or the report's buckets: the walk only adds to
     * them. Two boundaries in equal states (inState) begin identical
     * periods.
     */
    struct WalkState
    {
        CoverageLedger ledger;       ///< read above Committed only
        std::int64_t dp = 0;
        double price_s = 0.0;        ///< before warmup and drain contention
        std::int64_t phase = 0;      ///< cadence counter mod the period
        std::int64_t steps_left = 0; ///< the segment's steps
        double step_len_s = 0.0;     ///< and their price
        Time step_t = 0;
        Time work_left = 0;          ///< until the segment ends
        Time drain_left = -1;        ///< until the drain lands; -1: none
        Write write = Write::Save;   ///< the write that just landed
        double write_s = 0.0;
    };

    /** A boundary recorded in this stretch, and where the run stood. */
    struct Boundary
    {
        WalkState state;
        Time at = 0;                ///< the clock
        std::int64_t steps = 0;     ///< ledger_.steps()
        std::int64_t counter = 0;   ///< the cadence counter
        std::uint64_t carried = 0;  ///< additions recorded before it
    };

    /** One addition to what a period carries into the next: seconds
     *  added to a report bucket, or coverage folded into Committed. */
    struct Carry
    {
        double *bucket = nullptr; ///< the bucket; null for Committed
        double seconds = 0.0;
        CoverageLedger::Coverage moved;
    };

    /** One boundary of a closed period (a cycle), and what the walk
     *  does from it to the next one. */
    struct CycleStep
    {
        WalkState state;
        Time dt = 0;            ///< until the next boundary
        std::int64_t steps = 0; ///< steps completed by then
        std::size_t first = 0;  ///< its additions: cycle_adds_[first,
        std::size_t last = 0;   ///< last), in their order
    };

    /** Change the DP degree to @p dp and price the step and the
     *  checkpoint at it (the configured degree's are the job's own). */
    void setDp(std::int64_t dp)
    {
        dp_now_ = dp;
        step_ = &job_.stepReportAtDp(dp);
        if (dp == cfg_.job.par.dp) {
            ckpt_ = sim_.ckpt_;
            return;
        }
        const ParallelismConfig par =
            RecoveryCostModel::shrunkPar(cfg_.job.par, dp);
        ckpt_ = CheckpointModel(
            cfg_.job.model,
            RecoveryCostModel::shrunkCluster(cfg_.job.cluster, par), par,
            cfg_.storage);
    }

    /** Whether the tier cadence counter's next boundary is due every
     *  @p every boundaries. */
    bool boundaryDue(std::int64_t every) const
    {
        return (ckpt_boundary_ + 1) % every == 0;
    }

    /** The warm-spare pool, built on first use. A claim's location is
     *  read only by placement-aware policies; the location-blind model
     *  uses the pool as a plain count. */
    SparePool &sparePool()
    {
        if (!spare_pool_)
            spare_pool_.emplace(pol_.sparePool(cfg_.job.cluster));
        return *spare_pool_;
    }

    /** What a recovery dispatched now does. */
    enum class Path
    {
        Swap,    ///< swap in a warm spare
        Shrink,  ///< drop one DP replica group
        Restart, ///< stop the world
    };

    /** Warm spare -> DP shrink -> full restart: the first the policy
     *  allows and the pool and the shrunk layout can serve. */
    Path recoveryPath()
    {
        if (pol_.mode() != RecoveryMode::WarmSpare)
            return Path::Restart;
        if (sparePool().available() > 0)
            return Path::Swap;
        if (dp_now_ > 1 && sim_.canShrinkTo(dp_now_ - 1) &&
            pol_.allowDpShrink())
            return Path::Shrink;
        return Path::Restart;
    }

    double flapMultiplier() const
    {
        double worst_capacity = 1.0;
        for (const auto &[rank, flap] : flaps_) {
            if (flap.until > now_)
                worst_capacity = std::min(worst_capacity, flap.multiplier);
        }
        if (worst_capacity >= 1.0)
            return 1.0;
        return nicSlowdown(job_.baseStep(), cfg_.job.cluster, worst_capacity);
    }

    /**
     * The step price now, before warmup and drain contention. Cuts
     * @p steps to the first step after which an unmitigated straggler
     * is detected: the price walk is the only walk of stragglers_ a
     * segment makes before it ends.
     */
    double stepPrice(std::int64_t &steps) const
    {
        // Any displaced rank stretches its DP group's collectives over
        // the oversubscribed spine; synchronized training makes the
        // whole step wait for it.
        const double eff = std::max(
            step_->step_seconds *
                (displaced_ > 0 ? job_.displacementSlowdown() : 1.0),
            base_step_s_);
        double s = eff;
        double worst_residual = 1.0;
        // Price the whole unmitigated set through one TrainSim rerun:
        // concurrent stragglers on distinct PP stages compound, which a
        // max over single-straggler runs undercounts.
        std::vector<std::pair<std::int64_t, double>> active;
        for (const auto &[rank, st] : stragglers_) {
            if (st.mitigated) {
                worst_residual = std::max(worst_residual, st.residual);
            } else {
                active.emplace_back(rank, st.speed);
                steps = std::min(
                    steps, std::max<std::int64_t>(1, st.steps_to_detect));
            }
        }
        if (!active.empty())
            s = std::max(s, eff * job_.degradedStepSeconds(active) /
                                base_step_s_);
        s = std::max(s, eff * worst_residual);
        return s * flapMultiplier();
    }

    /**
     * Run the work the engine would have run before its next event, in
     * its order: the ends of step segments, checkpoint writes and
     * drains, each handled at its own time. A piece of work is stamped
     * with the id the engine would have given its event when it started
     * (Engine::nextId), so at an exact tie it comes first unless the
     * next event was scheduled before it (FIFO). A drain ending with
     * the segment or write in flight lands first: it started before
     * them. Stops when nothing is in flight or the next event comes
     * first; that event's handler finds the step, write or stall in
     * flight, and walks on when it is done.
     */
    void walk()
    {
        while (running_ || drain_active_) {
            const bool drain =
                drain_active_ && (!running_ || drain_end_ <= work_end_);
            const Time end = drain ? drain_end_ : work_end_;
            const EventId stamp = drain ? drain_stamp_ : work_stamp_;
            const std::optional<Engine::Next> next = eng_.peek();
            if (next && (next->when < end ||
                         (next->when == end && // lint:allow(time-eq)
                          next->id < stamp)))
                return;
            now_ = end;
            ++rep_.walked_work;
            if (drain) {
                onDrainDone();
            } else if (steps_left_ > 0) {
                onStepsDone();
            } else {
                onWriteDone();
                if (running_ && steps_left_ > 0 &&
                    (recording_ || !cycle_.empty()))
                    atBoundary(next);
            }
        }
    }

    /**
     * An interrupt may have changed anything a period repeats: record
     * boundaries afresh. Record only when the engine's next event leaves
     * room for about two periods, one to record and one to replay. A
     * cycle found earlier is kept: its states say where it applies.
     */
    void restartRecording()
    {
        recorded_ = 0;
        const std::optional<Engine::Next> next = eng_.peek();
        recording_ = period_ > 0 &&
                     (!next ||
                      timeToSeconds(next->when - now_) >= min_record_s_);
        if (recording_ && ring_.empty()) {
            const auto n = static_cast<std::size_t>(period_);
            ring_.resize(n);
            log_.resize(n * kCarriesPerBoundary);
            cycle_adds_.reserve(log_.size());
        }
    }

    /** Whether the run is in @p state now: field for field, doubles
     *  bit for bit, times relative to the clock (see WalkState). Exact
     *  time equality is the point here: equal states, not a tie. */
    bool inState(const WalkState &state) const
    {
        const Time drain_left = drain_active_ ? drain_end_ - now_ : -1;
        return ledger_.sameAboveCommitted(state.ledger) &&
               dp_now_ == state.dp && bits(price_s_) == bits(state.price_s) &&
               ckpt_boundary_ % period_ == state.phase &&
               steps_left_ == state.steps_left &&
               bits(step_len_s_) == bits(state.step_len_s) &&
               step_t_ == state.step_t &&
               work_end_ - now_ == state.work_left && // lint:allow(time-eq)
               drain_left == state.drain_left && write_ == state.write &&
               bits(write_s_) == bits(state.write_s);
    }

    /** The walk state now (see WalkState). */
    WalkState walkState() const
    {
        return {ledger_,
                dp_now_,
                price_s_,
                ckpt_boundary_ % period_,
                steps_left_,
                step_len_s_,
                step_t_,
                work_end_ - now_,
                drain_active_ ? drain_end_ - now_ : -1,
                write_,
                write_s_};
    }

    /** Put the run at a boundary in @p state at time @p at. */
    void restore(const WalkState &state, Time at)
    {
        ledger_.takeAboveCommitted(state.ledger);
        steps_left_ = state.steps_left;
        step_len_s_ = state.step_len_s;
        step_t_ = state.step_t;
        work_started_ = at;
        work_end_ = at + state.work_left;
        work_stamp_ = eng_.nextId();
        if (state.drain_left >= 0) {
            // A drain that started in the replayed periods started after
            // the engine's last event.
            if (!drain_active_ || drain_end_ <= at)
                drain_stamp_ = eng_.nextId();
            drain_active_ = true;
            drain_end_ = at + state.drain_left;
        } else {
            drain_active_ = false;
        }
        write_ = state.write;
        write_s_ = state.write_s;
        now_ = at;
    }

    /** Whether an unmitigated straggler counts toward its detection. */
    bool watchingStraggler() const
    {
        return std::any_of(stragglers_.begin(), stragglers_.end(),
                           [](const auto &s) { return !s.second.mitigated; });
    }

    /**
     * A write landed and the next segment started. When the run is in
     * the state of a boundary of the known cycle, replay from there.
     * Otherwise record the boundary; a boundary in the state of the one
     * recorded a cadence period earlier closes a cycle. Nothing is
     * replayed or recorded while warmup counts down, an unmitigated
     * straggler counts toward detection, or a finish or eviction waits
     * for durability: each moves state a boundary does not hold.
     */
    void atBoundary(const std::optional<Engine::Next> &next)
    {
        if (warmup_left_ > 0 || finishing_ || evict_rank_ >= 0 ||
            wait_ != AsyncWait::None || watchingStraggler()) {
            recorded_ = 0;
            return;
        }
        const auto phase = static_cast<std::size_t>(ckpt_boundary_ % period_);
        if (!cycle_.empty() && inState(cycle_[phase].state)) {
            replay(phase, next);
            recorded_ = 0;
            return;
        }
        if (!recording_)
            return;
        Boundary &slot = ring_[static_cast<std::size_t>(recorded_ % period_)];
        if (recorded_ >= period_ && inState(slot.state) && closeCycle()) {
            replay(phase, next);
            recorded_ = 0;
            return;
        }
        slot = Boundary{walkState(), now_, ledger_.steps(), ckpt_boundary_,
                        carried_};
        ++recorded_;
    }

    /**
     * The boundary now is in the state of the one recorded a cadence
     * period earlier, and nothing interrupted the walk between them:
     * the recorded period is a cycle. Keep each of its boundaries, by
     * phase, with what the walk did from it to the next. @return false
     * when the period's additions outgrew the log, or a boundary did
     * not move the cadence counter by exactly one (none without tiers).
     */
    bool closeCycle()
    {
        const std::uint64_t first = ring_[recorded_ % period_].carried;
        if (carried_ - first > log_.size())
            return false;
        const std::int64_t step = tiered_ ? 1 : 0;
        for (std::int64_t i = 0; i < period_; ++i) {
            const Boundary &b = ring_[(recorded_ + i) % period_];
            const std::int64_t next_counter =
                i + 1 < period_ ? ring_[(recorded_ + i + 1) % period_].counter
                                : ckpt_boundary_;
            if (next_counter - b.counter != step)
                return false;
        }
        cycle_.resize(ring_.size());
        cycle_adds_.clear();
        cycle_period_ = 0;
        cycle_steps_ = 0;
        for (std::int64_t i = 0; i < period_; ++i) {
            const Boundary &b = ring_[(recorded_ + i) % period_];
            const bool last = i + 1 == period_;
            const Boundary *n =
                last ? nullptr : &ring_[(recorded_ + i + 1) % period_];
            CycleStep &c = cycle_[static_cast<std::size_t>(b.state.phase)];
            c.state = b.state;
            c.dt = (last ? now_ : n->at) - b.at;
            c.steps = (last ? ledger_.steps() : n->steps) - b.steps;
            c.first = cycle_adds_.size();
            const std::uint64_t end = last ? carried_ : n->carried;
            for (std::uint64_t a = b.carried; a < end; ++a)
                cycle_adds_.push_back(log_[a % log_.size()]);
            c.last = cycle_adds_.size();
            cycle_period_ += c.dt;
            cycle_steps_ += c.steps;
        }
        return true;
    }

    /**
     * The run is at the cycle's boundary @p phase: with nothing to
     * interrupt it, the walk from here repeats the cycle, bit for bit.
     * Replay whole periods, then boundaries, as long as each ends
     * strictly before the engine's next event and the next repair
     * resume() could find, and leaves the finish and the wall limit
     * beyond the segment it starts. A boundary is replayed by adding
     * its recorded additions, in their order, to what carries from one
     * period into the next (the Committed rung, the checkpoint and
     * drain-stall buckets); then the run is put at the boundary the
     * replay ends at, its clock, cadence counter and work in flight
     * moved forward. The walk goes on from there.
     */
    void replay(std::size_t phase, const std::optional<Engine::Next> &next)
    {
        const Time horizon =
            std::min(next ? next->when : kNever, repair_ready_);
        // The most steps done at a boundary whose segment the finish
        // does not cut.
        const std::int64_t room = cfg_.total_steps - interval_steps_;
        const std::int64_t periods = std::max<std::int64_t>(
            0, std::min({(horizon - 1 - now_) / cycle_period_,
                         (room - ledger_.steps()) / cycle_steps_,
                         (wall_limit_ - work_end_) / cycle_period_}));
        Time at = now_ + periods * cycle_period_;
        std::int64_t steps = ledger_.steps() + periods * cycle_steps_;
        const std::size_t n = cycle_.size();
        std::size_t end = phase;
        std::size_t partial = 0;
        for (; partial < n; ++partial) {
            const CycleStep &from = cycle_[end];
            const CycleStep &to = cycle_[(end + 1) % n];
            if (at + from.dt >= horizon || steps + from.steps > room ||
                at + from.dt + to.state.work_left > wall_limit_)
                break;
            at += from.dt;
            steps += from.steps;
            end = (end + 1) % n;
        }
        if (periods == 0 && partial == 0)
            return;
        for (std::int64_t p = 0; p < periods; ++p)
            for (std::size_t i = 0; i < n; ++i)
                replayAdditions(cycle_[(phase + i) % n]);
        for (std::size_t i = 0; i < partial; ++i)
            replayAdditions(cycle_[(phase + i) % n]);
        // Each boundary moved the cadence counter by one (closeCycle).
        if (tiered_)
            ckpt_boundary_ += periods * period_ +
                              static_cast<std::int64_t>(partial);
        restore(cycle_[end].state, at);
    }

    /** Add @p step's recorded additions, in their order. */
    void replayAdditions(const CycleStep &step)
    {
        for (std::size_t a = step.first; a < step.last; ++a) {
            const Carry &add = cycle_adds_[a];
            if (add.bucket != nullptr)
                *add.bucket += add.seconds;
            else
                ledger_.credit(Rung::Committed, add.moved);
        }
    }

    /** Record @p add, when recording. */
    void record(const Carry &add)
    {
        if (recording_)
            log_[carried_++ % log_.size()] = add;
    }

    /** Add @p seconds to @p bucket, a report bucket that carries from
     *  one period into the next. */
    void carry(double &bucket, double seconds)
    {
        bucket += seconds;
        record(Carry{&bucket, seconds, {}});
    }

    /** Fold the rungs from @p from into Committed, the rung that
     *  carries from one period into the next. */
    void commit(Rung from)
    {
        record(Carry{nullptr, 0.0, ledger_.fold(from, Rung::Committed)});
    }

    /**
     * Queue an interrupt at @p when. At its turn it moves the run's
     * clock to the engine's, runs @p handle and walks on. Every Engine
     * event of a run is one.
     */
    template <typename Handle>
    EventId interruptAt(Time when, Handle handle)
    {
        return eng_.scheduleAt(when, [this, handle] {
            now_ = eng_.now();
            handle();
            restartRecording();
            walk();
        });
    }

    /** Start the in-flight step segment or write: it ends @p t from
     *  now, and walk() hands it to onStepsDone or onWriteDone. */
    void startWork(Time t)
    {
        running_ = true;
        work_started_ = now_;
        work_end_ = now_ + t;
        work_stamp_ = eng_.nextId();
    }

    /**
     * Start the next segment: steps at one price. It ends at the first
     * step after which the run's own state changes what happens next:
     * the finish, the checkpoint cadence, the end of warmup, a
     * straggler detection, or the last step that starts by the wall
     * limit. A drain landing and every interrupt settle it first
     * (settleSteps), so the steps after them are priced anew.
     */
    void scheduleSteps()
    {
        if (finished_ || truncated_ || down_ || wait_ != AsyncWait::None)
            return;
        if (truncateIfLate())
            return;
        if (tiered_ && ledger_.steps() >= cfg_.total_steps) {
            // A local-tier rollback can leave every remaining step
            // already covered (only the tentative tail was lost); no
            // step completion will fire again, so finish from here.
            finish();
            return;
        }
        // After a rebalance pause the tentative tail can already be at
        // the cadence: one more step, then the checkpoint.
        std::int64_t steps = std::min(
            cfg_.total_steps - ledger_.steps(),
            std::max<std::int64_t>(
                1, interval_steps_ - ledger_[Rung::Tentative].steps));
        if (warmup_left_ > 0)
            steps = std::min(steps, warmup_left_);
        price_s_ = stepPrice(steps);
        step_len_s_ = price_s_;
        if (warmup_left_ > 0)
            step_len_s_ *= cfg_.restart.warmup_slowdown;
        if (drain_active_)
            step_len_s_ *= cfg_.storage.async.drain_step_slowdown;
        step_t_ = secondsToTime(step_len_s_);
        steps = std::min(steps, (wall_limit_ - now_) / step_t_ + 1);
        steps_left_ = steps;
        startWork(steps * step_t_);
    }

    /**
     * Credit the next @p n steps of the segment, each with its own
     * ledger addition (DESIGN.md §4's summation order), and count them
     * toward warmup and straggler detection in one walk of stragglers_.
     * @return the lowest-ranked straggler now detected, or -1.
     */
    std::int64_t creditSteps(std::int64_t n)
    {
        for (std::int64_t i = 0; i < n; ++i)
            ledger_.addStep(base_step_s_, step_len_s_ - base_step_s_);
        warmup_left_ = std::max<std::int64_t>(0, warmup_left_ - n);
        work_started_ += n * step_t_;
        steps_left_ -= n;
        // Straggler detection accumulates evidence one degraded step at
        // a time; mitigated stragglers are already handled. Lowest rank
        // wins ties — explicit even though the ordered map already
        // iterates by rank, so the policy survives a container change.
        std::int64_t detected = -1;
        for (auto &[rank, st] : stragglers_) {
            if (st.mitigated)
                continue;
            st.steps_to_detect -= n;
            if (st.steps_to_detect <= 0 && (detected < 0 || rank < detected))
                detected = rank;
        }
        return detected;
    }

    /**
     * An interrupt or a drain landing is about to change the run
     * mid-segment. Credit the steps that ended strictly before now. A
     * step ending exactly now is still in flight: whatever lands now
     * was queued before that step would have been (FIFO). Cut the
     * segment to that step; it keeps its price and its stamp.
     */
    void settleSteps()
    {
        if (steps_left_ == 0)
            return;
        const Time elapsed = now_ - work_started_;
        if (elapsed > step_t_)
            creditSteps((elapsed - 1) / step_t_);
        steps_left_ = 1;
        work_end_ = work_started_ + step_t_;
    }

    void onStepsDone()
    {
        running_ = false;
        const std::int64_t detected = creditSteps(steps_left_);
        if (ledger_.steps() >= cfg_.total_steps) {
            finish();
            return;
        }
        if (detected >= 0) {
            handleDetected(detected);
            return;
        }
        if (ledger_[Rung::Tentative].steps < interval_steps_) {
            scheduleSteps();
            return;
        }
        if (!tiered_) {
            persist();
            return;
        }
        // Hierarchical boundary: always block for the HBM peer mirror,
        // fold NVMe on its cadence, and run the global (sync save /
        // async snapshot) machinery on its own cadence. The counter
        // advances only when the write *completes*, so a fault
        // mid-boundary retries the same (possibly global) boundary
        // instead of sliding the cadence.
        const bool nvme_b = boundaryDue(cfg_.storage.hier.global_every) ||
                            boundaryDue(cfg_.storage.hier.nvme_every);
        startWrite(Write::TierBoundary,
                   ckpt_.hbmMirrorSeconds() +
                       (nvme_b ? ckpt_.nvmeWriteSeconds() : 0.0));
    }

    /** The single checkpoint-write path: block the step for @p seconds,
     *  then land the write in onWriteDone(). */
    void startWrite(Write kind, double seconds)
    {
        write_ = kind;
        write_s_ = seconds;
        startWork(secondsToTime(seconds));
    }

    void onWriteDone()
    {
        carry(rep_.checkpoint_seconds, write_s_);
        running_ = false;
        switch (write_) {
          case Write::Save:
            // The completed save makes everything durable (with tiers
            // it also supersedes the local coverage).
            commit(Rung::Tentative);
            afterDurable();
            return;
          case Write::Snapshot:
            // The snapshot landed in host DRAM: the steps it covers
            // wait on the filesystem drain, which starts in the
            // background. With tiers it also supersedes local coverage.
            ledger_.fold(Rung::Tentative, Rung::Pending);
            drain_active_ = true;
            drain_end_ = now_ + secondsToTime(ckpt_.drainSeconds());
            drain_stamp_ = eng_.nextId();
            if (finishing_ || evict_rank_ >= 0) {
                // Durability is on the critical path: block for the
                // drain instead of overlapping it with steps.
                wait_ = AsyncWait::Final;
                stall_started_ = now_;
            } else {
                resume();
            }
            return;
          case Write::TierBoundary: {
            const bool global_b = boundaryDue(cfg_.storage.hier.global_every);
            const bool nvme_b =
                global_b || boundaryDue(cfg_.storage.hier.nvme_every);
            ++ckpt_boundary_;
            // The fresh mirror covers the tentative tail.
            ledger_.fold(Rung::Tentative, Rung::Hbm);
            if (nvme_b)
                ledger_.fold(Rung::Hbm, Rung::Nvme);
            if (global_b)
                persist();
            else
                scheduleSteps();
            return;
          }
        }
    }

    /**
     * Make every completed step durable, then continue per
     * afterDurable(): a sync save commits when it lands; async takes a
     * snapshot, whose drain commits. finishing_ and evict_rank_ say
     * what comes next, so both modes read the same continuation.
     */
    void persist()
    {
        if (!async_) {
            startWrite(Write::Save, ckpt_.saveSeconds());
        } else if (drain_active_) {
            // The single host snapshot buffer forces a stall while the
            // previous drain is still writing it out.
            wait_ = AsyncWait::Snapshot;
            stall_started_ = now_;
        } else {
            startWrite(Write::Snapshot, ckpt_.snapshotSeconds());
        }
    }

    void onDrainDone()
    {
        settleSteps();
        drain_active_ = false;
        commit(Rung::Pending);
        const AsyncWait waited = wait_;
        settleStall();
        if (waited == AsyncWait::Snapshot)
            persist();
        else if (waited == AsyncWait::Final)
            afterDurable();
    }

    /** Progress just became durable: end the run, evict the localized
     *  straggler, or carry on. */
    void afterDurable()
    {
        if (finishing_) {
            finished_ = true;
            stopped_at_ = now_;
        } else if (evict_rank_ >= 0) {
            const std::int64_t victim = topo_.nodeOf(evict_rank_);
            stragglers_.erase(evict_rank_);
            evict_rank_ = -1;
            // An eviction removes one GPU deliberately — same blast
            // radius as a GpuFatal for tier selection.
            beginRecovery(cfg_.detection.straggler_analysis_seconds,
                          restoreTier(BlastRadius::Gpu), victim);
        } else {
            resume();
        }
    }

    void finish()
    {
        // The run always ends by making the final steps durable.
        finishing_ = true;
        persist();
    }

    /** Straggler localized: rebalance if the policy allows and the DP
     *  peers have the memory headroom to absorb the shifted
     *  micro-batches; otherwise checkpoint and evict. */
    void handleDetected(std::int64_t detected)
    {
        auto &st = stragglers_[detected];
        if (pol_.stragglerRebalance() && st.speed > 0.0 && st.speed < 1.0 &&
            dp_now_ > 1) {
            const double degraded_ratio =
                job_.degradedStepSeconds({{detected, st.speed}}) /
                base_step_s_;
            const RebalancePlan plan = planMicrobatchRebalance(
                st.speed, dp_now_ - 1, step_->nmb,
                sim_.rebalanceHeadroomMicrobatches(detected, dp_now_));
            if (plan.feasible &&
                plan.residual_multiplier <= pol_.rebalanceMaxResidual() &&
                plan.residual_multiplier < degraded_ratio) {
                st.mitigated = true;
                st.residual = plan.residual_multiplier;
                ++rep_.rebalances;
                // A pure pause: localization + rebalance push, charged
                // to detection, no recovery work, no warmup.
                beginOutage(&rep_.restart_seconds,
                            cfg_.detection.straggler_analysis_seconds +
                                pol_.rebalanceSeconds(),
                            0.0, false);
                return;
            }
        }
        // Orderly maintenance restart: make progress durable first (no
        // lost work), then evict the culprit through the recovery path.
        evict_rank_ = detected;
        persist();
    }

    /**
     * The single outage entry point: @p detection_s of detection
     * latency, then @p rest_s of recovery work charged to @p bucket.
     * Both are charged upfront and refunded if a back-to-back failure
     * cuts the outage short. Recoveries, regrows and migrations are
     * followed by @p warmup steps; a rebalance pause is not.
     */
    void beginOutage(double *bucket, double detection_s, double rest_s,
                     bool warmup = true)
    {
        rep_.detection_seconds += detection_s;
        *bucket += rest_s;
        outage_rest_s_ = rest_s;
        outage_bucket_ = bucket;
        if (warmup)
            warmup_left_ = cfg_.restart.warmup_steps;
        // Recoveries, regrows and migrations change what resume() would
        // do with a ready repair, and a fatal fault submits one: replay
        // nothing until resume() has looked again.
        repair_ready_ = 0;
        down_ = true;
        resume_at_ = now_ + secondsToTime(detection_s + rest_s);
        resume_event_ = interruptAt(resume_at_, [this] {
            down_ = false;
            scheduleSteps();
        });
    }

    /**
     * Restore-tier selection (peek; consumes nothing): the newest tier
     * whose surviving copies cover the fault's blast radius *and* whose
     * restore protocol fits the recovery path about to be dispatched. A
     * Host radius destroyed both local tiers -> Global on every path.
     * The HBM peer tier lives in process memory, so only the live paths
     * (warm-spare swap / DP-shrink) can use it, and only when the
     * partial-restart protocol is enabled; a full restart tears the
     * processes down and re-reads host-local NVMe instead.
     */
    CheckpointTier restoreTier(BlastRadius radius)
    {
        if (!tiered_ || radius == BlastRadius::Host)
            return CheckpointTier::Global;
        if (recoveryPath() != Path::Restart)
            return pol_.partialRestart() ? CheckpointTier::HbmPeer
                                         : CheckpointTier::Global;
        return CheckpointTier::HostLocal;
    }

    /** Recovery dispatch: warm spare -> DP shrink -> full restart,
     *  restoring from @p tier (selected by restoreTier for the same
     *  pre-dispatch state, so the paths agree). @p victim_host names
     *  the failed node so a placement-aware policy can pick the
     *  nearest spare and price the swap over the actual path. */
    void beginRecovery(double detection_s, CheckpointTier tier,
                       std::int64_t victim_host)
    {
        double &tier_restore_s =
            rep_.tier_restore_seconds[static_cast<std::size_t>(tier)];
        if (tier == CheckpointTier::HbmPeer) {
            // Partial restart: only the replacement ranks re-fetch from
            // DP-peer mirrors; no fleet-wide filesystem read.
            ++rep_.partial_restarts;
        }
        RecoveryCostRequest req;
        const Path path = recoveryPath();
        if (path == Path::Swap) {
            ++rep_.spare_swaps;
            req.kind = tier == CheckpointTier::HbmPeer
                           ? RecoveryCostRequest::Kind::PartialRestart
                           : RecoveryCostRequest::Kind::SpareSwap;
            const SpareClaim claim = *sparePool().claimNearest(victim_host);
            if (pol_.placementAware()) {
                req.spare_path = claim.path;
                if (!claim.pod_local) {
                    // The replacement lives in another pod: the swap is
                    // priced over the spine and the rank runs displaced
                    // until it can migrate home.
                    ++rep_.cross_pod_swaps;
                    ++displaced_;
                }
            }
            const CostBreakdown cost = sim_.recovery_.price(req);
            tier_restore_s += cost.restoreCriticalSeconds();
            beginOutage(&rep_.spare_swap_seconds, detection_s,
                        cost.totalSeconds());
            return;
        }
        if (path == Path::Shrink) {
            setDp(dp_now_ - 1);
            ++rep_.dp_shrinks;
            req.kind = RecoveryCostRequest::Kind::Shrink;
            req.to_dp = dp_now_;
            req.restore_tier = tier;
            const double shrink_s = sim_.recovery_.price(req).totalSeconds();
            tier_restore_s += shrink_s - pol_.swapReinitSeconds();
            beginOutage(&rep_.shrink_seconds, detection_s, shrink_s);
            return;
        }
        ++rep_.restarts;
        const double load_s = tier == CheckpointTier::HostLocal
                                  ? ckpt_.nvmeRestoreSeconds()
                                  : ckpt_.loadSeconds();
        tier_restore_s += load_s;
        beginOutage(&rep_.restart_seconds, detection_s,
                    cfg_.restart.reinit_seconds + load_s);
    }

    /** Continue from a durable checkpoint boundary, the batching point
     *  for completed repairs. Migration first: a repair in a displaced
     *  rank's home pod lets it move back onto the repaired host, ending
     *  the spine penalty and returning its cross-pod spare to the pool.
     *  (The repair shop does not track pod identity, so any ready
     *  repair stands in for "the victim's pod has a healthy host
     *  again" — the shop repairs the host that actually broke.) Then
     *  refill the warm-spare pool (a refill is free — the host parks
     *  warm), then batch every remaining ready host into one DP-regrow
     *  priced at the target width, so a single re-init amortizes all
     *  re-admissions. Steps resume after that outage, or right away. */
    void resume()
    {
        RecoveryCostRequest req;
        if (displaced_ > 0 && repair_shop_.hasReady(now_) &&
            pol_.placementMigration()) {
            do {
                repair_shop_.pop();
                ++rep_.hosts_repaired;
                --displaced_;
                ++rep_.placement_migrations;
                sparePool().refill();
            } while (displaced_ > 0 && repair_shop_.hasReady(now_));
            req.kind = RecoveryCostRequest::Kind::MigrateHome;
            beginOutage(&rep_.displacement_seconds, 0.0,
                        sim_.recovery_.price(req).totalSeconds());
            return;
        }
        std::int64_t grew = 0;
        while (repair_shop_.hasReady(now_)) {
            const bool pool_low =
                sparePool().available() < sparePool().provisioned();
            const bool dp_low = dp_now_ + grew < cfg_.job.par.dp;
            if (!pool_low && !dp_low)
                break; // fully re-expanded; repairs wait for demand
            if (!pol_.allowRegrow())
                break;
            // One repaired host unlocks one re-admission: a shrink or
            // swap leaves exactly one broken host (the healthy rest of
            // the dropped replica's group parks with it).
            repair_shop_.pop();
            ++rep_.hosts_repaired;
            if (pool_low)
                sparePool().refill();
            else
                ++grew;
        }
        if (grew == 0) {
            // Until the next outage, a later resume() finds nothing new
            // before the next repair completes: a repair still waiting
            // now waits for a demand only an outage can bring.
            repair_ready_ =
                repair_shop_.hasReady(now_)
                    ? kNever
                    : repair_shop_.earliestCompletion().value_or(kNever);
            scheduleSteps();
            return;
        }
        setDp(dp_now_ + grew);
        rep_.dp_regrows += grew;
        // Nothing is rolled back: the re-admitted replica pulls live
        // state from its peers, so tentative/pending work survives.
        req.kind = RecoveryCostRequest::Kind::Regrow;
        req.to_dp = dp_now_;
        beginOutage(&rep_.regrow_seconds, 0.0,
                    sim_.recovery_.price(req).totalSeconds());
    }

    /** Charge the elapsed part of a drain stall as real wall time. */
    void settleStall()
    {
        if (wait_ == AsyncWait::None)
            return;
        carry(rep_.drain_stall_seconds, timeToSeconds(now_ - stall_started_));
        wait_ = AsyncWait::None;
    }

    /**
     * Abort whatever the run is doing right now: a drain stall ends
     * (the durability it waited for may never arrive), an in-flight
     * step or non-durable write is lost, and the un-elapsed tail of an
     * outage is refunded (the recovery it paid for never happens). At
     * most one of the three is in progress.
     */
    void abortInFlight()
    {
        settleStall();
        if (running_) {
            rep_.lost_seconds += timeToSeconds(now_ - work_started_);
            running_ = false;
            steps_left_ = 0;
        }
        if (down_) {
            eng_.cancel(resume_event_);
            const double remaining = timeToSeconds(resume_at_ - now_);
            const double rest_part = std::min(remaining, outage_rest_s_);
            *outage_bucket_ -= rest_part;
            rep_.detection_seconds -= remaining - rest_part;
            down_ = false;
        }
    }

    /**
     * Roll back to the restore point of @p tier. Global destroys all
     * non-durable work, including a snapshot whose drain has not
     * finished. The local tiers keep more: the drain (a host-side
     * checkpoint daemon writing from host DRAM) keeps running across
     * GPU-level faults and even process restarts, so pending and
     * NVMe-covered work survive; HbmPeer additionally keeps the
     * HBM-mirror-covered steps (survivor processes stay live), losing
     * only the tentative tail.
     */
    void rollbackTo(CheckpointTier tier)
    {
#if LLM4D_AUDIT_ENABLED
        const std::int64_t audit_committed = ledger_[Rung::Committed].steps;
        const std::int64_t audit_executed = ledger_.steps() + rep_.steps_lost;
#endif
        if (tier == CheckpointTier::Global)
            drain_active_ = false;
        const auto [steps, seconds] = ledger_.dropNewerThan(
            kRestorePoint[static_cast<std::size_t>(tier)]);
        rep_.lost_seconds += seconds;
        rep_.steps_lost += steps;
        // A pending finish/eviction referred to steps just rolled back;
        // the re-executed steps must re-trigger it, or a later routine
        // snapshot would terminate the run early.
        finishing_ = false;
        evict_rank_ = -1;
        LLM4D_AUDIT_CHECK("sim",
                          ledger_[Rung::Committed].steps == audit_committed,
                          "rollback changed durable progress: "
                              << audit_committed << " -> "
                              << ledger_[Rung::Committed].steps
                              << " committed steps");
        LLM4D_AUDIT_CHECK("sim",
                          ledger_.steps() + rep_.steps_lost == audit_executed,
                          "rollback lost-step ledger off: "
                              << ledger_.steps() << " kept + "
                              << rep_.steps_lost << " lost != "
                              << audit_executed << " executed");
    }

    /** End the run as incomplete once past the wall-clock limit. */
    bool truncateIfLate()
    {
        if (now_ <= wall_limit_)
            return false;
        abortInFlight();
        rollbackTo(CheckpointTier::Global);
        truncated_ = true;
        stopped_at_ = now_;
        return true;
    }

    void pumpFault()
    {
        next_fault_ = faults_.next();
        if (next_fault_.when == kNever) // lint:allow(time-eq)
            return; // every class has run past the end of the clock
        interruptAt(std::max(next_fault_.when, now_), [this] {
            if (finished_ || truncated_)
                return; // queue drains; no further faults are pulled
            const FaultEvent ev = next_fault_;
            rep_.timeline.push_back(ev);
            onFault(ev);
            pumpFault();
        });
    }

    void onFault(const FaultEvent &ev)
    {
        settleSteps();
        if (truncateIfLate())
            return;
        switch (ev.kind) {
          case FaultKind::GpuFatal:
          case FaultKind::HostCrash:
            onFatal(ev);
            break;
          case FaultKind::StragglerOnset:
            onStragglerOnset(ev);
            break;
          case FaultKind::LinkFlap:
            onLinkFlap(ev);
            break;
        }
    }

    void onFatal(const FaultEvent &ev)
    {
        const bool host_crash = ev.kind == FaultKind::HostCrash;
        ++(host_crash ? rep_.faults.host_crash : rep_.faults.gpu_fatal);
        // Into the shop unconditionally — see the policy-invariance
        // note at the RepairModel's construction.
        repair_shop_.submit(ev);
        // A replaced GPU/host also cures any straggler it hosted.
        // FaultEvent.component is a node index for HostCrash and a GPU
        // rank otherwise.
        if (host_crash) {
            std::erase_if(stragglers_, [&](const auto &entry) {
                return topo_.nodeOf(entry.first) == ev.component;
            });
        } else {
            stragglers_.erase(ev.component);
        }
        // A back-to-back failure while recovering (e.g. the replacement
        // host dies too) refunds the old outage and recovers from
        // scratch. A rebalance pause / regrow / migration is not a
        // recovery outage: nothing was rolled back when it began and a
        // drain may still be writing, so the rollback below matters;
        // after a plain recovery outage it has nothing left to drop.
        abortInFlight();
        // Select the newest restore point whose surviving copies cover
        // what this fault destroyed, roll back only the work that
        // restore point does not cover, and dispatch.
        const BlastRadius radius = faultBlastRadius(ev.kind);
        if (tiered_ && radius == BlastRadius::Host)
            ++rep_.tier_fallbacks;
        const CheckpointTier tier = restoreTier(radius);
        LLM4D_AUDIT_CHECK("sim", tierSurvives(tier, radius),
                          "restore tier "
                              << toString(tier) << " does not survive a "
                              << toString(radius) << " blast radius ("
                              << toString(ev.kind) << ")");
        rollbackTo(tier);
        beginRecovery(cfg_.detection.fast_fail_seconds, tier,
                      host_crash ? ev.component
                                 : topo_.nodeOf(ev.component));
    }

    void onStragglerOnset(const FaultEvent &ev)
    {
        ++rep_.faults.stragglers;
        const std::int64_t steps_to_detect =
            stragglerDetectionSteps(ev.severity, cfg_.detection.straggler);
        const auto [it, fresh] = stragglers_.try_emplace(
            ev.component, ActiveStraggler{ev.severity, steps_to_detect});
        if (fresh)
            return;
        const StragglerOnsetMerge merge = mergeStragglerOnset(
            it->second.speed, it->second.steps_to_detect,
            it->second.mitigated, ev.severity, steps_to_detect);
        if (merge.reset_mitigation)
            it->second = ActiveStraggler{};
        it->second.speed = merge.speed;
        it->second.steps_to_detect = merge.steps_to_detect;
    }

    void onLinkFlap(const FaultEvent &ev)
    {
        ++rep_.faults.link_flaps;
        const ActiveFlap flap{ev.when + ev.duration, ev.severity};
        const auto it = flaps_.find(ev.component);
        if (it == flaps_.end() || flap.until > it->second.until)
            flaps_[ev.component] = flap;
        interruptAt(flap.until, [this, rank = ev.component] {
            settleSteps(); // steps starting from now price without it
            const auto fit = flaps_.find(rank);
            if (fit != flaps_.end() && fit->second.until <= now_)
                flaps_.erase(fit);
        });
    }

    const TrainRunSim &sim_;
    const JobPricing &job_;
    const TrainRunConfig &cfg_;
    /** The only access to cfg_.policy: it records the swept knobs the
     *  run reads into the report's footprint. Read a knob only after
     *  the pure state predicates of its decision. */
    RecordedPolicy pol_;
    const std::int64_t interval_steps_;
    const bool async_;
    const bool tiered_;
    const double base_step_s_;
    const Time wall_limit_;

    FaultModel faults_;
    RepairModel repair_shop_;
    const Topology topo_;
    std::optional<SparePool> spare_pool_; ///< see sparePool()
    Engine eng_;
    /** The run's clock: the engine's at an event, ahead of it while
     *  walk() runs the work before the next one. Handlers read this. */
    Time now_ = 0;
    TrainRunReport rep_;
    CoverageLedger ledger_;
    // Ordered maps on purpose: both are iterated by event handlers, and
    // deterministic (rank-ordered) iteration is part of the engine's
    // bit-reproducibility contract — the nondeterminism lint rejects
    // unordered-container iteration in event-scheduling files.
    std::map<std::int64_t, ActiveFlap> flaps_;           // by NIC/rank
    std::map<std::int64_t, ActiveStraggler> stragglers_; // by rank
    FaultEvent next_fault_;    ///< the one queued fault event

    std::int64_t ckpt_boundary_ = 0; ///< cadence counter, never rolled back
    std::int64_t dp_now_;            ///< shrinks are persistent; see setDp()
    const TrainStepReport *step_;    ///< fault-free step at dp_now_
    CheckpointModel ckpt_;           ///< checkpoint pricing at dp_now_
    std::int64_t displaced_ = 0;     ///< ranks running on cross-pod spares
    std::int64_t warmup_left_ = 0;
    std::int64_t evict_rank_ = -1;   ///< straggler awaiting durable evict
    bool running_ = false;   ///< a step or checkpoint write is in flight
    bool down_ = false;      ///< an outage is in progress
    bool finished_ = false;
    bool finishing_ = false; ///< all steps done; final durability pending
    bool truncated_ = false;
    bool drain_active_ = false;
    AsyncWait wait_ = AsyncWait::None;
    Write write_ = Write::Save;  ///< the in-flight write
    double write_s_ = 0.0;       ///< its blocking seconds
    double step_len_s_ = 0.0;    ///< duration of each step in the segment
    Time step_t_ = 0;            ///< the same, as engine time
    std::int64_t steps_left_ = 0; ///< segment steps not yet credited
    Time work_started_ = 0;      ///< start of the in-flight step or write
    Time work_end_ = 0;          ///< end of the in-flight segment or write
    EventId work_stamp_ = 0;     ///< its FIFO place (see walk())
    Time drain_end_ = 0;         ///< when the active drain lands
    EventId drain_stamp_ = 0;    ///< its FIFO place
    Time stall_started_ = 0;
    Time stopped_at_ = 0;        ///< clock when the run ended (either way)
    EventId resume_event_ = 0;   ///< pending service restoration
    Time resume_at_ = 0;         ///< when that restoration fires
    double outage_rest_s_ = 0.0; ///< recovery part of the outage
    double *outage_bucket_ = nullptr; ///< where it was charged

    double price_s_ = 0.0;       ///< the segment's price before warmup
                                 ///< and drain contention

    // Replaying checkpoint periods (atBoundary, replay).
    const std::int64_t period_;  ///< boundaries per period; 0: no replay
    const double min_record_s_;  ///< the shortest stretch worth recording
    bool recording_ = false;     ///< boundaries and additions are recorded
    std::int64_t recorded_ = 0;  ///< boundaries recorded in a row
    std::vector<Boundary> ring_; ///< the last period_ of them
    std::vector<Carry> log_;     ///< the additions since, a ring
    std::uint64_t carried_ = 0;  ///< additions recorded so far
    std::vector<CycleStep> cycle_;   ///< the known cycle, by phase
    std::vector<Carry> cycle_adds_;  ///< its additions
    Time cycle_period_ = 0;          ///< its length
    std::int64_t cycle_steps_ = 0;   ///< the steps it completes
    /** The earliest a resume() can find a repair it has not seen (0
     *  until one has looked since the last outage began). */
    Time repair_ready_ = 0;
};

TrainRunReport
TrainRunSim::runWithInterval(std::int64_t interval_steps) const
{
    LLM4D_CHECK(interval_steps > 0, "checkpoint interval must be positive");
    TrainRunReport rep = RunState(*this, interval_steps).run();
    const TrainStepReport &base = baseStep();
    const double flops_per_gpu_step =
        base.tflops_per_gpu * 1e12 * base.step_seconds;
    rep.base_tflops_per_gpu = base.tflops_per_gpu;
    rep.ideal_seconds =
        static_cast<double>(cfg_.total_steps) * base.step_seconds;
    rep.goodput_tflops_per_gpu =
        rep.wall_seconds > 0.0
            ? flops_per_gpu_step *
                  static_cast<double>(rep.steps_committed) /
                  rep.wall_seconds / 1e12
            : 0.0;
    rep.availability = rep.wall_seconds > 0.0
                           ? rep.productive_seconds / rep.wall_seconds
                           : 0.0;
#if LLM4D_AUDIT_ENABLED
    // Conservation audit: every simulated second must land in exactly
    // one breakdown bucket. A leak here silently corrupts goodput and
    // every ranking built on it, so the audit tier makes it fatal. The
    // test seam lets death tests desynchronize a bucket on purpose.
    rep.lost_seconds += audit_testing::trainrun_lost_skew_seconds;
    const double audit_bucket_sum =
        rep.productive_seconds + rep.degraded_seconds +
        rep.checkpoint_seconds + rep.lost_seconds + rep.detection_seconds +
        rep.restart_seconds + rep.spare_swap_seconds + rep.shrink_seconds +
        rep.regrow_seconds + rep.drain_stall_seconds +
        rep.displacement_seconds;
    LLM4D_AUDIT_CHECK("sim",
                      std::abs(audit_bucket_sum - rep.wall_seconds) <=
                          1e-6 * std::max(rep.wall_seconds, 1.0),
                      "lost-time breakdown leaks: buckets sum to "
                          << audit_bucket_sum << " s but wall clock is "
                          << rep.wall_seconds << " s");
    LLM4D_AUDIT_CHECK("sim",
                      rep.steps_committed >= 0 &&
                          rep.steps_committed <= cfg_.total_steps,
                      "committed step count " << rep.steps_committed
                          << " outside [0, " << cfg_.total_steps << "]");
    LLM4D_AUDIT_CHECK("sim",
                      rep.final_dp == cfg_.job.par.dp - rep.dp_shrinks +
                                          rep.dp_regrows,
                      "elasticity ledger off: final dp "
                          << rep.final_dp << " != " << cfg_.job.par.dp
                          << " - " << rep.dp_shrinks << " shrinks + "
                          << rep.dp_regrows << " regrows");
#endif
    return rep;
}

std::vector<IntervalScanPoint>
TrainRunSim::scanCheckpointIntervals(
    const std::vector<std::int64_t> &intervals) const
{
    std::vector<IntervalScanPoint> points;
    points.reserve(intervals.size());
    for (const std::int64_t interval : intervals) {
        const TrainRunReport r = runWithInterval(interval);
        points.push_back(
            IntervalScanPoint{interval, r.goodput_tflops_per_gpu});
    }
    return points;
}

} // namespace llm4d
