#include "llm4d/plan/goodput_planner.h"

#include <algorithm>
#include <optional>
#include <tuple>

#include "llm4d/fault/checkpoint_model.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** Total order on analytic candidates: fastest first, then a canonical
 *  par/zero/schedule tie-break, so stage-1 survivor selection and the
 *  final ranking cannot depend on axis-option enumeration order. */
auto
canonicalKey(const PlanCandidate &c)
{
    return std::make_tuple(c.est_step_seconds, c.par.tp, c.par.cp,
                           c.par.pp, static_cast<int>(c.zero),
                           static_cast<int>(c.schedule));
}

bool
samePlan(const PlanCandidate &a, const PlanCandidate &b)
{
    return a.par == b.par && a.zero == b.zero &&
           a.schedule == b.schedule;
}

/**
 * Crosses one sweep axis into @p cells: each cell, in order, becomes one
 * cell per option, in option order, with @p field set to the option.
 * Crossing the axes one after another, the first outermost, gives the
 * grid's order; the digests and best_point's tie-break depend on it.
 */
template <typename Cell, typename T>
void
cross(std::vector<Cell> &cells, const std::vector<T> &options,
      T Cell::*field)
{
    LLM4D_CHECK(!options.empty(),
                "every recovery-policy sweep axis needs at least one "
                "point");
    std::vector<Cell> crossed;
    crossed.reserve(cells.size() * options.size());
    for (const Cell &cell : cells) {
        for (const T option : options) {
            crossed.push_back(cell);
            crossed.back().*field = option;
        }
    }
    cells = std::move(crossed);
}

/** The policy axes crossed, before any rule drops a policy. */
std::vector<RecoveryPolicy>
crossPolicyAxes(const GoodputPlanInput &in)
{
    std::vector<RecoveryPolicy> policies(1);
    policies[0].straggler_rebalance = in.straggler_rebalance;
    cross(policies, in.spare_pool_options, &RecoveryPolicy::spare_hosts);
    cross(policies, in.checkpoint_mode_options,
          &RecoveryPolicy::checkpoint_mode);
    cross(policies, in.dp_shrink_options, &RecoveryPolicy::allow_dp_shrink);
    cross(policies, in.regrow_options, &RecoveryPolicy::allow_regrow);
    cross(policies, in.partial_restart_options,
          &RecoveryPolicy::partial_restart);
    cross(policies, in.placement_options, &RecoveryPolicy::spare_placement);
    for (RecoveryPolicy &p : policies) {
        // The elastic paths (spare swap, DP shrink) need a pool or a
        // shrink; without either the cell is the full-restart baseline.
        const bool elastic = p.spare_hosts > 0 || p.allow_dp_shrink;
        p.mode = elastic ? RecoveryMode::WarmSpare : RecoveryMode::FullRestart;
        p.placement_migration = in.placement_migration && elastic;
    }
    return policies;
}

// The grid's rules. Each drops cells whose knob has nothing to act on,
// or that the models would refuse to build; a cell is swept only where
// every rule keeps it.

/** Rules 1-2, the ones a policy alone decides. */
bool
policyApplies(const RecoveryPolicy &p)
{
    // 1. Regrow needs a pool to refill or a shrink to undo, and partial
    //    restart a live recovery path: both need the elastic paths.
    if ((p.allow_regrow || p.partial_restart) &&
        p.mode != RecoveryMode::WarmSpare)
        return false;
    // 2. Spare locations matter only when there are spares to place.
    return p.spare_placement == SparePlacementPolicy::CentralPool ||
           p.spare_hosts > 0;
}

/** All five rules, for @p cell of a candidate laid out as @p par. */
bool
cellApplies(const GoodputSweepPoint &cell, const GoodputPlanInput &in,
            const ParallelismConfig &par)
{
    if (!policyApplies(cell.policy))
        return false;
    // 3. Partial restart restores from the HBM peer tier.
    if (cell.policy.partial_restart && cell.hier_global_every == 0)
        return false;
    // 4. The tiers mirror each rank's shard to a DP peer.
    if (cell.hier_global_every > 0 && !hasDpPeer(par))
        return false;
    // 5. Correlation needs an enabled straggler class to correlate.
    return !cell.straggler_correlation ||
           in.base.cluster.node.gpu.straggler_mtbf_hours > 0.0;
}

/**
 * The earliest simulated cell of @p sweep whose run is also @p cell's:
 * same tier cadence and correlation flag (the rest of the config is the
 * candidate's), and a policy that agrees with the cell's on every knob
 * that run read (sharesRun). nullopt when the cell needs its own run.
 */
std::optional<std::size_t>
sharedRun(const std::vector<GoodputSweepPoint> &sweep,
          const GoodputSweepPoint &cell)
{
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const GoodputSweepPoint &run = sweep[i];
        if (!run.reuses_cell &&
            run.hier_global_every == cell.hier_global_every &&
            run.straggler_correlation == cell.straggler_correlation &&
            sharesRun(run.policy, run.report.footprint, cell.policy))
            return i;
    }
    return std::nullopt;
}

/** TrainRunConfig of @p cell of candidate @p cand. A tier cadence > 0
 *  turns the hierarchical tiers on at that global cadence; 0 forces the
 *  global-only baseline regardless of the input's storage.hier.enabled. */
TrainRunConfig
cellConfig(const GoodputPlanInput &in, const PlanCandidate &cand,
           const GoodputSweepPoint &cell)
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
    // Young-Daly auto mode: each cell gets the interval matched to its
    // checkpoint mode (async contracts it to the snapshot-cost optimum).
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.faults = in.faults;
    cfg.faults.colocation.enabled = cell.straggler_correlation;
    cfg.repairs = in.repairs;
    cfg.storage = in.storage;
    cfg.storage.hier.enabled = cell.hier_global_every > 0;
    if (cell.hier_global_every > 0) {
        cfg.storage.hier.global_every = cell.hier_global_every;
        // The NVMe cadence cannot be coarser than the global one (an
        // NVMe write rides along at every global boundary anyway).
        cfg.storage.hier.nvme_every =
            std::min(in.storage.hier.nvme_every, cell.hier_global_every);
    }
    cfg.detection = in.detection;
    cfg.restart = in.restart;
    cfg.policy = cell.policy;
    cfg.seed = in.fault_seed;
    return cfg;
}

} // namespace

std::vector<RecoveryPolicy>
GoodputPlanInput::sweepPolicies() const
{
    std::vector<RecoveryPolicy> policies = crossPolicyAxes(*this);
    std::erase_if(policies, [](const RecoveryPolicy &p) {
        return !policyApplies(p);
    });
    return policies;
}

void
GoodputPlanInput::validate() const
{
    LLM4D_CHECK(top_k > 0, "stage 2 needs at least one survivor");
    LLM4D_CHECK(horizon_steps > 0,
                "simulation horizon must be positive");
    for (const std::int64_t spares : spare_pool_options)
        LLM4D_CHECK(spares >= 0, "spare pool sizes cannot be negative");
    for (const std::int64_t n : hier_global_every_options)
        LLM4D_CHECK(n >= 0,
                    "hierarchical global cadence must be >= 0 (0 = "
                    "global-only)");
    LLM4D_CHECK(base.cluster.fatalFailuresPerHour() > 0.0,
                "goodput planning needs an enabled fatal failure class "
                "(Young-Daly auto intervals are undefined without one)");
    faults.validate();
    repairs.validate();
    storage.validate();
}

std::vector<GoodputPlanCandidate>
planGoodput(const GoodputPlanInput &in)
{
    in.validate();
    // The grid: the policy axes, then each cell's tier cadence and
    // straggler correlation. Each candidate keeps the cells that
    // cellApplies to it.
    std::vector<GoodputSweepPoint> grid;
    for (const RecoveryPolicy &policy : crossPolicyAxes(in))
        grid.emplace_back().policy = policy;
    cross(grid, in.hier_global_every_options,
          &GoodputSweepPoint::hier_global_every);
    cross(grid, in.straggler_correlation_options,
          &GoodputSweepPoint::straggler_correlation);

    // ---- Stage 1: analytic pruning to the top-K survivors. ----
    const std::vector<PlanCandidate> plans = enumeratePlans(in.base);
    std::vector<PlanCandidate> feasible;
    for (const PlanCandidate &cand : plans) {
        if (cand.feasible)
            feasible.push_back(cand);
    }
    std::sort(feasible.begin(), feasible.end(),
              [](const PlanCandidate &a, const PlanCandidate &b) {
                  return canonicalKey(a) < canonicalKey(b);
              });
    if (feasible.size() > static_cast<std::size_t>(in.top_k))
        feasible.resize(static_cast<std::size_t>(in.top_k));
    // The analytic planner's preferred pick always competes, even when
    // the Section-5.1 near-tie preference rules moved it past the raw
    // top-K cutoff — stage 2 exists to judge exactly that pick.
    if (const std::optional<PlanCandidate> preferred =
            tryPreferredPlan(plans)) {
        const bool present =
            std::any_of(feasible.begin(), feasible.end(),
                        [&](const PlanCandidate &c) {
                            return samePlan(c, *preferred);
                        });
        if (!present)
            feasible.push_back(*preferred);
    }

    // ---- Stage 2: policy sweep under common random numbers. ----
    // The fault timeline is a pure function of (cluster, tuning, seed),
    // all identical across cells, so every candidate and policy faces
    // the exact same failures and the ranking isolates what each plan
    // does about them.
    std::vector<GoodputPlanCandidate> out;
    out.reserve(feasible.size());
    for (const PlanCandidate &cand : feasible) {
        GoodputPlanCandidate scored;
        scored.analytic = cand;
        scored.sweep.reserve(grid.size());
        // The candidate's first simulated cell; every later one shares
        // its JobPricing (all cells run the same job).
        std::optional<TrainRunSim> first_sim;
        for (const GoodputSweepPoint &cell : grid) {
            if (!cellApplies(cell, in, cand.par))
                continue;
            GoodputSweepPoint pt = cell;
            const TrainRunConfig cfg = cellConfig(in, cand, pt);
            pt.reuses_cell = sharedRun(scored.sweep, pt);
            if (pt.reuses_cell) {
                // The same checks as building the cell's own simulator;
                // the rest of its construction depends only on fields
                // the run shares.
                cfg.validate();
                const GoodputSweepPoint &run = scored.sweep[*pt.reuses_cell];
                pt.checkpoint_interval_steps = run.checkpoint_interval_steps;
                pt.report = run.report;
            } else {
                std::optional<TrainRunSim> shared;
                const TrainRunSim &sim = first_sim
                                             ? shared.emplace(cfg, *first_sim)
                                             : first_sim.emplace(cfg);
                pt.checkpoint_interval_steps = sim.checkpointIntervalSteps();
                pt.report = sim.run();
            }
            // Idle spares are provisioned capacity: they park whole hosts
            // next to the job, so the per-GPU goodput the cluster owner
            // sees is diluted by the pool.
            const double world = static_cast<double>(cand.par.worldSize());
            const double provisioned =
                world + static_cast<double>(
                            pt.policy.spare_hosts *
                            in.base.cluster.node.gpus_per_node);
            pt.goodput_tflops_per_gpu =
                pt.report.goodput_tflops_per_gpu * world / provisioned;
            scored.sweep.push_back(std::move(pt));
        }
        // A candidate with no simulable cell (e.g. dp*cp == 1 under a
        // tiers-only axis) cannot be ranked — drop it rather than
        // dereference an empty sweep.
        if (scored.sweep.empty())
            continue;
        for (std::size_t i = 0; i < scored.sweep.size(); ++i) {
            if (scored.sweep[i].goodput_tflops_per_gpu >
                scored.sweep[scored.best_point].goodput_tflops_per_gpu)
                scored.best_point = i;
        }
        scored.goodput_tflops_per_gpu =
            scored.best().goodput_tflops_per_gpu;
        out.push_back(std::move(scored));
    }

    std::sort(out.begin(), out.end(),
              [](const GoodputPlanCandidate &a,
                 const GoodputPlanCandidate &b) {
                  if (a.goodput_tflops_per_gpu !=
                      b.goodput_tflops_per_gpu)
                      return a.goodput_tflops_per_gpu >
                             b.goodput_tflops_per_gpu;
                  return canonicalKey(a.analytic) <
                         canonicalKey(b.analytic);
              });
    return out;
}

std::optional<GoodputPlanCandidate>
tryBestGoodputPlan(const GoodputPlanInput &in)
{
    std::vector<GoodputPlanCandidate> ranked = planGoodput(in);
    if (ranked.empty())
        return std::nullopt;
    return std::move(ranked.front());
}

} // namespace llm4d
