#include "llm4d/plan/goodput_planner.h"

#include <algorithm>
#include <optional>
#include <tuple>

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

/** TrainRunConfig of one {candidate, policy, tier-cadence} sweep cell.
 *  @p hier_global_every > 0 turns the hierarchical tiers on at that
 *  global cadence; 0 forces the global-only baseline regardless of the
 *  input's storage.hier.enabled. */
TrainRunConfig
cellConfig(const GoodputPlanInput &in, const PlanCandidate &cand,
           const RecoveryPolicy &policy, std::int64_t hier_global_every,
           bool straggler_correlation)
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
    cfg.faults.colocation.enabled = straggler_correlation;
    cfg.repairs = in.repairs;
    cfg.storage = in.storage;
    cfg.storage.hier.enabled = hier_global_every > 0;
    if (hier_global_every > 0) {
        cfg.storage.hier.global_every = hier_global_every;
        // The NVMe cadence cannot be coarser than the global one (an
        // NVMe write rides along at every global boundary anyway).
        cfg.storage.hier.nvme_every =
            std::min(in.storage.hier.nvme_every, hier_global_every);
    }
    cfg.detection = in.detection;
    cfg.restart = in.restart;
    cfg.policy = policy;
    cfg.seed = in.fault_seed;
    return cfg;
}

} // namespace

std::vector<RecoveryPolicy>
GoodputPlanInput::sweepPolicies() const
{
    std::vector<RecoveryPolicy> out;
    for (const std::int64_t spares : spare_pool_options) {
        for (const CheckpointMode ckpt : checkpoint_mode_options) {
            for (const bool shrink : dp_shrink_options) {
                for (const bool regrow : regrow_options) {
                    for (const bool partial : partial_restart_options) {
                        // WarmSpare only when the elastic paths have
                        // something to do; otherwise the plain
                        // full-restart baseline. Regrow is one of those
                        // paths, but it needs a pool to refill or a
                        // shrink to undo, so regrow-on is meaningless
                        // (and invalid) on the full-restart baseline —
                        // skip instead of emitting a duplicate cell.
                        // Partial restart likewise needs a live
                        // recovery path (swap or shrink), so it only
                        // sweeps on the elastic combinations.
                        const bool elastic = spares > 0 || shrink;
                        if ((regrow || partial) && !elastic)
                            continue;
                        for (const SparePlacementPolicy placement :
                             placement_options) {
                            // Spare locations only matter when there
                            // are spares to place.
                            if (placement !=
                                    SparePlacementPolicy::CentralPool &&
                                spares == 0)
                                continue;
                            RecoveryPolicy policy;
                            policy.mode = elastic
                                              ? RecoveryMode::WarmSpare
                                              : RecoveryMode::FullRestart;
                            policy.spare_hosts = spares;
                            policy.spare_placement = placement;
                            policy.placement_migration =
                                placement_migration && elastic;
                            policy.allow_dp_shrink = shrink;
                            policy.allow_regrow = regrow;
                            policy.checkpoint_mode = ckpt;
                            policy.partial_restart = partial;
                            policy.straggler_rebalance =
                                straggler_rebalance;
                            out.push_back(policy);
                        }
                    }
                }
            }
        }
    }
    return out;
}

void
GoodputPlanInput::validate() const
{
    LLM4D_CHECK(top_k > 0, "stage 2 needs at least one survivor");
    LLM4D_CHECK(horizon_steps > 0,
                "simulation horizon must be positive");
    LLM4D_CHECK(!spare_pool_options.empty() &&
                    !checkpoint_mode_options.empty() &&
                    !dp_shrink_options.empty() &&
                    !regrow_options.empty() &&
                    !hier_global_every_options.empty() &&
                    !partial_restart_options.empty() &&
                    !straggler_correlation_options.empty() &&
                    !placement_options.empty(),
                "every recovery-policy sweep axis needs at least one "
                "point");
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
    const std::vector<RecoveryPolicy> policies = in.sweepPolicies();

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
        scored.sweep.reserve(policies.size() *
                             in.hier_global_every_options.size() *
                             in.straggler_correlation_options.size());
        // The candidate's first simulated cell; every later one shares
        // its JobPricing (all cells run the same job).
        std::optional<TrainRunSim> first_sim;
        for (const RecoveryPolicy &policy : policies) {
            for (const std::int64_t hier_n : in.hier_global_every_options) {
                // Partial restart needs the HBM peer tier; the tiers
                // need a DP peer to mirror to. Skip the combinations
                // the models would (rightly) refuse to build.
                if (policy.partial_restart && hier_n == 0)
                    continue;
                if (hier_n > 0 && cand.par.dp * cand.par.cp < 2)
                    continue;
                for (const bool corr : in.straggler_correlation_options) {
                    // Correlation needs an enabled straggler class to
                    // correlate; skip rather than simulate a duplicate
                    // of the independent cell.
                    if (corr &&
                        in.base.cluster.node.gpu.straggler_mtbf_hours <=
                            0.0)
                        continue;
                    const TrainRunConfig cfg =
                        cellConfig(in, cand, policy, hier_n, corr);
                    GoodputSweepPoint pt;
                    pt.policy = policy;
                    pt.hier_global_every = hier_n;
                    pt.straggler_correlation = corr;
                    pt.reuses_cell = sharedRun(scored.sweep, pt);
                    if (pt.reuses_cell) {
                        // The same checks as building the cell's own
                        // simulator; the rest of its construction
                        // depends only on fields the run shares.
                        cfg.validate();
                        const GoodputSweepPoint &run =
                            scored.sweep[*pt.reuses_cell];
                        pt.checkpoint_interval_steps =
                            run.checkpoint_interval_steps;
                        pt.report = run.report;
                    } else {
                        std::optional<TrainRunSim> shared;
                        const TrainRunSim &sim =
                            first_sim ? shared.emplace(cfg, *first_sim)
                                      : first_sim.emplace(cfg);
                        pt.checkpoint_interval_steps =
                            sim.checkpointIntervalSteps();
                        pt.report = sim.run();
                    }
                    // Idle spares are provisioned capacity: they park
                    // whole hosts next to the job, so the per-GPU
                    // goodput the cluster owner sees is diluted by the
                    // pool.
                    const double world =
                        static_cast<double>(cand.par.worldSize());
                    const double provisioned =
                        world + static_cast<double>(
                                    policy.spare_hosts *
                                    in.base.cluster.node.gpus_per_node);
                    pt.goodput_tflops_per_gpu =
                        pt.report.goodput_tflops_per_gpu * world /
                        provisioned;
                    scored.sweep.push_back(std::move(pt));
                }
            }
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

GoodputPlanCandidate
bestGoodputPlan(const GoodputPlanInput &in)
{
    std::optional<GoodputPlanCandidate> best = tryBestGoodputPlan(in);
    LLM4D_CHECK(best.has_value(),
                "no feasible parallelism configuration for this input");
    return *std::move(best);
}

} // namespace llm4d
