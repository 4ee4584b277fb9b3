#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "trace.h"

namespace perfbench {

using namespace llm4d;

namespace {

/** SplitMix64 finalizer: decorrelates neighbouring seeds and indices. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed of stream @p stream (0 = faults, 1 = job) of query @p index. */
std::uint64_t
querySeed(std::uint64_t seed, std::int64_t index, std::uint64_t stream)
{
    return mix(mix(seed) ^ (2 * static_cast<std::uint64_t>(index) + stream));
}

/**
 * Table 2's 131K-context plan (tp8/cp16/pp16/dp8) with 4K-mean document
 * masks on a worn fleet: stragglers 25x and fatal faults 4x as frequent
 * as calibrated, a 2-host spare pool, and rebalancing that prices each
 * localized straggler with a TrainSim rerun. ~3000 steps of ~7 s.
 */
TrainRunConfig
runDegradedQuery(std::uint64_t fault_seed, std::uint64_t job_seed)
{
    TrainRunConfig cfg;
    cfg.job.par = ParallelismConfig{8, 16, 16, 8};
    cfg.job.seq = 131072;
    cfg.job.doc_mask_mean = 4096.0;
    cfg.job.seed = job_seed;
    GpuSpec &gpu = cfg.job.cluster.node.gpu;
    gpu.straggler_mtbf_hours /= 25.0;
    gpu.fatal_mtbf_hours /= 4.0;
    cfg.job.cluster.node.host_mtbf_hours /= 4.0;
    cfg.total_steps = 3000;
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 2;
    cfg.policy.straggler_rebalance = true;
    cfg.seed = fault_seed;
    return cfg;
}

/** plan_sweep's cluster sizes, one query class each. */
constexpr std::int64_t kPlanGpus[] = {2048, 4096, 8192, 16384};
constexpr int kPlanClasses = sizeof kPlanGpus / sizeof kPlanGpus[0];

/** One goodput-planning question at 1024 tokens/GPU, default policy
 *  grid and horizon; questions cycle through 2K, 4K, 8K and 16K GPUs. */
GoodputPlanInput
planSweepQuery(std::int64_t index, std::uint64_t fault_seed)
{
    const std::int64_t gpus = kPlanGpus[index % kPlanClasses];
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(gpus);
    in.base.global_batch_tokens = gpus * 1024;
    in.fault_seed = fault_seed;
    return in;
}

class Digest
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
    void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double
bucketSum(const TrainRunReport &r)
{
    return r.productive_seconds + r.degraded_seconds + r.checkpoint_seconds +
           r.lost_seconds + r.detection_seconds + r.restart_seconds +
           r.spare_swap_seconds + r.shrink_seconds + r.regrow_seconds +
           r.drain_stall_seconds + r.displacement_seconds;
}

/** The report invariants every run must satisfy. */
void
checkReport(const TrainRunReport &r, std::int64_t total_steps,
            std::int64_t dp, const std::string &where,
            std::vector<std::string> &failures)
{
    const auto fail = [&](const std::string &what) {
        failures.push_back(where + ": " + what);
    };
    if (!r.completed || r.steps_committed != total_steps)
        fail("incomplete run: " + std::to_string(r.steps_committed) +
             " of " + std::to_string(total_steps) + " steps committed");
    // The audit tier's conservation tolerance.
    if (std::abs(bucketSum(r) - r.wall_seconds) >
        1e-6 * std::max(r.wall_seconds, 1.0))
        fail("breakdown buckets do not sum to wall_seconds");
    if (!(r.goodput_tflops_per_gpu > 0.0 &&
          r.goodput_tflops_per_gpu <= r.base_tflops_per_gpu))
        fail("goodput outside (0, base]");
    if (r.final_dp != dp - r.dp_shrinks + r.dp_regrows)
        fail("final_dp != dp - dp_shrinks + dp_regrows");
}

} // namespace

std::optional<Workload>
parseWorkload(std::string_view name)
{
    if (name == "run_degraded")
        return Workload::RunDegraded;
    if (name == "plan_sweep")
        return Workload::PlanSweep;
    return std::nullopt;
}

const char *
workloadNames()
{
    return "run_degraded, plan_sweep";
}

int
queryClasses(Workload workload)
{
    return workload == Workload::PlanSweep ? kPlanClasses : 1;
}

int
queryClass(Workload workload, std::int64_t index)
{
    return static_cast<int>(index % queryClasses(workload));
}

Query
makeQuery(Workload workload, std::uint64_t seed, std::int64_t index)
{
    const std::uint64_t fault_seed = querySeed(seed, index, 0);
    const std::uint64_t job_seed = querySeed(seed, index, 1);
    switch (workload) {
      case Workload::RunDegraded:
        return runDegradedQuery(fault_seed, job_seed);
      case Workload::PlanSweep:
        return planSweepQuery(index, fault_seed);
    }
    return {};
}

Answer
answer(const Query &query, Tracer *tracer)
{
    if (const auto *cfg = std::get_if<TrainRunConfig>(&query)) {
        std::optional<TrainRunSim> sim;
        {
            const ScopedSpan span(tracer, "TrainRunSim::TrainRunSim");
            sim.emplace(*cfg);
        }
        const ScopedSpan span(tracer, "TrainRunSim::run");
        return sim->run();
    }
    const ScopedSpan span(tracer, "planGoodput");
    return planGoodput(std::get<GoodputPlanInput>(query));
}

std::vector<const TrainRunReport *>
reportsOf(const Answer &answer)
{
    std::vector<const TrainRunReport *> out;
    if (const auto *report = std::get_if<TrainRunReport>(&answer)) {
        out.push_back(report);
        return out;
    }
    for (const GoodputPlanCandidate &cand :
         std::get<std::vector<GoodputPlanCandidate>>(answer)) {
        for (const GoodputSweepPoint &pt : cand.sweep)
            out.push_back(&pt.report);
    }
    return out;
}

std::uint64_t
reportDigest(const TrainRunReport &r)
{
    Digest d;
    d.add(r.completed);
    for (const double v :
         {r.wall_seconds, r.ideal_seconds, r.productive_seconds,
          r.degraded_seconds, r.checkpoint_seconds, r.lost_seconds,
          r.detection_seconds, r.restart_seconds, r.spare_swap_seconds,
          r.shrink_seconds, r.regrow_seconds, r.drain_stall_seconds,
          r.displacement_seconds, r.goodput_tflops_per_gpu,
          r.base_tflops_per_gpu, r.availability})
        d.add(v);
    for (const double v : r.tier_restore_seconds)
        d.add(v);
    for (const std::int64_t v :
         {r.steps_committed, r.steps_lost, r.restarts, r.spare_swaps,
          r.cross_pod_swaps, r.placement_migrations, r.dp_shrinks,
          r.dp_regrows, r.hosts_repaired, r.rebalances, r.partial_restarts,
          r.tier_fallbacks, r.final_dp, r.faults.gpu_fatal,
          r.faults.host_crash, r.faults.link_flaps, r.faults.stragglers})
        d.add(v);
    for (const FaultEvent &e : r.timeline) {
        d.add(static_cast<int>(e.kind));
        d.add(static_cast<std::int64_t>(e.when));
        d.add(e.component);
        d.add(e.severity);
        d.add(static_cast<std::int64_t>(e.duration));
    }
    return d.value();
}

Checked
check(const Query &query, const Answer &answer)
{
    Checked out;
    Digest digest;
    for (const TrainRunReport *r : reportsOf(answer)) {
        out.sim_steps += r->steps_committed + r->steps_lost;
        digest.add(reportDigest(*r));
    }

    if (const auto *cfg = std::get_if<TrainRunConfig>(&query)) {
        checkReport(std::get<TrainRunReport>(answer), cfg->total_steps,
                    cfg->job.par.dp, "run", out.failures);
        out.digest = digest.value();
        return out;
    }

    const auto &in = std::get<GoodputPlanInput>(query);
    const auto &ranking = std::get<std::vector<GoodputPlanCandidate>>(answer);
    if (ranking.empty())
        out.failures.push_back("plan: empty ranking");
    for (std::size_t c = 0; c < ranking.size(); ++c) {
        const GoodputPlanCandidate &cand = ranking[c];
        const std::string where = "plan candidate " + cand.analytic.par.str();
        digest.add(cand.analytic.par.tp);
        digest.add(cand.analytic.par.cp);
        digest.add(cand.analytic.par.pp);
        digest.add(cand.analytic.par.dp);
        digest.add(static_cast<int>(cand.analytic.zero));
        digest.add(static_cast<int>(cand.analytic.schedule));
        digest.add(cand.goodput_tflops_per_gpu);
        digest.add(static_cast<std::int64_t>(cand.best_point));
        if (c > 0 && ranking[c - 1].goodput_tflops_per_gpu <
                         cand.goodput_tflops_per_gpu)
            out.failures.push_back(where + ": ranking not sorted by goodput");
        if (cand.sweep.empty()) {
            out.failures.push_back(where + ": empty sweep");
            continue;
        }
        // best_point is the first argmax of the sweep.
        std::size_t argmax = 0;
        for (std::size_t i = 0; i < cand.sweep.size(); ++i) {
            const GoodputSweepPoint &pt = cand.sweep[i];
            if (pt.goodput_tflops_per_gpu >
                cand.sweep[argmax].goodput_tflops_per_gpu)
                argmax = i;
            digest.add(static_cast<int>(pt.policy.mode));
            digest.add(pt.policy.spare_hosts);
            digest.add(static_cast<int>(pt.policy.checkpoint_mode));
            digest.add(pt.policy.allow_dp_shrink);
            digest.add(pt.policy.allow_regrow);
            digest.add(pt.policy.partial_restart);
            digest.add(pt.hier_global_every);
            digest.add(pt.straggler_correlation);
            digest.add(pt.checkpoint_interval_steps);
            digest.add(pt.goodput_tflops_per_gpu);
            checkReport(pt.report, in.horizon_steps, cand.analytic.par.dp,
                        where + " cell " + std::to_string(i), out.failures);
        }
        if (cand.best_point != argmax ||
            cand.goodput_tflops_per_gpu !=
                cand.sweep[argmax].goodput_tflops_per_gpu)
            out.failures.push_back(where +
                                   ": best_point is not the sweep's argmax");
    }
    out.digest = digest.value();
    return out;
}

} // namespace perfbench
