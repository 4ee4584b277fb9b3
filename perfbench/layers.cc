#include "layers.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "llm4d/cp/sharding.h"
#include "llm4d/fault/fault_model.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/executor.h"
#include "llm4d/pp/legality.h"
#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/rng_streams.h"
#include "llm4d/tensor/doc_mask.h"
#include "trace.h"

namespace perfbench {

using namespace llm4d;

namespace {

/** Keeps replayed results observable so no call is optimized away. */
volatile double g_sink = 0.0;

void
sink(double v)
{
    g_sink = g_sink + v;
}

/** Running mean of one metric over the calls of one query. */
struct Mean
{
    double sum = 0.0;
    double count = 0.0;

    void add(double total, double calls = 1.0)
    {
        sum += total;
        count += calls;
    }
};

using Means = std::map<std::string, Mean>;

/** Summed duration of @p parent's direct children named @p name. */
double
childrenUs(const Tracer &tracer, int parent, const std::string &name)
{
    double us = 0.0;
    for (int id = parent + 1; id < tracer.size(); ++id) {
        const Tracer::Span &s = tracer.span(id);
        if (s.parent == parent && s.name == name)
            us += s.durationUs();
    }
    return us;
}

Schedule
buildSchedule(ScheduleKind kind, const ScheduleParams &sp)
{
    switch (kind) {
      case ScheduleKind::Interleaved1F1B:
        return buildInterleaved1F1B(sp);
      case ScheduleKind::AllForwardAllBackward:
        return buildAllForwardAllBackward(sp);
      case ScheduleKind::Flexible:
        break;
    }
    return buildFlexible(sp);
}

/**
 * Replay one priced step through the layers TrainSim composes: the
 * TrainSim itself, its micro-batch masks (same RNG stream), the worst CP
 * rank's pair counts, the PP schedule's build / legality / execution /
 * in-flight peaks, and one P2P pricing per executed op.
 */
void
replayJob(const TrainJobConfig &job, Tracer &tracer, Means &m)
{
    const ScopedSpan job_span(&tracer, "job " + job.par.str());
    std::int64_t nmb = 0, v = 0;
    m["sim.step_price_us"].add(timedSpan(tracer, "TrainSim", 1, [&] {
        const TrainSim sim(job);
        sink(sim.run().step_seconds);
        nmb = sim.microBatches();
        v = sim.virtualStages();
    }));

    // One mask at a time, sampled then counted, as TrainSim does: the
    // mask is hot when its pairs are counted and its memory is reused.
    const bool doc = job.doc_mask_mean > 0.0;
    const std::int64_t cp = job.par.cp;
    const CpSharding sharding(job.seq, cp);
    Rng rng(job.seed, rng_streams::kDocMaskSampleStream);
    for (std::int64_t i = 0; i < nmb; ++i) {
        std::optional<DocMask> mask;
        m["tensor.doc_mask_us"].add(timedSpan(
            tracer, doc ? "DocMask::sample" : "DocMask::causal", 1, [&] {
                mask.emplace(doc ? DocMask::sample(job.seq, job.doc_mask_mean,
                                                   rng)
                                 : DocMask::causal(job.seq));
            }));
        m["cp.pairs_us"].add(timedSpan(
            tracer, cp == 1 ? "DocMask::totalPairs" : "CpSharding::pairsOf",
            cp, [&] {
                std::int64_t worst = cp == 1 ? mask->totalPairs() : 0;
                for (std::int64_t r = 0; cp > 1 && r < cp; ++r)
                    worst = std::max(worst, sharding.pairsOf(r, *mask));
                sink(static_cast<double>(worst));
            }));
    }

    ScheduleParams sp;
    sp.pp = job.par.pp;
    sp.v = v;
    sp.nmb = nmb;
    sp.nc = job.nc > 0 ? job.nc : std::min(nmb, job.par.pp);
    std::optional<Schedule> schedule;
    m["pp.build_us"].add(timedSpan(
        tracer, std::string("build") + scheduleKindName(job.schedule), 1,
        [&] { schedule.emplace(buildSchedule(job.schedule, sp)); }));
    const double legality_us =
        timedSpan(tracer, "checkSchedule", 1,
                  [&] { sink(checkSchedule(*schedule).legal ? 1.0 : 0.0); });
    m["pp.legality_us"].add(legality_us);
    // Uniform stage costs: the executor's own work, not TrainSim's cost
    // table. executeSchedule re-runs the legality check, so its self
    // time excludes the separately timed checkSchedule above.
    ExecResult exec;
    const double execute_us = timedSpan(tracer, "executeSchedule", 1, [&] {
        exec = executeSchedule(*schedule,
                               ExecConfig::uniform(1e-3, 2e-3, 1e-5));
    });
    m["pp.execute_us"].add(execute_us - legality_us);
    m["pp.peak_in_flight_us"].add(
        timedSpan(tracer, "ExecResult::peakInFlight", sp.pp, [&] {
            for (std::int64_t r = 0; r < sp.pp; ++r)
                sink(static_cast<double>(exec.peakInFlight(r)));
        }));

    if (sp.pp > 1) {
        // The boundary tensor TrainSim prices between adjacent PP stages.
        const Topology topo(job.cluster);
        const CollectiveModel coll(topo);
        const RankGrid grid(job.par);
        const std::int64_t boundary_bytes =
            2 * (job.mbs * job.seq / cp) * job.model.hidden / job.par.tp;
        std::vector<std::pair<std::int64_t, std::int64_t>> peer(
            static_cast<std::size_t>(sp.pp));
        for (std::int64_t r = 0; r < sp.pp; ++r)
            peer[static_cast<std::size_t>(r)] = {
                grid.rankOf(RankCoord{0, 0, r, 0}),
                grid.rankOf(RankCoord{0, 0, (r + 1) % sp.pp, 0})};
        const auto ops = static_cast<std::int64_t>(exec.records.size());
        m["net.p2p_ns"].add(
            1e3 * timedSpan(tracer, "CollectiveModel::p2p", ops,
                            [&] {
                                for (const OpRecord &rec : exec.records) {
                                    const auto &[src, dst] = peer
                                        [static_cast<std::size_t>(rec.rank)];
                                    sink(coll.p2p(src, dst, boundary_bytes));
                                }
                            }),
            static_cast<double>(ops));
    }
}

/**
 * The jobs a run prices: its base job, plus one straggler-injected job
 * per distinct StragglerOnset in @p reports, with the straggler mapped
 * to its PP stage's representative rank as TrainRunSim does.
 */
std::vector<TrainJobConfig>
pricedJobs(const TrainJobConfig &base,
           const std::vector<const TrainRunReport *> &reports)
{
    const RankGrid grid(base.par);
    std::set<std::pair<std::int64_t, double>> onsets;
    for (const TrainRunReport *r : reports) {
        for (const FaultEvent &e : r->timeline) {
            if (e.kind != FaultKind::StragglerOnset)
                continue;
            const std::int64_t stage = grid.coordOf(e.component).pp;
            onsets.emplace(grid.rankOf(RankCoord{0, 0, stage, 0}),
                           e.severity);
        }
    }
    std::vector<TrainJobConfig> jobs{base};
    for (const auto &[rank, speed] : onsets) {
        TrainJobConfig job = base;
        job.perf.injectStraggler(rank, speed);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** FaultModel::next replayed over @p events draws of @p cfg's timeline,
 *  plus the fault counts of @p reports. */
void
replayFaults(const TrainRunConfig &cfg, std::size_t events,
             const std::vector<const TrainRunReport *> &reports,
             Tracer &tracer, Means &m)
{
    if (events > 0) {
        FaultModel model(cfg.job.cluster, cfg.faults, cfg.seed);
        m["fault.next_ns"].add(
            1e3 * timedSpan(tracer, "FaultModel::next",
                            static_cast<std::int64_t>(events),
                            [&] {
                                for (std::size_t i = 0; i < events; ++i)
                                    sink(static_cast<double>(
                                        model.next().when));
                            }),
            static_cast<double>(events));
    }
    for (const TrainRunReport *r : reports) {
        m["fault.events_per_run"].add(static_cast<double>(r->timeline.size()));
        m["fault.recoveries_per_run"].add(
            static_cast<double>(r->restarts + r->spare_swaps + r->dp_shrinks));
    }
}

/** The TrainRunConfig planGoodput simulates for one sweep cell. */
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

/** plan.* metrics of one planner answer. */
void
planMetrics(double enumerate_us, double goodput_us,
            const std::vector<GoodputPlanCandidate> &ranking,
            LayerSample &out)
{
    std::set<std::uint64_t> distinct;
    double cells = 0.0;
    for (const GoodputPlanCandidate &cand : ranking) {
        for (const GoodputSweepPoint &pt : cand.sweep)
            distinct.insert(reportDigest(pt.report));
        cells += static_cast<double>(cand.sweep.size());
    }
    out.values["plan.enumerate_ms"] = enumerate_us / 1e3;
    out.values["plan.goodput_ms"] = goodput_us / 1e3;
    out.values["plan.cells_per_query"] = cells;
    if (cells > 0.0) {
        out.values["plan.ms_per_cell"] =
            (goodput_us - enumerate_us) / 1e3 / cells;
        out.values["plan.distinct_cell_frac"] =
            static_cast<double>(distinct.size()) / cells;
    }
}

} // namespace

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> kMetrics = {
        {"tensor.doc_mask_us", "us"},     {"cp.pairs_us", "us"},
        {"pp.build_us", "us"},            {"pp.legality_us", "us"},
        {"pp.execute_us", "us"},          {"pp.peak_in_flight_us", "us"},
        {"net.p2p_ns", "ns"},             {"sim.step_price_us", "us"},
        {"sim.run_ctor_ms", "ms"},        {"sim.run_ms", "ms"},
        {"sim.run_ns_per_step", "ns"},    {"fault.next_ns", "ns"},
        {"fault.events_per_run", "count"},
        {"fault.recoveries_per_run", "count"},
        {"plan.enumerate_ms", "ms"},      {"plan.goodput_ms", "ms"},
        {"plan.ms_per_cell", "ms"},       {"plan.cells_per_query", "count"},
        {"plan.distinct_cell_frac", "ratio"},
    };
    return kMetrics;
}

LayerSample
replayLayers(const Query &query, const Answer &answer, Tracer &tracer,
             int query_span)
{
    LayerSample out;
    Means m;
    const std::vector<const TrainRunReport *> reports = reportsOf(answer);
    const ScopedSpan replay_span(&tracer, "replay");

    double run_us = 0.0, ctor_us = 0.0, run_steps = 0.0;
    if (const auto *cfg = std::get_if<TrainRunConfig>(&query)) {
        const TrainRunReport &r = std::get<TrainRunReport>(answer);
        ctor_us = childrenUs(tracer, query_span, "TrainRunSim::TrainRunSim");
        run_us = childrenUs(tracer, query_span, "TrainRunSim::run");
        run_steps = static_cast<double>(r.steps_committed + r.steps_lost);
        for (const TrainJobConfig &job : pricedJobs(cfg->job, reports))
            replayJob(job, tracer, m);
        replayFaults(*cfg, r.timeline.size(), reports, tracer, m);
    } else {
        const auto &in = std::get<GoodputPlanInput>(query);
        const auto &ranking =
            std::get<std::vector<GoodputPlanCandidate>>(answer);
        const double enumerate_us = timedSpan(
            tracer, "enumeratePlans", 1,
            [&] { sink(static_cast<double>(enumeratePlans(in.base).size())); });
        planMetrics(enumerate_us,
                    childrenUs(tracer, query_span, "planGoodput"), ranking,
                    out);
        std::size_t longest_timeline = 0;
        for (const GoodputPlanCandidate &cand : ranking) {
            // Every cell of a candidate prices the same base job; its
            // best cell stands in for the run-simulation layer.
            std::vector<const TrainRunReport *> cand_reports;
            for (const GoodputSweepPoint &pt : cand.sweep) {
                cand_reports.push_back(&pt.report);
                longest_timeline =
                    std::max(longest_timeline, pt.report.timeline.size());
            }
            const TrainRunConfig cell =
                cellConfig(in, cand.analytic, cand.best());
            for (const TrainJobConfig &job :
                 pricedJobs(cell.job, cand_reports))
                replayJob(job, tracer, m);
            std::optional<TrainRunSim> sim;
            ctor_us += timedSpan(tracer, "TrainRunSim::TrainRunSim", 1,
                                 [&] { sim.emplace(cell); });
            TrainRunReport replayed;
            run_us += timedSpan(tracer, "TrainRunSim::run", 1,
                                [&] { replayed = sim->run(); });
            run_steps += static_cast<double>(replayed.steps_committed +
                                             replayed.steps_lost);
            if (reportDigest(replayed) != reportDigest(cand.best().report))
                ++out.cell_mismatches;
        }
        // Every cell draws the same fault timeline (common random
        // numbers), so replay it once, as far as the longest cell read.
        if (!ranking.empty())
            replayFaults(cellConfig(in, ranking.front().analytic,
                                    ranking.front().best()),
                         longest_timeline, reports, tracer, m);
        // Per replayed cell.
        const auto cells =
            static_cast<double>(std::max<std::size_t>(1, ranking.size()));
        ctor_us /= cells;
        run_us /= cells;
        run_steps /= cells;
    }

    out.values["sim.run_ctor_ms"] = ctor_us / 1e3;
    out.values["sim.run_ms"] = run_us / 1e3;
    if (run_steps > 0.0)
        out.values["sim.run_ns_per_step"] = run_us * 1e3 / run_steps;
    for (const auto &[name, mean] : m) {
        if (mean.count > 0.0)
            out.values[name] = mean.sum / mean.count;
    }
    return out;
}

} // namespace perfbench
