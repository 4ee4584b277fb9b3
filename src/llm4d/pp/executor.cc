#include "llm4d/pp/executor.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "llm4d/pp/legality.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

ExecConfig
ExecConfig::uniform(double fwd_seconds, double bwd_seconds,
                    double p2p_seconds)
{
    ExecConfig cfg;
    cfg.stage_cost = [=](std::int64_t, std::int64_t, std::int64_t) {
        return StageCost{fwd_seconds, bwd_seconds};
    };
    cfg.p2p_seconds = [=](std::int64_t, std::int64_t) {
        return p2p_seconds;
    };
    return cfg;
}

double
ExecResult::bubbleRatio(std::int64_t rank) const
{
    const Time b = busy[static_cast<std::size_t>(rank)];
    LLM4D_ASSERT(b > 0, "rank did no work");
    return static_cast<double>(makespan - b) / static_cast<double>(b);
}

double
ExecResult::maxBubbleRatio() const
{
    double worst = 0.0;
    for (std::size_t r = 0; r < busy.size(); ++r)
        worst = std::max(worst,
                         bubbleRatio(static_cast<std::int64_t>(r)));
    return worst;
}

double
ExecResult::overallBubbleRatio() const
{
    Time total_busy = 0;
    for (Time b : busy)
        total_busy += b;
    const Time total_span =
        makespan * static_cast<Time>(busy.size());
    return static_cast<double>(total_span - total_busy) /
           static_cast<double>(total_busy);
}

Time
ExecResult::opEnd(std::int64_t rank, PipeOpKind kind, std::int64_t vstage,
                  std::int64_t mb) const
{
    for (const OpRecord &rec : records) {
        if (rec.rank == rank && rec.op.kind == kind &&
            rec.op.stage == vstage && rec.op.mb == mb)
            return rec.end;
    }
    LLM4D_PANIC("operation not found in execution record");
}

std::int64_t
ExecResult::peakInFlight(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < static_cast<std::int64_t>(
                                         in_flight_peak.size()),
                 "rank out of range");
    return in_flight_peak[static_cast<std::size_t>(rank)];
}

namespace {

/**
 * One rank's in-flight micro-batch count, fed its events in time order:
 * an allocation at each forward's start, a free at each backward's end.
 * At equal times frees apply before allocations, so a time's allocations
 * are held back until the clock moves past it.
 */
class InFlightLedger
{
  public:
    void
    free(Time t)
    {
        advance(t);
        --live_;
    }

    void
    alloc(Time t)
    {
        advance(t);
        ++held_;
    }

    /** Peak over every event so far. */
    std::int64_t
    peak()
    {
        settle();
        return peak_;
    }

  private:
    void
    advance(Time t)
    {
        LLM4D_ASSERT(t >= now_, "in-flight events out of time order");
        if (t > now_) {
            settle();
            now_ = t;
        }
    }

    void
    settle()
    {
        live_ += held_;
        held_ = 0;
        peak_ = std::max(peak_, live_);
    }

    Time now_ = 0;
    std::int64_t live_ = 0; ///< excludes held_
    std::int64_t held_ = 0; ///< allocations at now_ not yet applied
    std::int64_t peak_ = 0;
};

ExecResult
execute(const Schedule &schedule, const ExecConfig &config)
{
    LLM4D_CHECK(config.stage_cost && config.p2p_seconds,
                "ExecConfig callbacks must be set");
    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    auto cell = [&](std::int64_t g, std::int64_t mb) {
        return static_cast<std::size_t>(g * p.nmb + mb);
    };

    constexpr Time kPending = -1;
    std::vector<Time> fwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> bwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> rank_free(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    std::vector<InFlightLedger> in_flight(static_cast<std::size_t>(p.pp));
    // Each rank's records in program order, i.e. in start order.
    std::vector<std::vector<OpRecord>> streams(
        static_cast<std::size_t>(p.pp));
    for (auto &stream : streams)
        stream.reserve(static_cast<std::size_t>(2 * p.tmb()));

    ExecResult result;
    result.busy.assign(static_cast<std::size_t>(p.pp), 0);

    // Topological sweep: process each op once its dependency has a
    // computed end time. Times are DAG-determined, so sweep order does
    // not affect the result; legality guarantees termination. Each rank
    // runs its program in order, so its start times never decrease.
    auto dep_ready = [&](std::int64_t rank, const PipeOp &op,
                         Time &ready_at) {
        const std::int64_t g = schedule.globalStage(rank, op.stage);
        if (op.kind == PipeOpKind::Forward) {
            if (g == 0) {
                ready_at = 0;
                return true;
            }
            const Time producer = fwd_end[cell(g - 1, op.mb)];
            if (producer == kPending)
                return false;
            const std::int64_t src = schedule.rankOfGlobalStage(g - 1);
            ready_at = producer +
                       secondsToTime(config.p2p_seconds(src, rank));
            return true;
        }
        const Time own_fwd = fwd_end[cell(g, op.mb)];
        if (own_fwd == kPending)
            return false;
        if (g == p.numStages() - 1) {
            ready_at = own_fwd;
            return true;
        }
        const Time producer = bwd_end[cell(g + 1, op.mb)];
        if (producer == kPending)
            return false;
        const std::int64_t src = schedule.rankOfGlobalStage(g + 1);
        ready_at = std::max(
            own_fwd,
            producer + secondsToTime(config.p2p_seconds(src, rank)));
        return true;
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::int64_t r = 0; r < p.pp; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            const auto &prog = schedule.program(r);
            auto &cursor = pc[ri];
            Time ready_at = 0;
            while (cursor < prog.size() &&
                   dep_ready(r, prog[cursor], ready_at)) {
                const PipeOp &op = prog[cursor];
                const std::int64_t g = schedule.globalStage(r, op.stage);
                const StageCost cost = config.stage_cost(r, op.stage, op.mb);
                const bool fwd = op.kind == PipeOpKind::Forward;
                const double dur_s =
                    fwd ? cost.fwd_seconds : cost.bwd_seconds;
                LLM4D_ASSERT(dur_s >= 0.0, "negative stage cost");
                const Time start = std::max(rank_free[ri], ready_at);
                const Time end = start + secondsToTime(dur_s);
                rank_free[ri] = end;
                result.busy[ri] += end - start;
                (fwd ? fwd_end : bwd_end)[cell(g, op.mb)] = end;
                // A backward's end is no later than the next op's start,
                // so the rank's ledger events stay in time order.
                if (fwd)
                    in_flight[ri].alloc(start);
                else
                    in_flight[ri].free(end);
                streams[ri].push_back(OpRecord{r, op, start, end});
                result.makespan = std::max(result.makespan, end);
                ++cursor;
                progress = true;
            }
        }
    }
    for (std::int64_t r = 0; r < p.pp; ++r) {
        LLM4D_ASSERT(pc[static_cast<std::size_t>(r)] ==
                         schedule.program(r).size(),
                     "executor stalled despite legality check");
        result.in_flight_peak.push_back(
            in_flight[static_cast<std::size_t>(r)].peak());
    }

    // Merge the streams by (start, rank): a min-heap over each rank's
    // next unmerged record.
    using Head = std::pair<Time, std::size_t>; // (start, rank)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    std::vector<std::size_t> merged(streams.size(), 0);
    for (std::size_t ri = 0; ri < streams.size(); ++ri)
        heads.emplace(streams[ri].front().start, ri);
    result.records.reserve(streams.size() * streams.front().size());
    while (!heads.empty()) {
        const std::size_t ri = heads.top().second;
        heads.pop();
        const std::vector<OpRecord> &stream = streams[ri];
        result.records.push_back(stream[merged[ri]]);
        if (++merged[ri] < stream.size())
            heads.emplace(stream[merged[ri]].start, ri);
    }
    return result;
}

} // namespace

ExecResult
executeSchedule(const Schedule &schedule, const ExecConfig &config)
{
    const LegalityResult legal = checkSchedule(schedule);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);
    return execute(schedule, config);
}

ExecResult
executeSchedule(const LegalSchedule &schedule, const ExecConfig &config)
{
    return execute(schedule.schedule(), config);
}

} // namespace llm4d
