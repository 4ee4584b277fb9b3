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
ExecTiming::bubbleRatio(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < static_cast<std::int64_t>(busy.size()),
                 "rank out of range");
    const Time b = busy[static_cast<std::size_t>(rank)];
    LLM4D_ASSERT(b > 0, "rank did no work");
    return static_cast<double>(makespan - b) / static_cast<double>(b);
}

double
ExecTiming::maxBubbleRatio() const
{
    double worst = 0.0;
    for (std::size_t r = 0; r < busy.size(); ++r)
        worst = std::max(worst,
                         bubbleRatio(static_cast<std::int64_t>(r)));
    return worst;
}

double
ExecTiming::overallBubbleRatio() const
{
    Time total_busy = 0;
    for (Time b : busy)
        total_busy += b;
    LLM4D_ASSERT(total_busy > 0, "no rank did work");
    const Time total_span =
        makespan * static_cast<Time>(busy.size());
    return static_cast<double>(total_span - total_busy) /
           static_cast<double>(total_busy);
}

std::int64_t
ExecTiming::peakInFlight(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < static_cast<std::int64_t>(
                                         in_flight_peak.size()),
                 "rank out of range");
    return in_flight_peak[static_cast<std::size_t>(rank)];
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

/** What a walk keeps besides the makespan. */
enum class Keep
{
    Makespan, ///< the makespan alone
    Timing,   ///< every ExecTiming field
    Records,  ///< every ExecTiming field and each op's record
};

/**
 * Times a checked schedule of shape @p p under @p prices by walking
 * @p tape, its legality replay's tape, so each op's producers are
 * already timed when it is reached. Any order that keeps each rank's
 * program order and puts every producer first gives the same integer
 * times. Under Keep::Records, also appends each op's record to its
 * rank's stream in @p streams, in program order.
 */
template <Keep kKeep>
ExecTiming
walk(const ScheduleParams &p, const std::vector<TapeEntry> &tape,
     const ExecPrices &prices, std::vector<std::vector<OpRecord>> *streams)
{
    constexpr bool kTiming = kKeep != Keep::Makespan;
    const auto pp = static_cast<std::size_t>(p.pp);
    const auto nmb = static_cast<std::size_t>(p.nmb);
    const auto cells = static_cast<std::size_t>(p.numStages()) * nmb;
    LLM4D_CHECK(prices.stage.size() == cells &&
                    prices.p2p_from_prev.size() == pp &&
                    prices.p2p_from_next.size() == pp,
                "ExecPrices tables do not match the schedule's shape");
    LLM4D_ASSERT(tape.size() == 2 * cells, "tape misses ops");

    // Neighbour hand-offs in integer time, each price checked once.
    std::vector<Time> from_prev(pp), from_next(pp);
    for (std::size_t r = 0; r < pp; ++r) {
        LLM4D_ASSERT(prices.p2p_from_prev[r] >= 0.0 &&
                         prices.p2p_from_next[r] >= 0.0,
                     "negative P2P price into rank " << r);
        from_prev[r] = secondsToTime(prices.p2p_from_prev[r]);
        from_next[r] = secondsToTime(prices.p2p_from_next[r]);
    }

    // Every cell's forward end, then every cell's backward end: one
    // buffer, so a walk makes one large allocation, not two.
    std::vector<Time> ends(2 * cells, 0);
    Time *const fwd_end = ends.data();
    Time *const bwd_end = fwd_end + cells;
    std::vector<Time> rank_free(pp, 0);
    std::vector<InFlightLedger> in_flight(kTiming ? pp : 0);

    ExecTiming timing;
    if constexpr (kTiming)
        timing.busy.assign(pp, 0);
    for (const TapeEntry &op : tape) {
        const std::size_t ri = op.rank;
        const std::size_t cell = op.cell;
        // Forward: the previous stage's forward plus its hand-off.
        // Backward: its own forward, and the next stage's backward plus
        // its hand-off.
        Time ready = 0;
        if (op.forward) {
            if (op.reads_neighbour)
                ready = fwd_end[cell - nmb] + from_prev[ri];
        } else {
            ready = fwd_end[cell];
            if (op.reads_neighbour)
                ready =
                    std::max(ready, bwd_end[cell + nmb] + from_next[ri]);
        }
        const double dur_s = op.forward ? prices.stage[cell].fwd_seconds
                                        : prices.stage[cell].bwd_seconds;
        LLM4D_ASSERT(dur_s >= 0.0, "negative stage cost");
        const Time start = std::max(rank_free[ri], ready);
        const Time end = start + secondsToTime(dur_s);
        rank_free[ri] = end;
        (op.forward ? fwd_end : bwd_end)[cell] = end;
        if constexpr (kTiming) {
            timing.busy[ri] += end - start;
            // A backward's end is no later than the next op's start,
            // so the rank's ledger events stay in time order.
            if (op.forward)
                in_flight[ri].alloc(start);
            else
                in_flight[ri].free(end);
        }
        if constexpr (kKeep == Keep::Records) {
            const std::size_t g = cell / nmb;
            const PipeOp pipe_op{op.forward ? PipeOpKind::Forward
                                            : PipeOpKind::Backward,
                                 static_cast<std::int16_t>(g / pp),
                                 static_cast<std::int32_t>(cell % nmb)};
            (*streams)[ri].push_back(OpRecord{op.rank, pipe_op, start, end});
        }
    }
    // Each rank's ops end in program order, so its last end is its
    // latest.
    for (std::size_t r = 0; r < pp; ++r) {
        timing.makespan = std::max(timing.makespan, rank_free[r]);
        if constexpr (kTiming)
            timing.in_flight_peak.push_back(in_flight[r].peak());
    }
    return timing;
}

/** @p config's callbacks, each called once per cell or neighbour pair. */
ExecPrices
tabulate(const Schedule &schedule, const ExecConfig &config)
{
    LLM4D_CHECK(config.stage_cost && config.p2p_seconds,
                "ExecConfig callbacks must be set");
    const ScheduleParams &p = schedule.params();
    ExecPrices prices;
    prices.stage.reserve(static_cast<std::size_t>(p.numStages() * p.nmb));
    for (std::int64_t g = 0; g < p.numStages(); ++g) {
        for (std::int64_t mb = 0; mb < p.nmb; ++mb)
            prices.stage.push_back(
                config.stage_cost(schedule.rankOfGlobalStage(g),
                                  schedule.vstageOfGlobalStage(g), mb));
    }
    for (std::int64_t r = 0; r < p.pp; ++r) {
        prices.p2p_from_prev.push_back(
            config.p2p_seconds((r + p.pp - 1) % p.pp, r));
        prices.p2p_from_next.push_back(
            config.p2p_seconds((r + 1) % p.pp, r));
    }
    return prices;
}

} // namespace

ExecTiming
timeSchedule(const LegalSchedule &schedule, const ExecPrices &prices)
{
    return walk<Keep::Timing>(schedule.params(), schedule.tape(), prices,
                              nullptr);
}

Time
timeMakespan(const LegalSchedule &schedule, const ExecPrices &prices)
{
    return walk<Keep::Makespan>(schedule.params(), schedule.tape(), prices,
                                nullptr)
        .makespan;
}

ExecResult
executeSchedule(const Schedule &schedule, const ExecConfig &config)
{
    const LegalityResult legal = checkSchedule(schedule);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);
    const ScheduleParams &p = schedule.params();

    // Each rank's records in program order, i.e. in start order.
    std::vector<std::vector<OpRecord>> streams(
        static_cast<std::size_t>(p.pp));
    for (auto &stream : streams)
        stream.reserve(static_cast<std::size_t>(2 * p.tmb()));
    ExecResult result{
        walk<Keep::Records>(p, legal.tape, tabulate(schedule, config),
                            &streams),
        {}};

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

} // namespace llm4d
