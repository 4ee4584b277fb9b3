/**
 * The executor against an independent reference: a sweep that polls each
 * rank's next op until its inputs are timed. It shares no code with the
 * executor, which instead walks the legality check's tape. timeSchedule,
 * timeMakespan and executeSchedule must reproduce the sweep exactly on
 * random schedules with random per-cell costs and asymmetric P2P.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "llm4d/pp/executor.h"
#include "llm4d/pp/legality.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

/** What the reference sweep computes. */
struct ReferenceTiming
{
    Time makespan = 0;
    std::vector<Time> busy;
    std::vector<std::int64_t> peak;
};

/**
 * Repeatedly sweeps the ranks, running each rank's next ops while their
 * producers have end times; then replays each rank's forward starts
 * (+1) and backward ends (-1) sorted by time, frees first at equal
 * times, for its in-flight peak.
 */
ReferenceTiming
pollingSweep(const Schedule &sched, const ExecPrices &prices)
{
    const ScheduleParams &p = sched.params();
    const auto cell = [&](std::int64_t g, std::int64_t mb) {
        return static_cast<std::size_t>(g * p.nmb + mb);
    };
    constexpr Time kPending = -1;
    std::vector<Time> fwd_end(cell(p.numStages(), 0), kPending);
    std::vector<Time> bwd_end(cell(p.numStages(), 0), kPending);
    std::vector<Time> rank_free(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::vector<std::pair<Time, int>>> events(
        static_cast<std::size_t>(p.pp));
    ReferenceTiming ref;
    ref.busy.assign(static_cast<std::size_t>(p.pp), 0);

    // Earliest start allowed by the op's inputs; false while one of
    // them is not yet timed.
    auto inputs = [&](std::int64_t rank, const PipeOp &op, Time &ready) {
        const std::int64_t g = sched.globalStage(rank, op.stage);
        const auto r = static_cast<std::size_t>(rank);
        if (op.kind == PipeOpKind::Forward) {
            if (g == 0) {
                ready = 0;
                return true;
            }
            const Time producer = fwd_end[cell(g - 1, op.mb)];
            if (producer == kPending)
                return false;
            ready = producer + secondsToTime(prices.p2p_from_prev[r]);
            return true;
        }
        const Time own_fwd = fwd_end[cell(g, op.mb)];
        if (own_fwd == kPending)
            return false;
        if (g == p.numStages() - 1) {
            ready = own_fwd;
            return true;
        }
        const Time producer = bwd_end[cell(g + 1, op.mb)];
        if (producer == kPending)
            return false;
        ready = std::max(own_fwd, producer + secondsToTime(
                                                 prices.p2p_from_next[r]));
        return true;
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::int64_t rank = 0; rank < p.pp; ++rank) {
            const auto r = static_cast<std::size_t>(rank);
            const std::vector<PipeOp> &prog = sched.program(rank);
            Time ready = 0;
            while (pc[r] < prog.size() && inputs(rank, prog[pc[r]], ready)) {
                const PipeOp &op = prog[pc[r]++];
                const std::int64_t g = sched.globalStage(rank, op.stage);
                const StageCost &cost = prices.stage[cell(g, op.mb)];
                const bool fwd = op.kind == PipeOpKind::Forward;
                const Time start = std::max(rank_free[r], ready);
                const Time end =
                    start + secondsToTime(fwd ? cost.fwd_seconds
                                              : cost.bwd_seconds);
                rank_free[r] = end;
                ref.busy[r] += end - start;
                (fwd ? fwd_end : bwd_end)[cell(g, op.mb)] = end;
                events[r].emplace_back(fwd ? start : end, fwd ? +1 : -1);
                ref.makespan = std::max(ref.makespan, end);
                progress = true;
            }
        }
    }
    for (std::int64_t rank = 0; rank < p.pp; ++rank) {
        const auto r = static_cast<std::size_t>(rank);
        EXPECT_EQ(pc[r], sched.program(rank).size()) << "sweep stalled";
        std::sort(events[r].begin(), events[r].end());
        std::int64_t live = 0, peak = 0;
        for (const auto &[t, delta] : events[r]) {
            live += delta;
            peak = std::max(peak, live);
        }
        ref.peak.push_back(peak);
    }
    return ref;
}

/** A schedule of @p kind with pp 1-8, v 1-4, nmb 1-24 and a legal nc. */
Schedule
randomSchedule(ScheduleKind kind, Rng &rng)
{
    ScheduleParams p;
    p.pp = rng.uniformInt(1, 8);
    p.v = rng.uniformInt(1, 4);
    if (kind == ScheduleKind::Interleaved1F1B) {
        p.nmb = p.pp * rng.uniformInt(1, 24 / p.pp);
        p.nc = p.pp;
        return buildInterleaved1F1B(p);
    }
    p.nmb = rng.uniformInt(1, 24);
    p.nc = rng.uniformInt(1, p.nmb);
    return kind == ScheduleKind::Flexible ? buildFlexible(p)
                                          : buildAllForwardAllBackward(p);
}

/** One P2P price per ordered rank pair, so (a, b) and (b, a) differ. */
using P2PMatrix = std::vector<std::vector<double>>;

TEST(ExecutorReference, TimingsMatchPollingSweep)
{
    Rng rng(19);
    int checked = 0, zero_cells = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto kind = static_cast<ScheduleKind>(trial % 3);
        const Schedule sched = randomSchedule(kind, rng);
        const ScheduleParams &p = sched.params();
        SCOPED_TRACE(::testing::Message()
                     << scheduleKindName(kind) << " pp=" << p.pp
                     << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc);
        if (!checkSchedule(sched))
            continue;

        // Random per-cell costs, about one in eight of them zero.
        ExecPrices prices;
        for (std::int64_t c = 0; c < p.numStages() * p.nmb; ++c) {
            const bool zero = rng.bernoulli(0.125);
            zero_cells += zero;
            prices.stage.push_back(
                zero ? StageCost{0.0, 0.0}
                     : StageCost{rng.uniform(0.2e-3, 2e-3),
                                 rng.uniform(0.4e-3, 4e-3)});
        }
        P2PMatrix p2p(static_cast<std::size_t>(p.pp),
                      std::vector<double>(static_cast<std::size_t>(p.pp)));
        for (auto &row : p2p)
            for (double &price : row)
                price = rng.uniform(0.0, 0.5e-3);
        for (std::int64_t r = 0; r < p.pp; ++r) {
            const auto to = static_cast<std::size_t>(r);
            prices.p2p_from_prev.push_back(
                p2p[static_cast<std::size_t>((r + p.pp - 1) % p.pp)][to]);
            prices.p2p_from_next.push_back(
                p2p[static_cast<std::size_t>((r + 1) % p.pp)][to]);
        }
        ExecConfig cfg;
        cfg.stage_cost = [&](std::int64_t rank, std::int64_t vstage,
                             std::int64_t mb) {
            const std::int64_t g = sched.globalStage(rank, vstage);
            return prices.stage[static_cast<std::size_t>(g * p.nmb + mb)];
        };
        cfg.p2p_seconds = [&](std::int64_t from, std::int64_t to) {
            return p2p[static_cast<std::size_t>(from)]
                      [static_cast<std::size_t>(to)];
        };

        const ReferenceTiming want = pollingSweep(sched, prices);
        const auto expect_reference = [&](const ExecTiming &got,
                                          const char *path) {
            EXPECT_EQ(got.makespan, want.makespan) << path;
            EXPECT_EQ(got.busy, want.busy) << path;
            EXPECT_EQ(got.in_flight_peak, want.peak) << path;
        };
        const LegalSchedule legal = LegalSchedule::check(sched);
        expect_reference(timeSchedule(legal, prices), "timeSchedule");
        expect_reference(executeSchedule(sched, cfg), "executeSchedule");
        EXPECT_EQ(timeMakespan(legal, prices), want.makespan)
            << "timeMakespan";
        ++checked;
    }
    EXPECT_GT(checked, 150);
    EXPECT_GT(zero_cells, 0);
}

TEST(ExecutorReference, LegalityOrderRespectsProgramsAndProducers)
{
    Rng rng(23);
    int checked = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto kind = static_cast<ScheduleKind>(trial % 3);
        const Schedule sched = randomSchedule(kind, rng);
        const ScheduleParams &p = sched.params();
        SCOPED_TRACE(::testing::Message()
                     << scheduleKindName(kind) << " pp=" << p.pp
                     << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc);
        if (!checkSchedule(sched))
            continue;
        const LegalSchedule legal = LegalSchedule::check(sched);

        const auto cell = [&](std::int64_t g, std::int64_t mb) {
            return static_cast<std::size_t>(g * p.nmb + mb);
        };
        std::vector<bool> fwd_done(cell(p.numStages(), 0), false);
        std::vector<bool> bwd_done(cell(p.numStages(), 0), false);
        std::vector<std::size_t> next(static_cast<std::size_t>(p.pp), 0);
        for (const TapeEntry &entry : legal.tape()) {
            ASSERT_LT(entry.rank, p.pp);
            const std::vector<PipeOp> &prog = sched.program(entry.rank);
            std::size_t &pos = next[entry.rank];
            ASSERT_LT(pos, prog.size()) << "rank " << entry.rank;
            const PipeOp &op = prog[pos++];
            const std::int64_t g = sched.globalStage(entry.rank, op.stage);
            const bool fwd = op.kind == PipeOpKind::Forward;
            // The entry holds its program op's cell and direction, and
            // reads a neighbouring stage unless it is a forward of the
            // first stage or a backward of the last.
            EXPECT_EQ(entry.cell, cell(g, op.mb));
            EXPECT_EQ(entry.forward, fwd);
            EXPECT_EQ(entry.reads_neighbour,
                      fwd ? g > 0 : g < p.numStages() - 1);
            if (fwd) {
                EXPECT_TRUE(g == 0 || fwd_done[cell(g - 1, op.mb)]);
                fwd_done[cell(g, op.mb)] = true;
            } else {
                EXPECT_TRUE(fwd_done[cell(g, op.mb)]);
                EXPECT_TRUE(g == p.numStages() - 1 ||
                            bwd_done[cell(g + 1, op.mb)]);
                bwd_done[cell(g, op.mb)] = true;
            }
        }
        for (std::int64_t r = 0; r < p.pp; ++r)
            EXPECT_EQ(next[static_cast<std::size_t>(r)],
                      sched.program(r).size())
                << "rank " << r;
        ++checked;
    }
    EXPECT_GT(checked, 150);
}

} // namespace
} // namespace llm4d
