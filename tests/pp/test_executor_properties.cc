/**
 * Parameterized property tests on the timed executor: invariants that
 * must hold for every legal schedule regardless of shape.
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

struct Shape
{
    std::int64_t pp, v, nmb, nc;
    bool afab;
};

class ExecutorProperties : public ::testing::TestWithParam<Shape>
{
  protected:
    Schedule
    make() const
    {
        const Shape s = GetParam();
        const ScheduleParams p{s.pp, s.v, s.nmb, s.nc};
        return s.afab ? buildAllForwardAllBackward(p) : buildFlexible(p);
    }
};

constexpr double kF = 1.5e-3, kB = 3e-3, kP2P = 0.2e-3;

TEST_P(ExecutorProperties, MakespanBoundedBelowByWork)
{
    // No rank can finish before its own serial work, nor before the
    // dependency chain of micro-batch 0 through all stages.
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    const Time per_rank_work =
        secondsToTime(static_cast<double>(p.tmb()) * (kF + kB));
    EXPECT_GE(exec.makespan, per_rank_work);
    const Time chain = secondsToTime(
        static_cast<double>(p.numStages()) * (kF + kB) +
        static_cast<double>(2 * (p.numStages() - 1)) * kP2P);
    EXPECT_GE(exec.makespan + 1, chain);
}

TEST_P(ExecutorProperties, BusyTimeExactlyAccountsAllOps)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        EXPECT_EQ(exec.busy[static_cast<std::size_t>(r)],
                  secondsToTime(kF) * p.tmb() +
                      secondsToTime(kB) * p.tmb());
    }
}

TEST_P(ExecutorProperties, NoOverlappingOpsPerRank)
{
    const Schedule sched = make();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    std::vector<Time> last_end(
        static_cast<std::size_t>(sched.params().pp), 0);
    for (const OpRecord &rec : exec.records) {
        EXPECT_GE(rec.start,
                  last_end[static_cast<std::size_t>(rec.rank)] == 0
                      ? 0
                      : 0); // records sorted globally, re-check per rank
    }
    // Strict per-rank check: group records by rank in order.
    for (std::int64_t r = 0; r < sched.params().pp; ++r) {
        Time prev = 0;
        for (const OpRecord &rec : exec.records) {
            if (rec.rank != r)
                continue;
            EXPECT_GE(rec.start, prev) << "rank " << r;
            prev = rec.end;
        }
    }
}

TEST_P(ExecutorProperties, BackwardNeverPrecedesOwnForward)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        for (std::int64_t s = 0; s < p.v; ++s) {
            for (std::int64_t mb = 0; mb < p.nmb; ++mb) {
                EXPECT_LE(exec.opEnd(r, PipeOpKind::Forward, s, mb),
                          exec.opEnd(r, PipeOpKind::Backward, s, mb) -
                              secondsToTime(kB));
            }
        }
    }
}

TEST_P(ExecutorProperties, ZeroP2PNeverSlowerThanWithP2P)
{
    const Schedule sched = make();
    const ExecResult with =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    const ExecResult without =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_LE(without.makespan, with.makespan);
}

TEST_P(ExecutorProperties, InFlightNeverExceedsTotal)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        EXPECT_GE(exec.peakInFlight(r), 1);
        EXPECT_LE(exec.peakInFlight(r), p.tmb());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorProperties,
    ::testing::Values(Shape{1, 1, 1, 1, false}, Shape{2, 1, 4, 2, false},
                      Shape{3, 2, 6, 3, false}, Shape{4, 2, 9, 4, false},
                      Shape{4, 4, 24, 8, false},
                      Shape{8, 2, 16, 8, false},
                      Shape{4, 2, 12, 12, true},
                      Shape{6, 3, 13, 5, false},
                      Shape{16, 8, 16, 16, false},
                      Shape{5, 1, 7, 5, false}));

/**
 * Reference peak: replay a rank's records sorted by time, +1 at each
 * forward's start and -1 at each backward's end, frees before
 * allocations at equal times.
 */
std::int64_t
sortedReplayPeak(const ExecResult &exec, std::int64_t rank)
{
    std::vector<std::pair<Time, int>> events;
    for (const OpRecord &rec : exec.records) {
        if (rec.rank != rank)
            continue;
        if (rec.op.kind == PipeOpKind::Forward)
            events.emplace_back(rec.start, +1);
        else
            events.emplace_back(rec.end, -1);
    }
    std::sort(events.begin(), events.end());
    std::int64_t live = 0, peak = 0;
    for (const auto &[t, delta] : events) {
        live += delta;
        peak = std::max(peak, live);
    }
    return peak;
}

/** The same replay in program order, ignoring the tie rule. */
std::int64_t
programOrderPeak(const ExecResult &exec, std::int64_t rank)
{
    std::int64_t live = 0, peak = 0;
    for (const OpRecord &rec : exec.records) {
        if (rec.rank != rank)
            continue;
        live += rec.op.kind == PipeOpKind::Forward ? 1 : -1;
        peak = std::max(peak, live);
    }
    return peak;
}

Schedule
randomSchedule(ScheduleKind kind, Rng &rng)
{
    ScheduleParams p;
    p.pp = rng.uniformInt(1, 6);
    p.v = rng.uniformInt(1, 3);
    switch (kind) {
      case ScheduleKind::Interleaved1F1B:
        p.nmb = p.pp * rng.uniformInt(1, 4);
        p.nc = p.pp;
        return buildInterleaved1F1B(p);
      case ScheduleKind::AllForwardAllBackward:
        p.nmb = rng.uniformInt(1, 12);
        p.nc = rng.uniformInt(1, p.nmb);
        return buildAllForwardAllBackward(p);
      case ScheduleKind::Flexible:
        break;
    }
    p.nmb = rng.uniformInt(1, 16);
    p.nc = rng.uniformInt(1, p.nmb);
    return buildFlexible(p);
}

TEST(ExecutorInFlight, LedgerMatchesSortedReplay)
{
    Rng rng(41);
    int executed = 0, tie_rule_cases = 0;
    for (int trial = 0; trial < 240; ++trial) {
        const auto kind = static_cast<ScheduleKind>(trial % 3);
        const Schedule sched = randomSchedule(kind, rng);
        if (!checkSchedule(sched))
            continue;
        const ScheduleParams &p = sched.params();
        // Half the runs without P2P; every other run also gives one
        // (rank, vstage) zero-duration work, so a backward can end exactly
        // when a forward starts.
        const double p2p = trial % 2 == 0 ? 0.0 : kP2P;
        const std::int64_t zero_rank =
            trial % 4 < 2 ? rng.uniformInt(0, p.pp - 1) : -1;
        const std::int64_t zero_vstage = rng.uniformInt(0, p.v - 1);
        ExecConfig cfg = ExecConfig::uniform(kF, kB, p2p);
        cfg.stage_cost = [=](std::int64_t rank, std::int64_t vstage,
                             std::int64_t) {
            if (rank == zero_rank && vstage == zero_vstage)
                return StageCost{0.0, 0.0};
            return StageCost{kF, kB};
        };
        const ExecResult exec = executeSchedule(sched, cfg);
        ++executed;
        SCOPED_TRACE(::testing::Message()
                     << scheduleKindName(kind) << " pp=" << p.pp
                     << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc
                     << " p2p=" << p2p << " zero rank " << zero_rank);

        for (std::int64_t r = 0; r < p.pp; ++r) {
            EXPECT_EQ(exec.peakInFlight(r), sortedReplayPeak(exec, r))
                << "rank " << r;
            tie_rule_cases +=
                programOrderPeak(exec, r) != sortedReplayPeak(exec, r);
        }

        // Records: sorted by (start, rank), each rank in program order.
        ASSERT_EQ(exec.records.size(),
                  static_cast<std::size_t>(2 * p.tmb() * p.pp));
        std::vector<std::size_t> next(static_cast<std::size_t>(p.pp), 0);
        for (std::size_t i = 0; i < exec.records.size(); ++i) {
            const OpRecord &rec = exec.records[i];
            if (i > 0) {
                const OpRecord &prev = exec.records[i - 1];
                EXPECT_TRUE(prev.start < rec.start ||
                            (prev.start == rec.start && prev.rank <= rec.rank))
                    << "record " << i;
            }
            auto &pos = next[static_cast<std::size_t>(rec.rank)];
            ASSERT_LT(pos, sched.program(rec.rank).size());
            EXPECT_EQ(rec.op, sched.program(rec.rank)[pos])
                << "rank " << rec.rank << " op " << pos;
            ++pos;
        }
    }
    EXPECT_GT(executed, 150);
    EXPECT_GT(tie_rule_cases, 0)
        << "no run had a free and an allocation at one instant";
}

} // namespace
} // namespace llm4d
