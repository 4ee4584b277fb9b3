/**
 * The one-pass legality check against the two-pass checker it replaced,
 * kept here as the reference: a structural pass (every op inside the
 * shape, every (direction, cell) exactly once), then the progress
 * replay. On random generated schedules, left legal or broken by one
 * mutation, both must agree on legality and on the reason, and on a
 * legal schedule's tape entry by entry.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "llm4d/pp/legality.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

/** The reference: the structural pass, then the replay, each whole. */
LegalityResult
twoPassCheck(const Schedule &schedule)
{
    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    const auto cellIndex = [&](std::int64_t g, std::int64_t mb) {
        return static_cast<std::size_t>(g * p.nmb + mb);
    };

    // --- Structural check: every cell exactly once per direction. ---
    std::vector<int> fwd_seen(static_cast<std::size_t>(cells), 0);
    std::vector<int> bwd_seen(static_cast<std::size_t>(cells), 0);
    for (std::int64_t r = 0; r < p.pp; ++r) {
        for (const PipeOp &op : schedule.program(r)) {
            if (op.stage < 0 || op.stage >= p.v || op.mb < 0 ||
                op.mb >= p.nmb) {
                std::ostringstream os;
                os << "rank " << r << " op references stage " << op.stage
                   << " mb " << op.mb << " outside the schedule shape";
                return {false, os.str(), {}};
            }
            const std::int64_t g = schedule.globalStage(r, op.stage);
            auto &seen =
                op.kind == PipeOpKind::Forward ? fwd_seen : bwd_seen;
            if (++seen[cellIndex(g, op.mb)] > 1) {
                std::ostringstream os;
                os << "duplicate "
                   << (op.kind == PipeOpKind::Forward ? "forward"
                                                      : "backward")
                   << " of stage " << g << " mb " << op.mb << " on rank "
                   << r;
                return {false, os.str(), {}};
            }
        }
    }
    for (std::int64_t g = 0; g < p.numStages(); ++g) {
        for (std::int64_t mb = 0; mb < p.nmb; ++mb) {
            if (!fwd_seen[cellIndex(g, mb)]) {
                std::ostringstream os;
                os << "missing forward of stage " << g << " mb " << mb;
                return {false, os.str(), {}};
            }
            if (!bwd_seen[cellIndex(g, mb)]) {
                std::ostringstream os;
                os << "missing backward of stage " << g << " mb " << mb;
                return {false, os.str(), {}};
            }
        }
    }

    // --- Progress check: replay with data-availability semantics. ---
    const auto nmb = static_cast<std::size_t>(p.nmb);
    const std::int64_t last_stage = p.numStages() - 1;
    std::vector<char> fwd_done(static_cast<std::size_t>(cells), 0);
    std::vector<char> bwd_done(static_cast<std::size_t>(cells), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    std::vector<char> blocked(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::int64_t> runnable;
    for (std::int64_t r = p.pp - 1; r >= 0; --r)
        runnable.push_back(r);
    const auto wake = [&](std::int64_t r) {
        char &b = blocked[static_cast<std::size_t>(r)];
        if (b) {
            b = 0;
            runnable.push_back(r);
        }
    };

    LegalityResult result{true, "", {}};
    while (!runnable.empty()) {
        const std::int64_t r = runnable.back();
        runnable.pop_back();
        const std::vector<PipeOp> &prog = schedule.program(r);
        std::size_t &cursor = pc[static_cast<std::size_t>(r)];
        for (; cursor < prog.size(); ++cursor) {
            const PipeOp &op = prog[cursor];
            const std::int64_t g = schedule.globalStage(r, op.stage);
            const std::size_t cell = cellIndex(g, op.mb);
            const bool fwd = op.kind == PipeOpKind::Forward;
            const bool reads_neighbour = fwd ? g > 0 : g < last_stage;
            const bool ready =
                fwd ? !reads_neighbour || fwd_done[cell - nmb]
                    : fwd_done[cell] &&
                          (!reads_neighbour || bwd_done[cell + nmb]);
            if (!ready)
                break;
            (fwd ? fwd_done : bwd_done)[cell] = 1;
            result.tape.push_back({static_cast<std::uint32_t>(cell),
                                   static_cast<std::uint16_t>(r), fwd,
                                   reads_neighbour});
            if (fwd)
                wake(r + 1 == p.pp ? 0 : r + 1);
            else
                wake(r == 0 ? p.pp - 1 : r - 1);
        }
        if (cursor < prog.size())
            blocked[static_cast<std::size_t>(r)] = 1;
    }

    for (std::int64_t r = 0; r < p.pp; ++r) {
        const auto &prog = schedule.program(r);
        const auto cursor = pc[static_cast<std::size_t>(r)];
        if (cursor < prog.size()) {
            const PipeOp &op = prog[cursor];
            std::ostringstream os;
            os << "deadlock: rank " << r << " blocked at op " << cursor
               << " ("
               << (op.kind == PipeOpKind::Forward ? "forward" : "backward")
               << " stage " << op.stage << " mb " << op.mb << ")";
            return {false, os.str(), {}};
        }
    }
    return result;
}

/** A generated schedule of @p kind with pp 1-8, v 1-4, nmb 1-24 and a
 *  legal nc. */
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

/** How a trial breaks its schedule. */
enum class Mutation
{
    None,
    Swap,       ///< two ops of one rank trade places
    Duplicate,  ///< one op overwritten by another of its rank
    OutOfRange, ///< one op's stage set to v, or its mb to nmb
    /** A swap of rank 0's first and last ops, which deadlocks, and a
     *  duplicate at the end of the last rank. */
    DeadlockAndDuplicate,
};
constexpr int kNumMutations = 5;

/** Two distinct positions in a program of @p size >= 2 ops. */
std::pair<std::size_t, std::size_t>
twoPositions(std::size_t size, Rng &rng)
{
    const auto last = static_cast<std::int64_t>(size) - 1;
    const auto i = static_cast<std::size_t>(rng.uniformInt(0, last));
    auto j = static_cast<std::size_t>(rng.uniformInt(0, last - 1));
    if (j >= i)
        ++j;
    return {i, j};
}

/** @p sched's programs with @p mutation applied. */
Schedule
mutate(const Schedule &sched, Mutation mutation, Rng &rng)
{
    const ScheduleParams &p = sched.params();
    std::vector<std::vector<PipeOp>> progs;
    for (std::int64_t r = 0; r < p.pp; ++r)
        progs.push_back(sched.program(r));
    std::vector<PipeOp> &some =
        progs[static_cast<std::size_t>(rng.uniformInt(0, p.pp - 1))];
    switch (mutation) {
      case Mutation::None:
        break;
      case Mutation::Swap: {
        const auto [i, j] = twoPositions(some.size(), rng);
        std::swap(some[i], some[j]);
        break;
      }
      case Mutation::Duplicate: {
        const auto [i, j] = twoPositions(some.size(), rng);
        some[i] = some[j];
        break;
      }
      case Mutation::OutOfRange: {
        PipeOp &op = some[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(some.size()) - 1))];
        if (rng.bernoulli(0.5))
            op.stage = static_cast<std::int16_t>(p.v);
        else
            op.mb = static_cast<std::int32_t>(p.nmb);
        break;
      }
      case Mutation::DeadlockAndDuplicate: {
        std::vector<PipeOp> &low = progs.front();
        std::swap(low.front(), low.back());
        std::vector<PipeOp> &high = progs.back();
        high.back() = high[high.size() - 2];
        break;
      }
    }
    return Schedule(sched.kind(), p, std::move(progs));
}

TEST(LegalityReference, OnePassMatchesTwoPassChecker)
{
    Rng rng(29);
    int legal = 0, deadlocks = 0, duplicates = 0, outside = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto kind = static_cast<ScheduleKind>(trial % 3);
        const auto mutation =
            static_cast<Mutation>(trial / 3 % kNumMutations);
        const Schedule sched = mutate(randomSchedule(kind, rng), mutation,
                                      rng);
        const ScheduleParams &p = sched.params();
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ": "
                     << scheduleKindName(kind) << " pp=" << p.pp
                     << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc
                     << " mutation " << static_cast<int>(mutation));

        const LegalityResult want = twoPassCheck(sched);
        const LegalityResult got = checkSchedule(sched);
        ASSERT_EQ(got.legal, want.legal) << want.reason;
        EXPECT_EQ(got.reason, want.reason);
        ASSERT_EQ(got.tape.size(), want.tape.size());
        for (std::size_t i = 0; i < want.tape.size(); ++i) {
            const TapeEntry &g = got.tape[i];
            const TapeEntry &w = want.tape[i];
            ASSERT_TRUE(g.cell == w.cell && g.rank == w.rank &&
                        g.forward == w.forward &&
                        g.reads_neighbour == w.reads_neighbour)
                << "tape entry " << i;
        }
        if (mutation == Mutation::DeadlockAndDuplicate) {
            EXPECT_EQ(want.reason.rfind("duplicate", 0), 0u) << want.reason;
        }

        legal += want.legal;
        deadlocks += want.reason.rfind("deadlock", 0) == 0;
        duplicates += want.reason.rfind("duplicate", 0) == 0;
        outside += want.reason.find("outside") != std::string::npos;
    }
    // Every outcome occurs, so each path of the one-pass check is
    // compared.
    EXPECT_GT(legal, 60);
    EXPECT_GT(deadlocks, 10);
    EXPECT_GT(duplicates, 60);
    EXPECT_GT(outside, 40);
}

} // namespace
} // namespace llm4d
