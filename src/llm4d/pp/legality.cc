#include "llm4d/pp/legality.h"

#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** Flat index for (global stage, micro-batch). */
std::size_t
cellIndex(const ScheduleParams &p, std::int64_t g, std::int64_t mb)
{
    return static_cast<std::size_t>(g * p.nmb + mb);
}

const char *
directionName(PipeOpKind kind)
{
    return kind == PipeOpKind::Forward ? "forward" : "backward";
}

/**
 * The first structural fault of @p schedule, or "" if it has none: an op
 * outside the schedule shape, a (direction, cell) run twice, or one run
 * never.
 */
std::string
structuralFault(const Schedule &schedule)
{
    const ScheduleParams &p = schedule.params();
    const auto cells = static_cast<std::size_t>(p.numStages() * p.nmb);
    std::vector<int> fwd_seen(cells, 0);
    std::vector<int> bwd_seen(cells, 0);
    std::ostringstream os;
    for (std::int64_t r = 0; r < p.pp; ++r) {
        for (const PipeOp &op : schedule.program(r)) {
            if (op.stage < 0 || op.stage >= p.v || op.mb < 0 ||
                op.mb >= p.nmb) {
                os << "rank " << r << " op references stage " << op.stage
                   << " mb " << op.mb << " outside the schedule shape";
                return os.str();
            }
            const std::int64_t g = schedule.globalStage(r, op.stage);
            auto &seen =
                op.kind == PipeOpKind::Forward ? fwd_seen : bwd_seen;
            if (++seen[cellIndex(p, g, op.mb)] > 1) {
                os << "duplicate " << directionName(op.kind) << " of stage "
                   << g << " mb " << op.mb << " on rank " << r;
                return os.str();
            }
        }
    }
    for (std::int64_t g = 0; g < p.numStages(); ++g) {
        for (std::int64_t mb = 0; mb < p.nmb; ++mb) {
            if (!fwd_seen[cellIndex(p, g, mb)]) {
                os << "missing forward of stage " << g << " mb " << mb;
                return os.str();
            }
            if (!bwd_seen[cellIndex(p, g, mb)]) {
                os << "missing backward of stage " << g << " mb " << mb;
                return os.str();
            }
        }
    }
    return "";
}

} // namespace

LegalityResult
checkSchedule(const Schedule &schedule)
{
    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    LLM4D_CHECK(cells <= std::numeric_limits<std::uint32_t>::max() &&
                    p.pp <= std::numeric_limits<std::uint16_t>::max(),
                "schedule shape pp=" << p.pp << " cells=" << cells
                                     << " does not fit a tape entry");

    // Replay with data-availability semantics. Each rank runs its
    // program until its next op's inputs are not all done, and then
    // blocks. A forward of global stage g reads the forward of g - 1,
    // which rank (r - 1) mod pp runs. A backward reads its own forward
    // and the backward of g + 1, which rank (r + 1) mod pp runs. Every
    // op of rank r has g = r (mod pp), so the own forward is later in
    // r's program if it is not done: that wait never ends. So only a
    // completion on a pipeline neighbour can release a blocked rank: a
    // finished forward can only release rank (r + 1) mod pp, and a
    // finished backward rank (r - 1) mod pp. The replay wakes exactly
    // that rank, if it is blocked, and the woken rank retries its op. No
    // wake-up is lost, each costs O(1), and the ops that complete are the
    // same fixpoint in any visiting order, so a deadlock names the same
    // rank and op whichever rank runs first.
    //
    // The replay checks structure as it goes: a rank also stops at an op
    // outside the schedule shape or at a (direction, cell) it already
    // completed. So a replay that completes every rank also proves the
    // structure. The Schedule constructor asserts that each rank's
    // program holds exactly 2 * tmb = 2 * v * nmb ops; each op names a
    // (direction, cell) of its own rank, of which there are 2 * v * nmb,
    // and none repeats, so each appears exactly once. A legal schedule is
    // thus read once. Only a replay that stops short runs the structural
    // pass, so a malformed op outranks a deadlock; on a sound schedule
    // no rank ever stops at a malformed op, and the deadlock reported is
    // the plain replay's.
    const auto nmb = static_cast<std::size_t>(p.nmb);
    const std::int64_t last_stage = p.numStages() - 1;
    std::vector<char> fwd_done(static_cast<std::size_t>(cells), 0);
    std::vector<char> bwd_done(static_cast<std::size_t>(cells), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    std::vector<char> blocked(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::int64_t> runnable;
    runnable.reserve(static_cast<std::size_t>(p.pp));
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
    result.tape.reserve(static_cast<std::size_t>(2 * cells));
    while (!runnable.empty()) {
        const std::int64_t r = runnable.back();
        runnable.pop_back();
        const std::vector<PipeOp> &prog = schedule.program(r);
        std::size_t &cursor = pc[static_cast<std::size_t>(r)];
        for (; cursor < prog.size(); ++cursor) {
            const PipeOp &op = prog[cursor];
            if (op.stage < 0 || op.stage >= p.v || op.mb < 0 ||
                op.mb >= p.nmb)
                break;
            const std::int64_t g = schedule.globalStage(r, op.stage);
            const std::size_t cell = cellIndex(p, g, op.mb);
            const bool fwd = op.kind == PipeOpKind::Forward;
            char &done = (fwd ? fwd_done : bwd_done)[cell];
            if (done)
                break;
            const bool reads_neighbour = fwd ? g > 0 : g < last_stage;
            const bool ready =
                fwd ? !reads_neighbour || fwd_done[cell - nmb]
                    : fwd_done[cell] &&
                          (!reads_neighbour || bwd_done[cell + nmb]);
            if (!ready)
                break;
            done = 1;
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
    // The programs hold 2 * cells ops in all, so every rank ran its
    // whole program exactly when the tape holds that many.
    if (result.tape.size() == static_cast<std::size_t>(2 * cells))
        return result;

    std::string fault = structuralFault(schedule);
    if (!fault.empty())
        return {false, std::move(fault), {}};
    for (std::int64_t r = 0; r < p.pp; ++r) {
        const auto &prog = schedule.program(r);
        const auto cursor = pc[static_cast<std::size_t>(r)];
        if (cursor < prog.size()) {
            const PipeOp &op = prog[cursor];
            std::ostringstream os;
            os << "deadlock: rank " << r << " blocked at op " << cursor
               << " (" << directionName(op.kind) << " stage " << op.stage
               << " mb " << op.mb << ")";
            return {false, os.str(), {}};
        }
    }
    LLM4D_PANIC("a replay that stops short leaves a rank blocked");
}

LegalSchedule::LegalSchedule(ScheduleParams params,
                             std::vector<TapeEntry> tape)
    : params_(params), tape_(std::move(tape))
{
}

LegalSchedule
LegalSchedule::check(const Schedule &schedule)
{
    LegalityResult legal = checkSchedule(schedule);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);
    return LegalSchedule(schedule.params(), std::move(legal.tape));
}

} // namespace llm4d
