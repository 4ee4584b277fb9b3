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
            if (++seen[cellIndex(p, g, op.mb)] > 1) {
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
            if (!fwd_seen[cellIndex(p, g, mb)]) {
                std::ostringstream os;
                os << "missing forward of stage " << g << " mb " << mb;
                return {false, os.str(), {}};
            }
            if (!bwd_seen[cellIndex(p, g, mb)]) {
                std::ostringstream os;
                os << "missing backward of stage " << g << " mb " << mb;
                return {false, os.str(), {}};
            }
        }
    }

    // --- Progress check: replay with data-availability semantics. ---
    // Each rank runs its program until its next op's inputs are not all
    // done, and then blocks. A forward of global stage g reads the
    // forward of g - 1, which rank (r - 1) mod pp runs. A backward reads
    // its own forward and the backward of g + 1, which rank
    // (r + 1) mod pp runs. Every op of rank r has g = r (mod pp), so the
    // own forward is later in r's program if it is not done: that wait
    // never ends. So only a completion on a pipeline neighbour can
    // release a blocked rank: a finished forward can only release rank
    // (r + 1) mod pp, and a finished backward rank (r - 1) mod pp. The
    // replay wakes exactly that rank, if it is blocked, and the woken
    // rank retries its op. No wake-up is lost, each costs O(1), and the
    // ops that complete are the same fixpoint in any visiting order, so
    // a deadlock names the same rank and op whichever rank runs first.
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
    result.tape.reserve(static_cast<std::size_t>(2 * p.tmb() * p.pp));
    while (!runnable.empty()) {
        const std::int64_t r = runnable.back();
        runnable.pop_back();
        const std::vector<PipeOp> &prog = schedule.program(r);
        std::size_t &cursor = pc[static_cast<std::size_t>(r)];
        for (; cursor < prog.size(); ++cursor) {
            const PipeOp &op = prog[cursor];
            const std::int64_t g = schedule.globalStage(r, op.stage);
            const std::size_t cell = cellIndex(p, g, op.mb);
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
