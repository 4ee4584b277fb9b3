#include "llm4d/pp/legality.h"

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
    std::vector<bool> fwd_done(static_cast<std::size_t>(cells), false);
    std::vector<bool> bwd_done(static_cast<std::size_t>(cells), false);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    LegalityResult result{true, "", {}};

    auto ready = [&](std::int64_t rank, const PipeOp &op) {
        const std::int64_t g = schedule.globalStage(rank, op.stage);
        if (op.kind == PipeOpKind::Forward) {
            return g == 0 || fwd_done[cellIndex(p, g - 1, op.mb)];
        }
        if (!fwd_done[cellIndex(p, g, op.mb)])
            return false;
        return g == p.numStages() - 1 ||
               bwd_done[cellIndex(p, g + 1, op.mb)];
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::int64_t r = 0; r < p.pp; ++r) {
            const auto &prog = schedule.program(r);
            auto &cursor = pc[static_cast<std::size_t>(r)];
            const std::size_t first = cursor;
            while (cursor < prog.size() && ready(r, prog[cursor])) {
                const PipeOp &op = prog[cursor];
                const std::int64_t g = schedule.globalStage(r, op.stage);
                auto &done =
                    op.kind == PipeOpKind::Forward ? fwd_done : bwd_done;
                done[cellIndex(p, g, op.mb)] = true;
                ++cursor;
            }
            if (cursor > first) {
                result.order.push_back(
                    {r, static_cast<std::int64_t>(cursor - first)});
                progress = true;
            }
        }
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

LegalSchedule::LegalSchedule(Schedule schedule, std::vector<RankRun> order)
    : schedule_(std::move(schedule)), order_(std::move(order))
{
}

LegalSchedule
LegalSchedule::check(Schedule schedule)
{
    LegalityResult legal = checkSchedule(schedule);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);
    return LegalSchedule(std::move(schedule), std::move(legal.order));
}

} // namespace llm4d
