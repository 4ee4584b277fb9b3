#include "llm4d/debug/trace.h"

#include <algorithm>
#include <sstream>

#include "llm4d/simcore/common.h"

namespace llm4d {

void
RankTrace::add(TraceEvent event)
{
    LLM4D_ASSERT(event.end >= event.start, "event ends before it starts");
    LLM4D_ASSERT(events_.empty() || event.start >= events_.back().start,
                 "events must be appended in time order");
    events_.push_back(std::move(event));
}

double
RankTrace::computeSeconds() const
{
    Time total = 0;
    for (const TraceEvent &ev : events_)
        if (ev.kind == TraceEventKind::Compute)
            total += ev.duration();
    return timeToSeconds(total);
}

double
RankTrace::collectiveSeconds(const std::string &axis) const
{
    Time total = 0;
    for (const TraceEvent &ev : events_) {
        if (ev.kind != TraceEventKind::Collective)
            continue;
        if (!axis.empty() && ev.axis != axis)
            continue;
        total += ev.duration();
    }
    return timeToSeconds(total);
}

ClusterTrace::ClusterTrace(std::int64_t world_size)
    : ranks_(static_cast<std::size_t>(world_size))
{
    LLM4D_CHECK(world_size > 0, "trace needs at least one rank");
}

RankTrace &
ClusterTrace::rank(std::int64_t r)
{
    LLM4D_ASSERT(r >= 0 && r < worldSize(), "rank out of range");
    return ranks_[static_cast<std::size_t>(r)];
}

const RankTrace &
ClusterTrace::rank(std::int64_t r) const
{
    LLM4D_ASSERT(r >= 0 && r < worldSize(), "rank out of range");
    return ranks_[static_cast<std::size_t>(r)];
}

ClusterTrace
ClusterTrace::synthesize(const RankGrid &grid,
                         const std::vector<double> &compute_seconds,
                         std::int64_t iterations)
{
    LLM4D_CHECK(static_cast<std::int64_t>(compute_seconds.size()) ==
                    grid.worldSize(),
                "one compute time per rank required");
    LLM4D_CHECK(iterations >= 1, "need at least one iteration");
    ClusterTrace trace(grid.worldSize());
    std::vector<Time> ready(static_cast<std::size_t>(grid.worldSize()), 0);

    struct AxisGroups
    {
        const char *name;
        std::vector<std::vector<std::int64_t>> groups;
    };
    // Collectives run innermost-first within an iteration (Section 5.2
    // ordering).
    const AxisGroups axes[] = {{"tp", grid.allTpGroups()},
                               {"cp", grid.allCpGroups()},
                               {"pp", grid.allPpGroups()},
                               {"dp", grid.allDpGroups()}};

    for (std::int64_t it = 0; it < iterations; ++it) {
        for (std::int64_t r = 0; r < grid.worldSize(); ++r) {
            const auto i = static_cast<std::size_t>(r);
            const Time start = ready[i];
            const Time end =
                start + secondsToTime(compute_seconds[i]);
            trace.rank(r).add(
                TraceEvent{TraceEventKind::Compute, "", start, end});
            ready[i] = end;
        }
        for (const AxisGroups &axis : axes) {
            for (const auto &group : axis.groups) {
                if (group.size() < 2)
                    continue;
                Time group_end = 0;
                for (std::int64_t member : group)
                    group_end = std::max(
                        group_end,
                        ready[static_cast<std::size_t>(member)]);
                for (std::int64_t member : group) {
                    const auto i = static_cast<std::size_t>(member);
                    trace.rank(member).add(
                        TraceEvent{TraceEventKind::Collective, axis.name,
                                   ready[i], group_end});
                    ready[i] = group_end;
                }
            }
        }
    }
    return trace;
}

std::string
ClusterTrace::renderGroup(const std::vector<std::int64_t> &group,
                          const std::string &axis, int width) const
{
    LLM4D_ASSERT(!group.empty() && width > 0, "invalid render request");
    Time horizon = 0;
    for (std::int64_t r : group)
        for (const TraceEvent &ev : rank(r).events())
            horizon = std::max(horizon, ev.end);
    if (horizon == 0)
        horizon = 1;

    std::ostringstream os;
    for (std::int64_t r : group) {
        std::string line(static_cast<std::size_t>(width), ' ');
        for (const TraceEvent &ev : rank(r).events()) {
            char glyph = 'c';
            if (ev.kind == TraceEventKind::Collective)
                glyph = ev.axis == axis ? '#' : '=';
            const auto lo = static_cast<std::size_t>(
                ev.start * width / horizon);
            const auto hi = std::min<std::size_t>(
                static_cast<std::size_t>(width),
                static_cast<std::size_t>(
                    (ev.end * width + horizon - 1) / horizon));
            for (std::size_t col = lo; col < hi; ++col)
                line[col] = glyph;
        }
        os << "rank " << r << " |" << line << "|\n";
    }
    os << "('c' compute, '#' " << axis
       << " collective, '=' other collectives; short '#' marks the "
          "culprit)\n";
    return os.str();
}

} // namespace llm4d
