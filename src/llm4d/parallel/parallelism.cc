#include "llm4d/parallel/parallelism.h"

#include <algorithm>
#include <sstream>

#include "llm4d/simcore/common.h"

namespace llm4d {

std::string
ParallelismConfig::str() const
{
    std::ostringstream os;
    os << "tp" << tp << " cp" << cp << " pp" << pp << " dp" << dp;
    return os.str();
}

void
ParallelismConfig::validate() const
{
    LLM4D_CHECK(tp >= 1 && cp >= 1 && pp >= 1 && dp >= 1,
                "parallelism degrees must be positive: " << str());
}

RankSpan
RankSpan::of(const std::vector<std::int64_t> &ranks)
{
    LLM4D_ASSERT(!ranks.empty(), "empty rank group");
    const auto [lo, hi] = std::minmax_element(ranks.begin(), ranks.end());
    return {static_cast<std::int64_t>(ranks.size()), *lo, *hi};
}

RankGrid::RankGrid(const ParallelismConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

RankCoord
RankGrid::coordOf(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < worldSize(),
                 "rank " << rank << " outside world of " << worldSize());
    RankCoord c;
    // Order [TP, CP, PP, DP] inner -> outer.
    c.tp = rank % cfg_.tp;
    rank /= cfg_.tp;
    c.cp = rank % cfg_.cp;
    rank /= cfg_.cp;
    c.pp = rank % cfg_.pp;
    rank /= cfg_.pp;
    c.dp = rank;
    return c;
}

std::int64_t
RankGrid::rankOf(const RankCoord &coord) const
{
    LLM4D_ASSERT(coord.tp >= 0 && coord.tp < cfg_.tp &&
                 coord.cp >= 0 && coord.cp < cfg_.cp &&
                 coord.pp >= 0 && coord.pp < cfg_.pp &&
                 coord.dp >= 0 && coord.dp < cfg_.dp,
                 "coordinate outside grid");
    return coord.tp +
           cfg_.tp * (coord.cp + cfg_.cp * (coord.pp + cfg_.pp * coord.dp));
}

std::vector<std::int64_t>
RankGrid::axisGroup(std::int64_t rank, Axis axis) const
{
    RankCoord c = coordOf(rank);
    std::int64_t extent = 0;
    switch (axis) {
      case Axis::Tp:
        extent = cfg_.tp;
        break;
      case Axis::Cp:
        extent = cfg_.cp;
        break;
      case Axis::Pp:
        extent = cfg_.pp;
        break;
      case Axis::Dp:
        extent = cfg_.dp;
        break;
    }
    std::vector<std::int64_t> group;
    group.reserve(static_cast<std::size_t>(extent));
    for (std::int64_t i = 0; i < extent; ++i) {
        RankCoord member = c;
        switch (axis) {
          case Axis::Tp:
            member.tp = i;
            break;
          case Axis::Cp:
            member.cp = i;
            break;
          case Axis::Pp:
            member.pp = i;
            break;
          case Axis::Dp:
            member.dp = i;
            break;
        }
        group.push_back(rankOf(member));
    }
    return group;
}

std::vector<std::int64_t>
RankGrid::tpGroup(std::int64_t rank) const
{
    return axisGroup(rank, Axis::Tp);
}

std::vector<std::int64_t>
RankGrid::cpGroup(std::int64_t rank) const
{
    return axisGroup(rank, Axis::Cp);
}

std::vector<std::int64_t>
RankGrid::ppGroup(std::int64_t rank) const
{
    return axisGroup(rank, Axis::Pp);
}

std::vector<std::int64_t>
RankGrid::dpGroup(std::int64_t rank) const
{
    return axisGroup(rank, Axis::Dp);
}

std::vector<std::int64_t>
RankGrid::dpCpGroup(std::int64_t rank) const
{
    const RankCoord c = coordOf(rank);
    std::vector<std::int64_t> group;
    group.reserve(static_cast<std::size_t>(cfg_.dp * cfg_.cp));
    // DP-major, CP-minor: consecutive CP peers stay adjacent (inner).
    for (std::int64_t d = 0; d < cfg_.dp; ++d) {
        for (std::int64_t k = 0; k < cfg_.cp; ++k) {
            RankCoord member = c;
            member.dp = d;
            member.cp = k;
            group.push_back(rankOf(member));
        }
    }
    return group;
}

RankSpan
RankGrid::axisSpan(std::int64_t rank, Axis axis) const
{
    // Order [TP, CP, PP, DP] inner -> outer: members along an axis are
    // the product of the inner extents apart, and the lowest member has
    // that axis's coordinate at 0.
    const RankCoord c = coordOf(rank);
    std::int64_t stride = 1, extent = 0, coord = 0;
    switch (axis) {
      case Axis::Tp:
        extent = cfg_.tp;
        coord = c.tp;
        break;
      case Axis::Cp:
        stride = cfg_.tp;
        extent = cfg_.cp;
        coord = c.cp;
        break;
      case Axis::Pp:
        stride = cfg_.tp * cfg_.cp;
        extent = cfg_.pp;
        coord = c.pp;
        break;
      case Axis::Dp:
        stride = cfg_.tp * cfg_.cp * cfg_.pp;
        extent = cfg_.dp;
        coord = c.dp;
        break;
    }
    const std::int64_t first = rank - coord * stride;
    return {extent, first, first + (extent - 1) * stride};
}

RankSpan
RankGrid::tpSpan(std::int64_t rank) const
{
    return axisSpan(rank, Axis::Tp);
}

RankSpan
RankGrid::cpSpan(std::int64_t rank) const
{
    return axisSpan(rank, Axis::Cp);
}

RankSpan
RankGrid::ppSpan(std::int64_t rank) const
{
    return axisSpan(rank, Axis::Pp);
}

RankSpan
RankGrid::dpSpan(std::int64_t rank) const
{
    return axisSpan(rank, Axis::Dp);
}

RankSpan
RankGrid::dpCpSpan(std::int64_t rank) const
{
    // The two axes' offsets from @p rank add: the lowest member has
    // cp = dp = 0, the highest both at their last index.
    const RankSpan cp = cpSpan(rank);
    const RankSpan dp = dpSpan(rank);
    return {cp.size * dp.size, cp.first + dp.first - rank,
            cp.last + dp.last - rank};
}

std::vector<std::vector<std::int64_t>>
RankGrid::allGroups(Axis axis) const
{
    std::vector<std::vector<std::int64_t>> groups;
    std::vector<bool> seen(static_cast<std::size_t>(worldSize()), false);
    for (std::int64_t r = 0; r < worldSize(); ++r) {
        if (seen[static_cast<std::size_t>(r)])
            continue;
        auto group = axisGroup(r, axis);
        for (std::int64_t member : group)
            seen[static_cast<std::size_t>(member)] = true;
        groups.push_back(std::move(group));
    }
    return groups;
}

std::vector<std::vector<std::int64_t>>
RankGrid::allTpGroups() const
{
    return allGroups(Axis::Tp);
}

std::vector<std::vector<std::int64_t>>
RankGrid::allCpGroups() const
{
    return allGroups(Axis::Cp);
}

std::vector<std::vector<std::int64_t>>
RankGrid::allPpGroups() const
{
    return allGroups(Axis::Pp);
}

std::vector<std::vector<std::int64_t>>
RankGrid::allDpGroups() const
{
    return allGroups(Axis::Dp);
}

} // namespace llm4d
