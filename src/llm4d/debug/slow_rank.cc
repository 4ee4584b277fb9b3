#include "llm4d/debug/slow_rank.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "llm4d/debug/trace.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

std::string
SlowRankReport::render() const
{
    std::ostringstream os;
    for (const SlowRankStep &s : steps)
        os << s.axis << "=" << s.coordinate << " -> ";
    os << "rank " << rank << " (compute "
       << compute_seconds * 1e3 << " ms vs median "
       << median_compute_seconds * 1e3 << " ms)";
    return os.str();
}

namespace {

/** Which end of a level's scores holds the culprit's coordinate. */
enum class Culprit
{
    Highest, ///< the last of tied highest scores
    Lowest,  ///< the first of tied lowest scores
};

/**
 * The Section 6.1 walk both localizers run. At each level, outermost
 * (most synchronized last) first, the ranks left are grouped by their
 * coordinate on the level's axis, @p score rates each group from its
 * members, and the culprit's group is kept. One rank is left at the end;
 * @p compute gives its compute time and the median.
 */
template <typename Score>
SlowRankReport
walk(const RankGrid &grid, std::vector<double> compute, Culprit culprit,
     Score score)
{
    struct Level
    {
        const char *axis;
        std::int64_t extent;
        std::int64_t RankCoord::*coord;
    };
    const ParallelismConfig &cfg = grid.config();
    const Level levels[] = {{"dp", cfg.dp, &RankCoord::dp},
                            {"pp", cfg.pp, &RankCoord::pp},
                            {"cp", cfg.cp, &RankCoord::cp},
                            {"tp", cfg.tp, &RankCoord::tp}};

    SlowRankReport report;
    std::vector<std::int64_t> ranks(static_cast<std::size_t>(grid.worldSize()));
    std::iota(ranks.begin(), ranks.end(), std::int64_t{0});
    for (const Level &level : levels) {
        std::vector<std::vector<std::int64_t>> groups(
            static_cast<std::size_t>(level.extent));
        for (const std::int64_t r : ranks)
            groups[static_cast<std::size_t>(grid.coordOf(r).*level.coord)]
                .push_back(r);
        std::vector<double> scores;
        scores.reserve(groups.size());
        for (const std::vector<std::int64_t> &members : groups)
            scores.push_back(score(level.axis, members));
        const auto [lo, hi] =
            std::minmax_element(scores.begin(), scores.end());
        const auto chosen = static_cast<std::int64_t>(
            (culprit == Culprit::Lowest ? lo : hi) - scores.begin());
        report.steps.push_back(SlowRankStep{level.axis, chosen, *hi - *lo});
        ranks = std::move(groups[static_cast<std::size_t>(chosen)]);
    }

    report.rank = ranks.front();
    report.compute_seconds = compute[static_cast<std::size_t>(report.rank)];
    std::nth_element(compute.begin(), compute.begin() + compute.size() / 2,
                     compute.end());
    report.median_compute_seconds = compute[compute.size() / 2];
    return report;
}

} // namespace

SlowRankReport
findSlowRank(const RankGrid &grid, const std::vector<double> &compute)
{
    LLM4D_CHECK(static_cast<std::int64_t>(compute.size()) ==
                    grid.worldSize(),
                "need one compute time per rank");
    // The group hosting the culprit shows the least collective wait,
    // i.e. the most compute: a group scores its slowest member's.
    return walk(grid, compute, Culprit::Highest,
                [&](const char *, const std::vector<std::int64_t> &members) {
                    double slowest = 0.0;
                    for (const std::int64_t r : members)
                        slowest = std::max(
                            slowest, compute[static_cast<std::size_t>(r)]);
                    return slowest;
                });
}

SlowRankReport
findSlowRankFromTrace(const RankGrid &grid, const ClusterTrace &trace)
{
    LLM4D_CHECK(trace.worldSize() == grid.worldSize(),
                "trace does not cover the grid");
    std::vector<double> compute(static_cast<std::size_t>(grid.worldSize()));
    for (std::int64_t r = 0; r < grid.worldSize(); ++r)
        compute[static_cast<std::size_t>(r)] =
            trace.rank(r).computeSeconds();
    // The culprit's ranks are waited for, so they show the least
    // collective time on the level's axis: a group scores its ranks'
    // mean.
    return walk(grid, std::move(compute), Culprit::Lowest,
                [&](const char *axis,
                    const std::vector<std::int64_t> &members) {
                    double wait = 0.0;
                    for (const std::int64_t r : members)
                        wait += trace.rank(r).collectiveSeconds(axis);
                    return wait / static_cast<double>(members.size());
                });
}

} // namespace llm4d
