#ifndef LLM4D_DEBUG_SLOW_RANK_H_
#define LLM4D_DEBUG_SLOW_RANK_H_

/**
 * @file
 * Top-down slow-rank localization (paper Section 6.1, Figure 8).
 *
 * In synchronized parallel training the rank where a slowdown is
 * *observed* is rarely the culprit: a healthy rank shows long collectives
 * (it waits), the slow rank shows short collectives (everyone waits for
 * it). The paper's method walks the parallelism hierarchy from the
 * outermost level inward — [DP, PP, CP, TP] — at each level selecting the
 * group whose members exhibit the least collective-wait time, until a
 * single rank remains.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "llm4d/parallel/parallelism.h"

namespace llm4d {

/** One narrowing step of the analysis. */
struct SlowRankStep
{
    std::string axis;        ///< "dp", "pp", "cp", or "tp"
    std::int64_t coordinate; ///< chosen coordinate along that axis
    double wait_spread;      ///< max-min wait among inspected candidates
};

/** Outcome of the top-down analysis. */
struct SlowRankReport
{
    std::int64_t rank = -1;             ///< the localized culprit
    std::vector<SlowRankStep> steps;    ///< narrowing path, outer->inner
    double compute_seconds = 0.0;       ///< culprit's compute time
    double median_compute_seconds = 0.0;

    /** Human-readable rendering of the narrowing path. */
    std::string render() const;
};

/**
 * Localize the slowest rank from per-rank step compute times.
 *
 * @param grid     the 4D rank grid.
 * @param compute  per-global-rank compute seconds for one step; ranks
 *                 that wait have low compute+high wait, the culprit the
 *                 reverse.
 *
 * At each level the coordinate whose slowest member computes longest is
 * picked, the highest such coordinate on a tie.
 */
SlowRankReport findSlowRank(const RankGrid &grid,
                            const std::vector<double> &compute);

} // namespace llm4d

#endif // LLM4D_DEBUG_SLOW_RANK_H_
