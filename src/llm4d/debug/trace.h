#ifndef LLM4D_DEBUG_TRACE_H_
#define LLM4D_DEBUG_TRACE_H_

/**
 * @file
 * Performance traces and trace-driven slow-rank localization (paper
 * Section 6.1, Figure 8).
 *
 * In production the input to root-cause analysis is not "per-rank compute
 * time" (nobody has that directly) but *collective traces*: for every
 * rank, when it entered and left each communication collective. The
 * tell-tale inversion: a healthy rank spends a long time inside
 * collectives (waiting for stragglers), the culprit spends the least.
 * This module synthesizes such traces from a workload model and runs the
 * paper's top-down narrowing on them.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "llm4d/debug/slow_rank.h"
#include "llm4d/parallel/parallelism.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Kind of a traced interval. */
enum class TraceEventKind
{
    Compute,
    Collective,
};

/** One traced interval on one rank. */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Compute;
    std::string axis; ///< "tp", "cp", "pp", "dp" for collectives
    Time start = 0;
    Time end = 0;

    Time duration() const { return end - start; }
};

/** All events of one rank, in time order. */
class RankTrace
{
  public:
    /** Append an event (must not precede the previous event's start). */
    void add(TraceEvent event);

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Total compute seconds. */
    double computeSeconds() const;

    /** Total collective seconds, optionally restricted to one axis. */
    double collectiveSeconds(const std::string &axis = "") const;

  private:
    std::vector<TraceEvent> events_;
};

/** Traces for every rank of a job. */
class ClusterTrace
{
  public:
    /** Create empty traces for @p world_size ranks. */
    explicit ClusterTrace(std::int64_t world_size);

    std::int64_t worldSize() const
    {
        return static_cast<std::int64_t>(ranks_.size());
    }

    RankTrace &rank(std::int64_t r);
    const RankTrace &rank(std::int64_t r) const;

    /**
     * Synthesize one training iteration's trace: every rank computes for
     * its own duration, then joins one synchronizing collective per
     * parallelism axis, innermost first ([tp, cp, pp, dp]); each
     * collective completes when its slowest member arrives, so healthy
     * ranks accrue wait time inside it.
     *
     * @param compute_seconds per-rank compute duration for the iteration.
     * @param iterations      how many iterations to replay.
     */
    static ClusterTrace synthesize(const RankGrid &grid,
                                   const std::vector<double> &compute_seconds,
                                   std::int64_t iterations = 1);

    /**
     * Render a Figure-8 style stacked view of one group's collective
     * intervals (one line per member rank).
     */
    std::string renderGroup(const std::vector<std::int64_t> &group,
                            const std::string &axis, int width = 60) const;

  private:
    std::vector<RankTrace> ranks_;
};

/**
 * Top-down slow-rank localization from collective traces: walk
 * [dp, pp, cp, tp]; at each level pick the coordinate whose ranks show
 * the *least* mean collective time at that axis (they are waited for,
 * they do not wait), the lowest such coordinate on a tie. It runs
 * findSlowRank's walk (slow_rank.cc) with that score.
 */
SlowRankReport findSlowRankFromTrace(const RankGrid &grid,
                                     const ClusterTrace &trace);

} // namespace llm4d

#endif // LLM4D_DEBUG_TRACE_H_
