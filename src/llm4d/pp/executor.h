#ifndef LLM4D_PP_EXECUTOR_H_
#define LLM4D_PP_EXECUTOR_H_

/**
 * @file
 * Timed execution of a pipeline schedule.
 *
 * The executor interprets per-rank instruction streams under the same
 * dependency semantics the legality checker verifies, pricing each
 * operation and each cross-rank activation/gradient hand-off:
 *
 *   start(op) = max(end(previous op on the rank),
 *                   end(producer op) + p2p transfer)
 *
 * P2P sends are asynchronous (the producer never blocks), matching the
 * paper's "decoupled asynchronous P2P send and receive" (Section 5.2).
 * Idle gaps that open on the critical path are exactly the pipeline
 * bubbles of Figures 3 and 9.
 */

#include <functional>
#include <vector>

#include "llm4d/pp/legality.h"
#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Cost of one stage execution for one micro-batch. */
struct StageCost
{
    double fwd_seconds = 0.0;
    double bwd_seconds = 0.0;
};

/** Pricing callbacks for schedule execution. */
struct ExecConfig
{
    /** Cost of (rank, virtual stage) for micro-batch @p mb. */
    std::function<StageCost(std::int64_t rank, std::int64_t vstage,
                            std::int64_t mb)>
        stage_cost;

    /** Seconds to move one micro-batch's boundary tensor rank->rank. */
    std::function<double(std::int64_t from_rank, std::int64_t to_rank)>
        p2p_seconds;

    /** Convenience: constant stage cost and constant P2P time. */
    static ExecConfig uniform(double fwd_seconds, double bwd_seconds,
                              double p2p_seconds);
};

/** One executed operation with its time span. */
struct OpRecord
{
    std::int64_t rank = 0;
    PipeOp op;
    Time start = 0;
    Time end = 0;
};

/** Result of executing a schedule. */
struct ExecResult
{
    /** Sorted by (start, rank); each rank's ops in program order. */
    std::vector<OpRecord> records;
    Time makespan = 0;
    std::vector<Time> busy;                  ///< per-rank compute time
    std::vector<std::int64_t> in_flight_peak; ///< per-rank peakInFlight()

    /** Idle-over-compute bubble ratio of one rank (paper Section 3.1.1). */
    double bubbleRatio(std::int64_t rank) const;

    /** Worst per-rank bubble ratio. */
    double maxBubbleRatio() const;

    /** Pipeline-wide ratio: total idle over total compute. */
    double overallBubbleRatio() const;

    /** End time of a specific operation (asserts it exists). */
    Time opEnd(std::int64_t rank, PipeOpKind kind, std::int64_t vstage,
               std::int64_t mb) const;

    /**
     * Peak number of simultaneously in-flight micro-batches on a rank:
     * forwards started minus backwards completed, maximized over time
     * (a backward ending when a forward starts frees first). This drives
     * activation memory (Section 3.1.1).
     */
    std::int64_t peakInFlight(std::int64_t rank) const;
};

/** Execute @p schedule under @p config. Aborts on illegal schedules. */
ExecResult executeSchedule(const Schedule &schedule,
                           const ExecConfig &config);

/** Execute an already-checked schedule; no legality pass is repeated. */
ExecResult executeSchedule(const LegalSchedule &schedule,
                           const ExecConfig &config);

} // namespace llm4d

#endif // LLM4D_PP_EXECUTOR_H_
