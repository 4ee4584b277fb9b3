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
 *
 * Every entry point runs one flat loop over the schedule's tape, the
 * order in which the legality check completed the ops
 * (LegalSchedule::tape()): each entry carries its price cell, rank and
 * direction, so every producer is timed before its consumer, no
 * readiness is polled and no per-rank program is read. Each price comes
 * from an ExecPrices table. A compile-time flag of that loop chooses
 * what it keeps: timeMakespan() keeps the makespan alone (no busy sums,
 * no in-flight ledgers), timeSchedule() the timings, and
 * executeSchedule() also the per-op records the timeline and memory
 * views read.
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

/** The prices one execution reads, as tables. */
struct ExecPrices
{
    /** Cost of each (global stage g, micro-batch mb), at g * nmb + mb. */
    std::vector<StageCost> stage;

    /** Seconds to move a boundary tensor into each rank from its previous
     *  pipeline neighbour, (rank + pp - 1) % pp: a forward's input. */
    std::vector<double> p2p_from_prev;

    /** Seconds into each rank from its next neighbour, (rank + 1) % pp:
     *  a backward's input. */
    std::vector<double> p2p_from_next;
};

/**
 * Pricing callbacks for schedule execution: the convenience form of
 * ExecPrices. executeSchedule calls stage_cost once per (stage,
 * micro-batch) and p2p_seconds once per neighbour pair, so both must be
 * pure.
 */
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

/** Timings of one execution: what a step's price reads. */
struct ExecTiming
{
    Time makespan = 0;
    std::vector<Time> busy;                  ///< per-rank compute time
    std::vector<std::int64_t> in_flight_peak; ///< per-rank peakInFlight()

    /** Idle-over-compute bubble ratio of one rank (paper Section 3.1.1).
     *  Asserts the rank exists and did work. */
    double bubbleRatio(std::int64_t rank) const;

    /** Worst per-rank bubble ratio. */
    double maxBubbleRatio() const;

    /** Pipeline-wide ratio: total idle over total compute. Asserts some
     *  rank did work. */
    double overallBubbleRatio() const;

    /**
     * Peak number of simultaneously in-flight micro-batches on a rank:
     * forwards started minus backwards completed, maximized over time
     * (a backward ending when a forward starts frees first). This drives
     * activation memory (Section 3.1.1).
     */
    std::int64_t peakInFlight(std::int64_t rank) const;
};

/** Result of executing a schedule: its timings plus every op's span. */
struct ExecResult : ExecTiming
{
    /** Sorted by (start, rank); each rank's ops in program order. */
    std::vector<OpRecord> records;

    /** End time of a specific operation (asserts it exists). */
    Time opEnd(std::int64_t rank, PipeOpKind kind, std::int64_t vstage,
               std::int64_t mb) const;
};

/**
 * Time an already-checked schedule under @p prices, building no records.
 * Aborts if the tables do not match the schedule's shape or hold a
 * negative price.
 */
ExecTiming timeSchedule(const LegalSchedule &schedule,
                        const ExecPrices &prices);

/**
 * timeSchedule(@p schedule, @p prices).makespan, computed by the same
 * loop without the busy sums and in-flight ledgers: what a step's
 * duration reads.
 */
Time timeMakespan(const LegalSchedule &schedule, const ExecPrices &prices);

/** Execute @p schedule under @p config, with records: checks it on every
 *  call and aborts if it is illegal. */
ExecResult executeSchedule(const Schedule &schedule,
                           const ExecConfig &config);

} // namespace llm4d

#endif // LLM4D_PP_EXECUTOR_H_
