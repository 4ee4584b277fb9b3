#ifndef LLM4D_PP_LEGALITY_H_
#define LLM4D_PP_LEGALITY_H_

/**
 * @file
 * Schedule legality checking.
 *
 * A pipeline schedule is legal when (a) every (global stage, micro-batch)
 * forward and backward appears exactly once, on the rank that hosts the
 * stage, and (b) executing each rank's stream in order — blocking on data
 * from neighbour stages — makes progress to completion (no deadlock).
 * One replay proves both: it also stops a rank at an op outside the
 * shape or at one it already ran, so a replay that completes every rank
 * has seen each op exactly once. A separate structural pass runs only
 * when the replay stops short, to name the fault. The checker is the
 * only owner of that dependency semantics, and the only writer of a
 * schedule's *tape*: its replay appends each op as it completes, with
 * the price cell, rank and direction the timed executor reads, so the
 * executor walks the tape in one flat loop instead of polling readiness
 * or interpreting the per-rank programs itself.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "llm4d/pp/schedule.h"

namespace llm4d {

/** One op of a checked schedule, as the timed executor reads it. */
struct TapeEntry
{
    std::uint32_t cell = 0; ///< price cell: global stage * nmb + mb
    std::uint16_t rank = 0; ///< pipeline rank that runs the op
    bool forward = false;   ///< direction
    /** Reads a neighbouring stage's output: the previous stage's forward
     *  (a forward past stage 0) or the next stage's backward (a backward
     *  before the last stage). */
    bool reads_neighbour = false;
};
static_assert(sizeof(TapeEntry) == 8, "a tape entry packs into 8 bytes");

/** Result of a legality check. */
struct LegalityResult
{
    bool legal = false;
    std::string reason; ///< empty when legal; diagnostic otherwise

    /**
     * When legal, every op in the order the replay completed it: each
     * rank's program exactly once, in program order, and every op after
     * the ops it reads from.
     */
    std::vector<TapeEntry> tape;

    explicit operator bool() const { return legal; }
};

/** Verify structural completeness and deadlock-freedom of a schedule. */
LegalityResult checkSchedule(const Schedule &schedule);

/**
 * A schedule that checkSchedule accepted, compiled to its tape. Only
 * check() builds one, so holding a LegalSchedule is the proof of
 * legality: it can be executed any number of times without being
 * checked again. It keeps only what the executor reads, the shape and
 * the tape, not the per-rank programs.
 */
class LegalSchedule
{
  public:
    /** Check @p schedule; aborts with the checker's reason if illegal. */
    static LegalSchedule check(const Schedule &schedule);

    /** The checked schedule's shape. */
    const ScheduleParams &params() const { return params_; }

    /** The check's tape (see LegalityResult::tape); the executor walks
     *  it. */
    const std::vector<TapeEntry> &tape() const { return tape_; }

  private:
    LegalSchedule(ScheduleParams params, std::vector<TapeEntry> tape);

    ScheduleParams params_;
    std::vector<TapeEntry> tape_;
};

} // namespace llm4d

#endif // LLM4D_PP_LEGALITY_H_
