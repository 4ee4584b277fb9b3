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
 * The checker replays exactly the dependency semantics the timed executor
 * uses, so a schedule it accepts cannot hang the simulator.
 */

#include <string>

#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Result of a legality check. */
struct LegalityResult
{
    bool legal = false;
    std::string reason; ///< empty when legal; diagnostic otherwise

    explicit operator bool() const { return legal; }
};

/** Verify structural completeness and deadlock-freedom of a schedule. */
LegalityResult checkSchedule(const Schedule &schedule);

/**
 * A schedule that checkSchedule accepted. Only check() builds one, so
 * holding a LegalSchedule is the proof of legality: it can be executed
 * any number of times without being checked again.
 */
class LegalSchedule
{
  public:
    /** Check @p schedule; aborts with the checker's reason if illegal. */
    static LegalSchedule check(Schedule schedule);

    const Schedule &schedule() const { return schedule_; }

  private:
    explicit LegalSchedule(Schedule schedule);

    Schedule schedule_;
};

} // namespace llm4d

#endif // LLM4D_PP_LEGALITY_H_
