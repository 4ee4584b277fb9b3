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
 * The checker is the only owner of that dependency semantics: its replay
 * records the order in which it completed the ops, and the timed
 * executor walks that order instead of polling readiness itself.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Consecutive ops of one rank's program: its next @p ops ops. */
struct RankRun
{
    std::int64_t rank = 0;
    std::int64_t ops = 0;
};

/** Result of a legality check. */
struct LegalityResult
{
    bool legal = false;
    std::string reason; ///< empty when legal; diagnostic otherwise

    /**
     * When legal, the order in which the replay completed every op, as
     * runs of consecutive ops per rank: each rank's program exactly once,
     * in program order, and every op after the ops it reads from.
     */
    std::vector<RankRun> order;

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

    /** The order the check's replay completed the ops in (see
     *  LegalityResult::order); the executor walks it. */
    const std::vector<RankRun> &order() const { return order_; }

  private:
    LegalSchedule(Schedule schedule, std::vector<RankRun> order);

    Schedule schedule_;
    std::vector<RankRun> order_;
};

} // namespace llm4d

#endif // LLM4D_PP_LEGALITY_H_
