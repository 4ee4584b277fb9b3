#ifndef LLM4D_PP_NC_ADVISOR_H_
#define LLM4D_PP_NC_ADVISOR_H_

/**
 * @file
 * Deployment logic for the flexible schedule's nc parameter.
 *
 * Section 3.1.1 exposes the trade: nc > pp hides exposed P2P but adds
 * (nc - pp) * (v - 1) in-flight warm-up micro-batches. In production the
 * question is "how large can nc be before activations blow the HBM
 * budget?". The advisor answers it from the schedule arithmetic alone.
 */

#include <cstdint>

#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Inputs for nc selection. */
struct NcBudget
{
    double act_bytes_per_microbatch = 0.0; ///< one stage-microbatch
    double fixed_bytes = 0.0;              ///< weights+grads+optimizer
    double capacity_bytes = 0.0;           ///< usable HBM
};

/** Outcome of nc selection. */
struct NcAdvice
{
    std::int64_t nc = 0;           ///< chosen round size
    std::int64_t in_flight = 0;    ///< rank-0 peak in-flight micro-batches
    double peak_bytes = 0.0;       ///< fixed + in_flight * act
    bool fits = false;
};

/**
 * Rank-0 peak in-flight micro-batches of the flexible schedule for a
 * given nc (the scheduled warm-up plus the first steady forward, capped
 * at the total).
 */
std::int64_t flexibleInFlight(const ScheduleParams &base, std::int64_t nc);

/**
 * Choose the largest nc in [pp, nmb] whose warm-up activations fit the
 * budget; when even nc = pp does not fit, fall back to the largest
 * feasible nc below pp (AFAB territory offers no relief — its in-flight
 * count is the whole batch — so the advisor reports the best effort and
 * fits=false if nothing works).
 */
NcAdvice adviseNc(const ScheduleParams &base, const NcBudget &budget);

} // namespace llm4d

#endif // LLM4D_PP_NC_ADVISOR_H_
