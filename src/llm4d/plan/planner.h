#ifndef LLM4D_PLAN_PLANNER_H_
#define LLM4D_PLAN_PLANNER_H_

/**
 * @file
 * Parallelism-configuration planner: an executable version of the paper's
 * Section 5 reasoning.
 *
 * Given a model, a cluster, and a token budget per step, enumerate
 * {tp, cp, pp, dp} assignments, reject infeasible ones (batch-size,
 * divisibility, and memory constraints), estimate step time with the
 * analytic cost model (compute + exposed TP/CP communication + pipeline
 * bubble + exposed FSDP), and rank the rest. The costs that depend on
 * the (tp, cp) shard alone (one layer, the output head, TP and CP
 * exposure) are priced once per shard and shared by its combos. For
 * the production inputs this reproduces Table 2: tp8/pp16/dp128 at 8K
 * context and tp8/cp16/pp16/dp8 at 131K.
 *
 * This layer is deliberately fault-free; plan/goodput_planner.h re-ranks
 * its survivors by simulated goodput under failures.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "llm4d/hw/gpu_spec.h"
#include "llm4d/model/memory_model.h"
#include "llm4d/model/model_config.h"
#include "llm4d/parallel/parallelism.h"
#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Inputs to a planning run. */
struct PlanInput
{
    ModelConfig model = ModelConfig::llama3_405b();
    ClusterSpec cluster = ClusterSpec::llama3Production();
    std::int64_t seq = 8192;
    std::int64_t global_batch_tokens = 16LL * 1024 * 1024;

    /** Candidate degrees to explore per axis (powers of two). */
    std::vector<std::int64_t> tp_options = {1, 2, 4, 8, 16};
    std::vector<std::int64_t> cp_options = {1, 2, 4, 8, 16, 32};
    std::vector<std::int64_t> pp_options = {1, 2, 4, 8, 16, 32};
};

/** Why a candidate was rejected (RejectReason::None = feasible). */
enum class RejectReason
{
    None,               ///< feasible
    ClusterIndivisible, ///< tp*cp*pp does not divide the cluster
    HeadsIndivisible,   ///< tp does not divide attention heads
    SequenceIndivisible,///< sequence does not split into 2*cp chunks
    TooFewLayers,       ///< fewer layers than pipeline stages
    BatchIndivisible,   ///< global batch does not divide across dp
    BatchTooSmall,      ///< batch per DP group below 1 sequence
    MemoryExceeded,     ///< exceeds HBM capacity
};

/** Display string of a rejection reason ("" for None). */
[[nodiscard]] const char *toString(RejectReason reason);

/** One evaluated configuration. */
struct PlanCandidate
{
    ParallelismConfig par;
    ZeroMode zero = ZeroMode::Zero1;
    ScheduleKind schedule = ScheduleKind::Flexible;
    std::int64_t bs = 0;   ///< sequences per DP group
    std::int64_t nmb = 0;  ///< micro-batches
    std::int64_t v = 0;    ///< virtual stages per PP rank

    bool feasible = false;
    RejectReason reject_reason = RejectReason::None;

    double est_step_seconds = 0.0;
    double est_tflops_per_gpu = 0.0;
    double est_memory_gib = 0.0;
    double bubble_ratio = 0.0;
    double exposed_comm_fraction = 0.0;
};

/** Evaluate every candidate; feasible ones sorted fastest-first, then
 *  the infeasible ones with their rejection reasons. */
[[nodiscard]] std::vector<PlanCandidate> enumeratePlans(const PlanInput &input);

/** The fastest feasible candidate of @p plans, an enumeratePlans()
 *  result, after the paper's Section 5.1 near-tie preference rules, or
 *  nullopt when nothing fits. */
[[nodiscard]] std::optional<PlanCandidate>
tryPreferredPlan(const std::vector<PlanCandidate> &plans);

/** tryPreferredPlan(enumeratePlans(input)). */
[[nodiscard]] std::optional<PlanCandidate> tryBestPlan(const PlanInput &input);

} // namespace llm4d

#endif // LLM4D_PLAN_PLANNER_H_
