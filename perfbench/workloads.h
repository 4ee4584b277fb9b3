#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads and the checks every answer must pass.
 *
 *  - run_degraded: the 131K-context Table 2 plan on a worn fleet
 *                  (step pricing: document masks + CP pair counts);
 *  - plan_sweep:   one planGoodput question per query, 2K..16K GPUs
 *                  (planning and run simulation: one TrainRunSim per
 *                  policy cell).
 *
 * A query is a pure function of (workload, seed, index), so a seed
 * regenerates every fault and job seed and the program only ever sees
 * the generated inputs.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "llm4d/plan/goodput_planner.h"
#include "llm4d/sim/train_run_sim.h"

namespace perfbench {

class Tracer;

enum class Workload
{
    RunDegraded,
    PlanSweep,
};

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);

/** Comma-separated list of the workload names, for usage messages. */
[[nodiscard]] const char *workloadNames();

/**
 * Queries of a workload fall into classes of like cost: plan_sweep has
 * one per cluster size, run_degraded one. The latency metrics take each
 * class's median and combine them, so a median never lands in the gap
 * between two classes.
 */
[[nodiscard]] int queryClasses(Workload workload);

/** Class of query @p index, in [0, queryClasses(workload)). */
[[nodiscard]] int queryClass(Workload workload, std::int64_t index);

/** One question: a training run to simulate, or a planning question. */
using Query = std::variant<llm4d::TrainRunConfig, llm4d::GoodputPlanInput>;

/** Its answer: the run's report, or the planner's ranking. */
using Answer = std::variant<llm4d::TrainRunReport,
                            std::vector<llm4d::GoodputPlanCandidate>>;

/** Query @p index of @p workload under workload seed @p seed. */
[[nodiscard]] Query makeQuery(Workload workload, std::uint64_t seed,
                              std::int64_t index);

/**
 * The timed work of one query: build the simulator and run it, or ask
 * the planner. With a tracer, each top-level call gets a span.
 */
[[nodiscard]] Answer answer(const Query &query, Tracer *tracer);

/** Every TrainRunReport an answer holds, in answer order. */
[[nodiscard]] std::vector<const llm4d::TrainRunReport *>
reportsOf(const Answer &answer);

/** FNV-1a digest of one report's bit patterns (timeline included). */
[[nodiscard]] std::uint64_t reportDigest(const llm4d::TrainRunReport &report);

/** What checking one answer found. */
struct Checked
{
    /** One line per failed check; empty when the answer is correct. */
    std::vector<std::string> failures;

    /** Simulated steps (committed + lost) over every report. */
    std::int64_t sim_steps = 0;

    /** Digest of every report and of the planner's ranking. */
    std::uint64_t digest = 0;
};

/** Check @p answer against @p query (outside any timed span). */
[[nodiscard]] Checked check(const Query &query, const Answer &answer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
