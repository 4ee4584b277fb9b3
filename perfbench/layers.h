#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/**
 * @file
 * Per-layer metrics of the traced mode.
 *
 * After a traced query's timed span closes, its inputs are replayed
 * through the lower layers' public functions — DocMask sampling, CP pair
 * counting, schedule build / legality / execution, P2P pricing,
 * TrainSim, FaultModel, the planner — each call group inside its own
 * span. Every metric is a time per call (or a count read from the
 * query's reports) for that one query; the benchmark reports the median
 * over traced queries.
 */

#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

class Tracer;

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in output order. */
[[nodiscard]] const std::vector<LayerMetric> &layerMetrics();

/** What replaying one traced query measured. */
struct LayerSample
{
    /** Metric name -> this query's value (metrics it could not reach
     *  are absent). */
    std::map<std::string, double> values;

    /** Replayed planner cells whose report differs from the cell the
     *  planner returned (the replay rebuilds each cell's config from
     *  public fields; a mismatch means that rebuild is stale). */
    int cell_mismatches = 0;
};

/**
 * Replay @p query (answered by @p answer) through the lower layers.
 * @p query_span is the traced query's span; its children are the
 * query's own top-level calls.
 */
[[nodiscard]] LayerSample replayLayers(const Query &query,
                                       const Answer &answer, Tracer &tracer,
                                       int query_span);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
