#ifndef LLM4D_FAULT_REPAIR_MODEL_H_
#define LLM4D_FAULT_REPAIR_MODEL_H_

/**
 * @file
 * Deterministic host/GPU repair process for elastic re-expansion.
 *
 * PR 2's elastic stack can swap spares and shrink the DP dimension, but
 * a shrink was permanent: the run limped at reduced DP forever. In
 * production the story continues — MegaScale (arXiv:2402.15627) returns
 * repaired hosts to the scheduler, which re-admits them into the job so
 * the data-parallel width regrows at a re-shard cost symmetric to the
 * shrink. This model supplies the missing half: every fatal fault's
 * component enters a repair shop and emerges as a time-ordered
 * RepairComplete event after an MTTR-driven turnaround.
 *
 * Like FaultModel, repairs draw from per-class RNG streams that are
 * independent of everything else in the run, so repaired capacity is a
 * pure function of (cluster, tuning, seed): two runs that differ only in
 * recovery policy see the identical repair timeline (common random
 * numbers), and a policy that ignores repairs reproduces pre-repair
 * behavior bit-identically.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "llm4d/fault/fault_model.h"
#include "llm4d/hw/gpu_spec.h"
#include "llm4d/simcore/rng.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** MTTR distributions of the repair shop. */
struct RepairTuning
{
    /**
     * Mean turnaround of a GPU swap-out, hours (exponential). The Llama
     * 3 report's dominant GPU failures resolve within a shift; board
     * swaps stretch the tail.
     */
    double gpu_repair_mean_hours = 3.0;

    /** Mean turnaround of a whole-host repair, hours (exponential). */
    double host_repair_mean_hours = 8.0;

    /**
     * Burn-in/requalification stretch factor applied on top of the
     * exponential draw (uniform range): a repaired host is not
     * re-admitted until it survives health checks.
     */
    double requalify_lo = 1.0;
    double requalify_hi = 1.25;

    /** Abort unless every mean is positive and the range is sane. */
    void validate() const;

    /** Mean repair turnaround for a fatal class, in seconds. */
    [[nodiscard]] double meanRepairSeconds(FaultKind kind) const;
};

/** One repaired component, ready for re-admission. */
struct RepairComplete
{
    /** The fatal class whose repair finished (GpuFatal or HostCrash). */
    FaultKind kind = FaultKind::GpuFatal;

    /** Absolute simulated time the component left the repair shop. */
    Time when = 0;

    /** Component id copied from the originating FaultEvent. */
    std::int64_t component = 0;

    /** "t=123.4s repaired GpuFatal gpu=17"-style rendering. */
    [[nodiscard]] std::string str() const;
};

/**
 * Turns fatal FaultEvents into a time-ordered queue of RepairComplete
 * events. submit() draws the turnaround from the class's own stream at
 * the moment the fault is submitted, so as long as every fatal fault is
 * submitted in timeline order (which TrainRunSim does unconditionally,
 * whether or not the policy consumes repairs), the repair timeline is a
 * pure function of (cluster, tuning, seed).
 */
class RepairModel
{
  public:
    RepairModel(const ClusterSpec &cluster, const RepairTuning &tuning,
                std::uint64_t seed);

    /** Enqueue the repair of a fatal fault's component. */
    void submit(const FaultEvent &fault);

    /** True when a repair has completed at or before @p now. */
    [[nodiscard]] bool hasReady(Time now) const;

    /** When the earliest repair in the shop completes (ready or not),
     *  or nullopt when the shop is empty. */
    [[nodiscard]] std::optional<Time> earliestCompletion() const;

    /** Pop the earliest completed repair (FIFO on ties). */
    RepairComplete pop();

    /** Components still in the shop (or finished but unconsumed). */
    [[nodiscard]] std::size_t pendingCount() const;

  private:
    RepairTuning tuning_;
    Rng gpu_rng_;
    Rng host_rng_;
    /** Ordered by completion time; insertion order breaks ties. */
    std::multimap<Time, RepairComplete> pending_;
};

} // namespace llm4d

#endif // LLM4D_FAULT_REPAIR_MODEL_H_
