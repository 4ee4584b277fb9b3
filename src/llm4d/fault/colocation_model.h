#ifndef LLM4D_FAULT_COLOCATION_MODEL_H_
#define LLM4D_FAULT_COLOCATION_MODEL_H_

/**
 * @file
 * Pod-heat co-location model: correlated straggler arrivals.
 *
 * FaultModel samples StragglerOnset as an independent Poisson process
 * per rank, but both MegaScale (arXiv:2402.15627) and the Llama 3
 * operational data observe that slow ranks arrive *correlated*: a pod
 * that just produced a straggler shares thermals, a power domain, and a
 * switch with its neighbors, so the next straggler is disproportionately
 * likely to land there too (paper Section 8.1's "performance
 * variations").
 *
 * This model keeps one scalar "heat" per pod:
 *  - every straggler onset adds heat_per_onset to its pod (capped at
 *    max_heat);
 *  - heat decays exponentially with half-life heat_half_life_s, so a
 *    cool-down is pure elapsed time — no hidden state;
 *  - a pod's straggler hazard is scaled by (1 + hazard_gain * heat),
 *    sampled exactly via Ogata thinning against the cap-implied bound
 *    rate, so the timeline stays a pure function of
 *    (cluster, tuning, seed) and common-random-number comparisons hold;
 *  - severities worsen with heat: the uniform [lo, hi) draw is squeezed
 *    toward lo by a factor (1 + severity_gain * heat), modeling thermal
 *    throttling biting harder in an already-hot pod.
 *
 * The model draws from three dedicated registered streams
 * (simcore/rng_streams.h, 0xc0..), disjoint from every FaultModel class
 * stream: enabling correlation leaves the fatal/flap timelines
 * bit-identical, and disabling it reproduces the independent straggler
 * timeline exactly.
 */

#include <cstdint>
#include <vector>

#include "llm4d/hw/gpu_spec.h"
#include "llm4d/simcore/rng.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Tuning of the pod-heat correlation process. */
struct ColocationTuning
{
    /** Master switch; off reproduces independent Poisson onsets. */
    bool enabled = false;

    /** Heat added to a pod by one straggler onset. */
    double heat_per_onset = 1.0;

    /** Heat ceiling per pod; also bounds the thinning envelope rate. */
    double max_heat = 4.0;

    /** Heat half-life, seconds (exponential decay between onsets). */
    double heat_half_life_s = 1800.0;

    /** Hazard multiplier: pod rate scales by (1 + gain * heat). */
    double hazard_gain = 3.0;

    /** Severity squeeze: the [lo, hi) draw shrinks toward lo by
     *  (1 + gain * heat), so hot pods produce worse stragglers. */
    double severity_gain = 1.0;

    /** Abort unless every knob is sane (called even when disabled, so a
     *  sweep cannot park garbage in an off cell and flip it on later). */
    void validate() const;
};

/** One correlated straggler onset (kept free of fault_model.h types so
 *  FaultTuning can embed ColocationTuning without an include cycle). */
struct CorrelatedOnset
{
    /** Absolute simulated time of onset. */
    Time when = 0;

    /** Global GPU rank that slowed down. */
    std::int64_t rank = 0;

    /** Surviving speed factor in (0, 1). */
    double severity = 1.0;

    /** Pod the rank lives in (redundant with rank; kept for telemetry). */
    std::int64_t pod = 0;
};

/**
 * Deterministic generator of pod-correlated straggler onsets. Pull-based
 * like FaultModel: sampleOnset(after) returns the next onset strictly
 * after @p after and mutates the heat ledger, so consuming the stream in
 * time order makes the timeline a pure function of
 * (cluster, tuning, base rate, severity range, seed).
 */
class PodHeatModel
{
  public:
    /**
     * @param base_rate_per_second cluster-wide StragglerOnset rate at
     *        zero heat (components / MTBF — FaultModel's independent
     *        rate, so correlation redistributes onsets without changing
     *        the cold-fleet expectation).
     * @param severity_lo/hi the FaultTuning straggler speed range.
     */
    PodHeatModel(const ClusterSpec &cluster, const ColocationTuning &tuning,
                 double base_rate_per_second, double severity_lo,
                 double severity_hi, std::uint64_t seed);

    /** Next onset strictly after @p after; advances the heat ledger.
     *  An onset past the end of the clock comes back at kNever, with no
     *  victim drawn and the ledger untouched. */
    [[nodiscard]] CorrelatedOnset sampleOnset(Time after);

    /** Heat of @p pod at time @p at (lazy exponential decay applied). */
    [[nodiscard]] double heatOf(std::int64_t pod, Time at) const;

    /** @p pod's onset rate at @p at: base share * (1 + gain * heat). */
    [[nodiscard]] double onsetRatePerSecond(std::int64_t pod, Time at) const;

    /** @p pod's zero-heat onset rate (its share of the base rate). */
    [[nodiscard]] double baseRatePerSecond(std::int64_t pod) const;

    [[nodiscard]] std::int64_t numPods() const
    {
        return static_cast<std::int64_t>(heat_.size());
    }

  private:
    ClusterSpec cluster_;
    ColocationTuning tuning_;
    double base_rate_per_second_ = 0.0;
    double severity_lo_ = 0.0;
    double severity_hi_ = 1.0;
    Rng arrival_rng_;  ///< thinning: candidate gaps + accept trials
    Rng target_rng_;   ///< victim pod + rank within it
    Rng severity_rng_; ///< base severity draw (pre-squeeze)
    std::vector<double> heat_;  ///< per-pod heat at stamp_[pod]
    std::vector<Time> stamp_;   ///< time heat_[pod] was last valued
};

} // namespace llm4d

#endif // LLM4D_FAULT_COLOCATION_MODEL_H_
