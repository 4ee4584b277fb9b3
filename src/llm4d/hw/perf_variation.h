#ifndef LLM4D_HW_PERF_VARIATION_H_
#define LLM4D_HW_PERF_VARIATION_H_

/**
 * @file
 * Per-GPU performance variation model.
 *
 * Section 8.1 of the paper ("Minimize performance variations and make DVFS
 * deterministic") observes that fine-grain synchronization makes the whole
 * cluster run at the speed of its slowest accelerator. This model gives
 * every rank a multiplicative compute-speed factor: a small lognormal
 * baseline jitter (DVFS / binning) plus explicitly injected stragglers,
 * which the Section 6.1 slow-rank localization experiments search for.
 */

#include <cstdint>
#include <map>

#include "llm4d/simcore/rng.h"

namespace llm4d {

/** Multiplicative per-rank compute speed factors (1.0 = nominal). */
class PerfVariation
{
  public:
    /** Every rank runs at exactly nominal speed. */
    PerfVariation() = default;

    /**
     * Lognormal jitter: speed ~ exp(N(0, sigma)), clamped to <= 1 so the
     * nominal spec is the ceiling (DVFS only ever slows a part down).
     * @param sigma typical 0.005..0.02.
     */
    static PerfVariation jitter(double sigma, std::uint64_t seed);

    /** Force rank @p rank to run at @p speed (< 1 = straggler). */
    void injectStraggler(std::int64_t rank, double speed);

    /**
     * Compute-speed factor for @p rank. The two variation sources are
     * independent physical effects and *compound*: an injected straggler
     * still carries its rank's baseline lognormal jitter (a thermally
     * throttled part does not shed its binning spread), so the factor is
     * straggler_speed * jitter_speed, clamped to <= 1.
     */
    double speedOf(std::int64_t rank) const;

    /** Scale a nominal kernel duration for @p rank. */
    double
    apply(std::int64_t rank, double nominal_seconds) const
    {
        return nominal_seconds / speedOf(rank);
    }

    /** Ranks with explicitly injected slowdowns. */
    const std::map<std::int64_t, double> &stragglers() const
    {
        return stragglers_;
    }

    bool operator==(const PerfVariation &) const = default;

  private:
    double sigma_ = 0.0;
    std::uint64_t seed_ = 0;
    bool jittered_ = false;
    /** Ordered so consumers iterating the set stay deterministic (the
     *  unordered-iter lint covers this file). */
    std::map<std::int64_t, double> stragglers_;
};

} // namespace llm4d

#endif // LLM4D_HW_PERF_VARIATION_H_
