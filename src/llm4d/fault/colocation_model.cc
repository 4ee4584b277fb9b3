#include "llm4d/fault/colocation_model.h"

#include <algorithm>
#include <cmath>

#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng_streams.h"

namespace llm4d {

namespace {

constexpr double kLn2 = 0.6931471805599453;

} // namespace

void
ColocationTuning::validate() const
{
    LLM4D_CHECK(heat_per_onset > 0.0, "heat per onset must be positive");
    LLM4D_CHECK(max_heat >= heat_per_onset,
                "max heat must admit at least one onset's worth of heat");
    LLM4D_CHECK(heat_half_life_s > 0.0, "heat half-life must be positive");
    LLM4D_CHECK(hazard_gain >= 0.0 && severity_gain >= 0.0,
                "co-location gains must be non-negative");
}

PodHeatModel::PodHeatModel(const ClusterSpec &cluster,
                           const ColocationTuning &tuning,
                           double base_rate_per_second, double severity_lo,
                           double severity_hi, std::uint64_t seed)
    : cluster_(cluster), tuning_(tuning),
      base_rate_per_second_(base_rate_per_second),
      severity_lo_(severity_lo), severity_hi_(severity_hi),
      arrival_rng_(seed, rng_streams::kPodHeatArrivalStream),
      target_rng_(seed, rng_streams::kPodHeatTargetStream),
      severity_rng_(seed, rng_streams::kPodHeatSeverityStream)
{
    tuning_.validate();
    LLM4D_CHECK(base_rate_per_second_ > 0.0,
                "pod-heat model needs an enabled straggler class");
    LLM4D_CHECK(severity_lo_ > 0.0 && severity_hi_ < 1.0 &&
                    severity_lo_ <= severity_hi_,
                "severity range must satisfy 0 < lo <= hi < 1");
    const auto pods = static_cast<std::size_t>(cluster_.numPods());
    heat_.assign(pods, 0.0);
    stamp_.assign(pods, 0);
}

double
PodHeatModel::heatOf(std::int64_t pod, Time at) const
{
    LLM4D_CHECK(pod >= 0 && pod < numPods(),
                "pod index " << pod << " outside [0, " << numPods() << ")");
    const auto p = static_cast<std::size_t>(pod);
    LLM4D_ASSERT(at >= stamp_[p], "heat queried before its last valuation");
    const double dt_s = timeToSeconds(at - stamp_[p]);
    return heat_[p] * std::exp(-kLn2 * dt_s / tuning_.heat_half_life_s);
}

double
PodHeatModel::baseRatePerSecond(std::int64_t pod) const
{
    // Each pod carries its share of the cluster-wide base rate, weighted
    // by its GPU count so a partial trailing pod is priced exactly.
    return base_rate_per_second_ *
           static_cast<double>(cluster_.podGpus(pod)) /
           static_cast<double>(cluster_.numGpus());
}

double
PodHeatModel::onsetRatePerSecond(std::int64_t pod, Time at) const
{
    return baseRatePerSecond(pod) *
           (1.0 + tuning_.hazard_gain * heatOf(pod, at));
}

CorrelatedOnset
PodHeatModel::sampleOnset(Time after)
{
    // Ogata thinning: candidate arrivals at the envelope rate (heat is
    // capped at max_heat, so the envelope bounds the true rate at every
    // instant), accepted with probability true-rate / envelope-rate.
    // Acceptance probability is at least 1/(1 + gain * max_heat), so the
    // loop terminates with probability one and in O(gain * max_heat)
    // expected iterations.
    const double rate_max =
        base_rate_per_second_ *
        (1.0 + tuning_.hazard_gain * tuning_.max_heat);
    Time t = after;
    double total_rate = 0.0;
    for (;;) {
        t += drawnDuration(t, arrival_rng_.exponential(1.0 / rate_max));
        if (t == kNever) // lint:allow(time-eq)
            return CorrelatedOnset{.when = kNever};
        total_rate = 0.0;
        for (std::int64_t p = 0; p < numPods(); ++p)
            total_rate += onsetRatePerSecond(p, t);
        if (arrival_rng_.bernoulli(total_rate / rate_max))
            break;
    }
    // Victim pod proportional to its instantaneous rate, then a uniform
    // rank within it: co-location concentrates *which* pod, not which
    // GPU inside the pod.
    std::int64_t pod = numPods() - 1;
    double u = target_rng_.uniform(0.0, total_rate);
    for (std::int64_t p = 0; p < numPods(); ++p) {
        u -= onsetRatePerSecond(p, t);
        if (u < 0.0) {
            pod = p;
            break;
        }
    }
    const std::int64_t rank =
        pod * cluster_.gpusPerPod() +
        target_rng_.uniformInt(0, cluster_.podGpus(pod) - 1);
    // Severity: squeeze the independent-model draw toward the worst
    // speed by the pod's heat.
    const double heat = heatOf(pod, t);
    const double base_sev = severity_rng_.uniform(severity_lo_, severity_hi_);
    const double severity =
        severity_lo_ + (base_sev - severity_lo_) /
                           (1.0 + tuning_.severity_gain * heat);
    // Re-value every pod's heat at t (pure decay — identical to what any
    // later heatOf(_, t') would compute) and add this onset's heat, so
    // the ledger never depends on query order.
    for (std::int64_t p = 0; p < numPods(); ++p) {
        heat_[static_cast<std::size_t>(p)] = heatOf(p, t);
        stamp_[static_cast<std::size_t>(p)] = t;
    }
    heat_[static_cast<std::size_t>(pod)] =
        std::min(tuning_.max_heat,
                 heat_[static_cast<std::size_t>(pod)] +
                     tuning_.heat_per_onset);
    CorrelatedOnset onset;
    onset.when = t;
    onset.rank = rank;
    onset.severity = severity;
    onset.pod = pod;
    return onset;
}

} // namespace llm4d
