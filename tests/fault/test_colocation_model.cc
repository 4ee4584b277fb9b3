#include "llm4d/fault/colocation_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "llm4d/simcore/time.h"

namespace llm4d {
namespace {

ClusterSpec
production16k()
{
    return ClusterSpec::llama3Production(16384);
}

/** One cluster-wide onset per ten simulated minutes. Together with the
 *  120 s half-life below this puts the process in its bursty regime:
 *  within-burst gaps (tens of seconds under a hot pod's amplified
 *  hazard) sit well inside the half-life while cold-pod seedings
 *  (~12 min apart) sit well outside it, so one pod at a time runs hot
 *  instead of the whole fleet saturating at max_heat and washing the
 *  correlation back out. */
constexpr double kRatePerSecond = 1.0 / 600.0;

ColocationTuning
strongTuning()
{
    ColocationTuning t;
    t.enabled = true;
    t.heat_per_onset = 2.0;
    t.max_heat = 8.0;
    t.hazard_gain = 10.0;
    t.severity_gain = 2.0;
    t.heat_half_life_s = 120.0;
    return t;
}

PodHeatModel
makeModel(const ColocationTuning &tuning, std::uint64_t seed)
{
    return PodHeatModel(production16k(), tuning, kRatePerSecond, 0.55,
                        0.95, seed);
}

std::vector<CorrelatedOnset>
drain(PodHeatModel &model, int n)
{
    std::vector<CorrelatedOnset> onsets;
    onsets.reserve(static_cast<std::size_t>(n));
    Time t = 0;
    for (int i = 0; i < n; ++i) {
        onsets.push_back(model.sampleOnset(t));
        t = onsets.back().when;
    }
    return onsets;
}

TEST(PodHeatModel, TimelineIsDeterministic)
{
    // Same (cluster, tuning, rate, seed) -> bit-identical onset stream;
    // the CRN contract every A/B goodput comparison rests on.
    PodHeatModel a = makeModel(strongTuning(), 7);
    PodHeatModel b = makeModel(strongTuning(), 7);
    const auto ea = drain(a, 200);
    const auto eb = drain(b, 200);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(ea[i].when, eb[i].when) << "onset " << i;
        EXPECT_EQ(ea[i].rank, eb[i].rank) << "onset " << i;
        EXPECT_EQ(ea[i].severity, eb[i].severity) << "onset " << i;
        EXPECT_EQ(ea[i].pod, eb[i].pod) << "onset " << i;
    }
    // The consumed models agree on the final heat state too.
    const Time end = ea.back().when;
    for (std::int64_t p = 0; p < a.numPods(); ++p)
        EXPECT_EQ(a.heatOf(p, end), b.heatOf(p, end)) << "pod " << p;
}

TEST(PodHeatModel, DifferentSeedsDiffer)
{
    PodHeatModel a = makeModel(strongTuning(), 7);
    PodHeatModel b = makeModel(strongTuning(), 8);
    const auto ea = drain(a, 20);
    const auto eb = drain(b, 20);
    int same = 0;
    for (int i = 0; i < 20; ++i)
        same += ea[i].when == eb[i].when; // lint:allow(time-eq)
    EXPECT_LT(same, 20);
}

TEST(PodHeatModel, OnsetsAreOrderedAndValid)
{
    const ClusterSpec cluster = production16k();
    PodHeatModel model = makeModel(strongTuning(), 3);
    Time prev = 0;
    for (const CorrelatedOnset &on : drain(model, 300)) {
        EXPECT_GT(on.when, prev);
        prev = on.when;
        EXPECT_GE(on.rank, 0);
        EXPECT_LT(on.rank, cluster.numGpus());
        EXPECT_EQ(on.pod, cluster.podOf(on.rank));
        EXPECT_GE(on.severity, 0.55);
        EXPECT_LT(on.severity, 0.95);
    }
}

TEST(PodHeatModel, HeatDecaysMonotonicallyBetweenOnsets)
{
    PodHeatModel model = makeModel(strongTuning(), 11);
    const CorrelatedOnset on = model.sampleOnset(0);
    const double h0 = model.heatOf(on.pod, on.when);
    EXPECT_GT(h0, 0.0) << "an onset must heat its own pod";
    // Pure exponential decay afterwards: strictly decreasing, halved at
    // one half-life, and never negative.
    const ColocationTuning tuning = strongTuning();
    double prev = h0;
    for (int k = 1; k <= 8; ++k) {
        const Time at =
            on.when + k * secondsToTime(tuning.heat_half_life_s / 2.0);
        const double h = model.heatOf(on.pod, at);
        EXPECT_LT(h, prev) << "half-life step " << k;
        EXPECT_GE(h, 0.0);
        prev = h;
    }
    const double one_half_life = model.heatOf(
        on.pod, on.when + secondsToTime(tuning.heat_half_life_s));
    EXPECT_NEAR(one_half_life, h0 / 2.0, 1e-9 * h0);
}

TEST(PodHeatModel, HeatIsCappedAtMaxHeat)
{
    ColocationTuning tuning = strongTuning();
    tuning.heat_half_life_s = 1e9; // effectively no decay
    PodHeatModel model = makeModel(tuning, 17);
    const auto onsets = drain(model, 400);
    const Time end = onsets.back().when;
    for (std::int64_t p = 0; p < model.numPods(); ++p)
        EXPECT_LE(model.heatOf(p, end), tuning.max_heat);
}

TEST(PodHeatModel, HeatRaisesPodConditionalRateAboveBase)
{
    // The tentpole property: conditioned on high heat, a pod's straggler
    // hazard strictly exceeds its unconditional (base-share) rate.
    PodHeatModel model = makeModel(strongTuning(), 5);
    const CorrelatedOnset on = model.sampleOnset(0);
    EXPECT_GT(model.onsetRatePerSecond(on.pod, on.when),
              model.baseRatePerSecond(on.pod));
    // And the multiplier is what the tuning says: 1 + gain * heat.
    const double heat = model.heatOf(on.pod, on.when);
    EXPECT_NEAR(model.onsetRatePerSecond(on.pod, on.when),
                model.baseRatePerSecond(on.pod) *
                    (1.0 + strongTuning().hazard_gain * heat),
                1e-12);
}

TEST(PodHeatModel, OnsetsClusterInHotPods)
{
    // Empirical co-location: the fraction of onsets landing in the same
    // pod as their predecessor must clearly exceed the cold-fleet pod
    // share (a full pod holds 3072 of 16384 GPUs = 18.75%).
    PodHeatModel model = makeModel(strongTuning(), 23);
    const auto onsets = drain(model, 500);
    int repeats = 0;
    for (std::size_t i = 1; i < onsets.size(); ++i)
        repeats += onsets[i].pod == onsets[i - 1].pod;
    const double repeat_frac =
        static_cast<double>(repeats) /
        static_cast<double>(onsets.size() - 1);
    // An independent process revisits its predecessor's pod with the
    // sum-of-squared-shares probability (~18% at 16K); the burst regime
    // here empirically lands well above 0.5.
    EXPECT_GT(repeat_frac, 0.30)
        << "correlated onsets should revisit hot pods far more often "
           "than the ~18% independent revisit probability";
}

TEST(PodHeatModel, SeverityGainWorsensSeveritiesUnderCrn)
{
    // severity_gain only squeezes the severity draw; the arrival and
    // target streams are untouched, so two models differing only in the
    // gain emit the same (when, rank) sequence with pointwise-worse
    // severities in the gained arm whenever its pod was hot.
    ColocationTuning mild = strongTuning();
    mild.severity_gain = 0.0;
    ColocationTuning harsh = strongTuning();
    PodHeatModel a = makeModel(mild, 29);
    PodHeatModel b = makeModel(harsh, 29);
    const auto ea = drain(a, 200);
    const auto eb = drain(b, 200);
    int strictly_worse = 0;
    for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(ea[i].when, eb[i].when) << "onset " << i;
        ASSERT_EQ(ea[i].rank, eb[i].rank) << "onset " << i;
        EXPECT_LE(eb[i].severity, ea[i].severity) << "onset " << i;
        strictly_worse += eb[i].severity < ea[i].severity;
    }
    EXPECT_GT(strictly_worse, 100) << "sweep too cold to test anything";
}

TEST(PodHeatModel, ColdFleetMatchesBaseRates)
{
    PodHeatModel model = makeModel(strongTuning(), 31);
    double total = 0.0;
    for (std::int64_t p = 0; p < model.numPods(); ++p) {
        EXPECT_DOUBLE_EQ(model.heatOf(p, 0), 0.0);
        EXPECT_DOUBLE_EQ(model.onsetRatePerSecond(p, 0),
                         model.baseRatePerSecond(p));
        total += model.baseRatePerSecond(p);
    }
    // Pod shares partition the cluster-wide base rate exactly, partial
    // trailing pod included.
    EXPECT_NEAR(total, kRatePerSecond, 1e-12);
}

TEST(PodHeatModel, OnsetsPastTheClockNeverArrive)
{
    // One onset per ~3e12 years: the first candidate gap runs past the
    // int64 nanosecond clock, so the onset comes back at kNever and the
    // heat ledger is untouched.
    PodHeatModel model(production16k(), strongTuning(), 1e-20, 0.55, 0.95,
                       9);
    EXPECT_EQ(model.sampleOnset(0).when, kNever);
    for (std::int64_t p = 0; p < model.numPods(); ++p)
        EXPECT_EQ(model.heatOf(p, 0), 0.0) << "pod " << p;
}

TEST(PodHeatModelDeathTest, RejectsBadTuning)
{
    ColocationTuning no_heat = strongTuning();
    no_heat.heat_per_onset = 0.0;
    EXPECT_DEATH(makeModel(no_heat, 1), "heat per onset");
    ColocationTuning low_cap = strongTuning();
    low_cap.max_heat = 0.5;
    EXPECT_DEATH(makeModel(low_cap, 1), "max heat");
    ColocationTuning no_decay = strongTuning();
    no_decay.heat_half_life_s = 0.0;
    EXPECT_DEATH(makeModel(no_decay, 1), "half-life");
    ColocationTuning negative_gain = strongTuning();
    negative_gain.hazard_gain = -1.0;
    EXPECT_DEATH(makeModel(negative_gain, 1), "gain");
    EXPECT_DEATH(PodHeatModel(production16k(), strongTuning(), 0.0, 0.55,
                              0.95, 1),
                 "straggler class");
}

} // namespace
} // namespace llm4d
