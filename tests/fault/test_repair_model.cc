#include "llm4d/fault/repair_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "llm4d/simcore/time.h"

namespace llm4d {
namespace {

ClusterSpec
production16k()
{
    return ClusterSpec::llama3Production(16384);
}

/** A deterministic stream of fatal faults to feed the shop. */
std::vector<FaultEvent>
fatalTimeline(int n, std::uint64_t seed)
{
    ClusterSpec cluster = production16k();
    cluster.node.nic_flap_mtbf_hours = 0.0;
    cluster.node.gpu.straggler_mtbf_hours = 0.0;
    FaultModel model(cluster, FaultTuning{}, seed);
    std::vector<FaultEvent> events;
    events.reserve(n);
    for (int i = 0; i < n; ++i)
        events.push_back(model.next());
    return events;
}

std::vector<RepairComplete>
drainAll(RepairModel &shop)
{
    std::vector<RepairComplete> done;
    while (shop.pendingCount() > 0)
        done.push_back(shop.pop());
    return done;
}

TEST(RepairModel, TimelineIsDeterministic)
{
    const auto faults = fatalTimeline(200, 7);
    RepairModel a(production16k(), RepairTuning{}, 7);
    RepairModel b(production16k(), RepairTuning{}, 7);
    for (const FaultEvent &ev : faults) {
        a.submit(ev);
        b.submit(ev);
    }
    const auto ra = drainAll(a);
    const auto rb = drainAll(b);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].when, rb[i].when) << "repair " << i;
        EXPECT_EQ(ra[i].kind, rb[i].kind) << "repair " << i;
        EXPECT_EQ(ra[i].component, rb[i].component) << "repair " << i;
    }
}

TEST(RepairModel, DifferentSeedsDiffer)
{
    const auto faults = fatalTimeline(50, 7);
    RepairModel a(production16k(), RepairTuning{}, 7);
    RepairModel b(production16k(), RepairTuning{}, 8);
    for (const FaultEvent &ev : faults) {
        a.submit(ev);
        b.submit(ev);
    }
    const auto ra = drainAll(a);
    const auto rb = drainAll(b);
    int same = 0;
    for (std::size_t i = 0; i < ra.size(); ++i)
        same += ra[i].when == rb[i].when; // lint:allow(time-eq)
    EXPECT_LT(same, 50);
}

TEST(RepairModel, PopIsTimeOrderedAndAfterOnset)
{
    const auto faults = fatalTimeline(300, 3);
    RepairModel shop(production16k(), RepairTuning{}, 3);
    for (const FaultEvent &ev : faults)
        shop.submit(ev);
    EXPECT_EQ(shop.pendingCount(), 300u);
    Time prev = 0;
    for (const RepairComplete &done : drainAll(shop)) {
        EXPECT_GE(done.when, prev);
        prev = done.when;
        EXPECT_TRUE(done.kind == FaultKind::GpuFatal ||
                    done.kind == FaultKind::HostCrash);
    }
    // The earliest repair still takes strictly positive shop time.
    EXPECT_GT(prev, 0);
}

TEST(RepairModel, HasReadyTracksTheClock)
{
    RepairModel shop(production16k(), RepairTuning{}, 5);
    FaultEvent ev;
    ev.kind = FaultKind::HostCrash;
    ev.when = secondsToTime(100.0);
    ev.component = 12;
    shop.submit(ev);
    ASSERT_EQ(shop.pendingCount(), 1u);
    EXPECT_FALSE(shop.hasReady(ev.when));
    // An exponential(8h) draw is ready within ~forever; probe far out.
    const Time far = secondsToTime(365.0 * 24.0 * 3600.0);
    EXPECT_TRUE(shop.hasReady(far));
    const RepairComplete done = shop.pop();
    EXPECT_GT(done.when, ev.when);
    EXPECT_EQ(done.component, 12);
    EXPECT_EQ(done.kind, FaultKind::HostCrash);
    EXPECT_FALSE(shop.hasReady(far));
    EXPECT_EQ(shop.pendingCount(), 0u);
}

TEST(RepairModel, MeanTurnaroundTracksTuning)
{
    // Empirical mean of GPU repairs lands near the configured MTTR
    // scaled by the requalification stretch.
    RepairTuning tuning;
    tuning.gpu_repair_mean_hours = 2.0;
    tuning.requalify_lo = 1.0;
    tuning.requalify_hi = 1.5;
    RepairModel shop(production16k(), tuning, 21);
    FaultEvent ev;
    ev.kind = FaultKind::GpuFatal;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        shop.submit(ev);
    double total_s = 0.0;
    for (const RepairComplete &done : drainAll(shop))
        total_s += timeToSeconds(done.when);
    const double expect = tuning.meanRepairSeconds(FaultKind::GpuFatal);
    EXPECT_NEAR(total_s / n, expect, 0.1 * expect);
    // Host repairs are configured slower than GPU swap-outs.
    EXPECT_GT(tuning.meanRepairSeconds(FaultKind::HostCrash),
              tuning.meanRepairSeconds(FaultKind::GpuFatal));
}

TEST(RepairModel, StrIsReadable)
{
    RepairComplete done;
    done.kind = FaultKind::GpuFatal;
    done.when = secondsToTime(5.0);
    done.component = 17;
    EXPECT_NE(done.str().find("repaired"), std::string::npos);
    EXPECT_NE(done.str().find("gpu=17"), std::string::npos);
    done.kind = FaultKind::HostCrash;
    EXPECT_NE(done.str().find("node=17"), std::string::npos);
}

TEST(RepairModel, TurnaroundsPastTheClockNeverComplete)
{
    // A mean repair of ~1e12 hours puts nearly every turnaround past the
    // int64 nanosecond clock: such a repair completes at kNever, which
    // no clock reading reaches.
    RepairTuning tuning;
    tuning.gpu_repair_mean_hours = 1e12;
    tuning.host_repair_mean_hours = 1e12;
    RepairModel shop(production16k(), tuning, 5);
    const auto faults = fatalTimeline(50, 5);
    for (const FaultEvent &ev : faults)
        shop.submit(ev);
    EXPECT_FALSE(shop.hasReady(kNever - 1));
    int never = 0;
    for (const RepairComplete &done : drainAll(shop)) {
        EXPECT_GT(done.when, faults.back().when);
        never += done.when >= kNever;
    }
    EXPECT_GT(never, 45);
}

TEST(RepairModelDeathTest, RejectsBadTuning)
{
    // Symmetric with FaultTuning::validate(): non-positive means and
    // inverted ranges abort with a message.
    RepairTuning no_gpu_mean;
    no_gpu_mean.gpu_repair_mean_hours = 0.0;
    EXPECT_DEATH(no_gpu_mean.validate(), "gpu repair mean");
    RepairTuning no_host_mean;
    no_host_mean.host_repair_mean_hours = -1.0;
    EXPECT_DEATH(no_host_mean.validate(), "host repair mean");
    RepairTuning inverted;
    inverted.requalify_lo = 1.5;
    inverted.requalify_hi = 1.1;
    EXPECT_DEATH(inverted.validate(), "requalify");
    RepairTuning below_one;
    below_one.requalify_lo = 0.5;
    EXPECT_DEATH(below_one.validate(), "requalify");
}

TEST(RepairModelDeathTest, RejectsNonFatalSubmissions)
{
    RepairModel shop(production16k(), RepairTuning{}, 1);
    FaultEvent flap;
    flap.kind = FaultKind::LinkFlap;
    EXPECT_DEATH(shop.submit(flap), "fatal");
    EXPECT_DEATH(shop.pop(), "no repair");
    RepairTuning tuning;
    EXPECT_DEATH((void)tuning.meanRepairSeconds(FaultKind::LinkFlap),
                 "fatal");
}

} // namespace
} // namespace llm4d
