#include "llm4d/simcore/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace llm4d {
namespace {

TEST(Engine, StartsAtTimeZero)
{
    Engine eng;
    EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, ExecutesEventsInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(30 * kUs, [&] { order.push_back(3); });
    eng.schedule(10 * kUs, [&] { order.push_back(1); });
    eng.schedule(20 * kUs, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 30 * kUs);
    EXPECT_EQ(eng.eventsProcessed(), 3);
}

TEST(Engine, SimultaneousEventsRunInSchedulingOrder)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eng.schedule(5 * kUs, [&order, i] { order.push_back(i); });
    eng.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleFurtherEvents)
{
    Engine eng;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eng.schedule(kUs, chain);
    };
    eng.schedule(kUs, chain);
    eng.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eng.now(), 5 * kUs);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime)
{
    Engine eng;
    Time seen = -1;
    eng.schedule(7 * kUs, [&] {
        eng.schedule(0, [&] { seen = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(seen, 7 * kUs);
}

TEST(Engine, CancelPreventsExecution)
{
    Engine eng;
    int fired = 0;
    const EventId id = eng.schedule(10 * kUs, [&] { ++fired; });
    eng.schedule(20 * kUs, [&] { ++fired; });
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_FALSE(eng.cancel(id)) << "double-cancel must report failure";
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.eventsProcessed(), 1)
        << "cancelled events must not count as processed";
}

TEST(Engine, CancelUnknownIdFails)
{
    Engine eng;
    EXPECT_FALSE(eng.cancel(12345));
}

TEST(Engine, CancelledEventDoesNotAdvanceClock)
{
    Engine eng;
    const EventId id = eng.schedule(50 * kUs, [] {});
    eng.schedule(10 * kUs, [] {});
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_EQ(eng.run(), 10 * kUs)
        << "the cancelled 50us event must not drag the clock forward";
}

TEST(Engine, CancelAfterExecutionFails)
{
    Engine eng;
    const EventId id = eng.schedule(kUs, [] {});
    eng.run();
    EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, InterruptPatternCancelsInFlightCompletion)
{
    // The fault-injection pattern: a completion is pending, an interrupt
    // fires earlier, cancels it, and reschedules recovery work.
    Engine eng;
    std::vector<std::string> log;
    EventId completion =
        eng.schedule(100 * kUs, [&] { log.push_back("step-done"); });
    eng.schedule(40 * kUs, [&] {
        log.push_back("fault");
        EXPECT_TRUE(eng.cancel(completion));
        eng.schedule(60 * kUs, [&] { log.push_back("restarted"); });
    });
    eng.run();
    EXPECT_EQ(log, (std::vector<std::string>{"fault", "restarted"}));
    EXPECT_EQ(eng.now(), 100 * kUs);
}

TEST(Engine, RunOnAnEmptyQueueReturnsNow)
{
    Engine eng;
    EXPECT_EQ(eng.run(), 0);
    EXPECT_EQ(eng.eventsProcessed(), 0);
    eng.schedule(3 * kUs, [] {});
    eng.run();
    EXPECT_EQ(eng.run(), 3 * kUs) << "a drained queue leaves the clock put";
}

TEST(Engine, RunResumesFromTheTimeItStopped)
{
    // Delays count from now(), so events scheduled after a run returns
    // land after the time it stopped at, in time order.
    Engine eng;
    std::vector<Time> seen;
    eng.schedule(30 * kUs, [&] { seen.push_back(eng.now()); });
    EXPECT_EQ(eng.run(), 30 * kUs);
    eng.schedule(5 * kUs, [&] { seen.push_back(eng.now()); });
    eng.schedule(kUs, [&] { seen.push_back(eng.now()); });
    EXPECT_EQ(eng.run(), 35 * kUs);
    EXPECT_EQ(seen, (std::vector<Time>{30 * kUs, 31 * kUs, 35 * kUs}));
}

TEST(Engine, EventsProcessedAccumulatesAcrossRuns)
{
    Engine eng;
    eng.schedule(kUs, [] {});
    eng.schedule(2 * kUs, [] {});
    eng.run();
    const EventId cancelled = eng.schedule(kUs, [] {});
    eng.schedule(kUs, [] {});
    EXPECT_TRUE(eng.cancel(cancelled));
    eng.run();
    EXPECT_EQ(eng.eventsProcessed(), 3);
}

TEST(Engine, PeekShowsTheNextEventToRunPastCancelledOnes)
{
    Engine eng;
    EXPECT_FALSE(eng.peek().has_value());
    const EventId first = eng.schedule(2 * kUs, [] {});
    const EventId tied = eng.schedule(2 * kUs, [] {});
    eng.schedule(kUs, [] {});
    const EventId last = eng.schedule(3 * kUs, [] {});
    EXPECT_EQ(eng.nextId(), last + 1);
    ASSERT_TRUE(eng.peek().has_value());
    EXPECT_EQ(eng.peek()->when, kUs);
    EXPECT_TRUE(eng.cancel(last - 1));
    EXPECT_TRUE(eng.cancel(first));
    // The cancelled head is skipped: the tie goes to the later id.
    ASSERT_TRUE(eng.peek().has_value());
    EXPECT_EQ(eng.peek()->when, 2 * kUs);
    EXPECT_EQ(eng.peek()->id, tied);
    // Peeking dropped two cancelled events; run() executes the rest.
    EXPECT_EQ(eng.run(), 3 * kUs);
    EXPECT_EQ(eng.eventsProcessed(), 2);
    EXPECT_FALSE(eng.peek().has_value());
}

TEST(TimeConversions, SecondsRoundToTheNearestNanosecond)
{
    EXPECT_EQ(secondsToTime(1.4e-9), 1);
    EXPECT_EQ(secondsToTime(1.6e-9), 2);
    EXPECT_EQ(secondsToTime(0.0), 0);
    // The longest transfer a link price stretches to (1 s at 1e-6 of
    // the link) fits the clock exactly.
    EXPECT_EQ(secondsToTime(1e6), 1000000 * kSec);
    EXPECT_DOUBLE_EQ(timeToSeconds(secondsToTime(1e6)), 1e6);
}

TEST(TimeConversions, RoundTrip)
{
    EXPECT_EQ(secondsToTime(1.0), kSec);
    EXPECT_EQ(microsToTime(2.5), 2500);
    EXPECT_DOUBLE_EQ(timeToSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(timeToMicros(kUs), 1.0);
    EXPECT_DOUBLE_EQ(timeToMillis(kMs), 1.0);
    // Sub-nanosecond durations round to nearest.
    EXPECT_EQ(secondsToTime(1.4e-9), 1);
    EXPECT_EQ(secondsToTime(1.6e-9), 2);
}

} // namespace
} // namespace llm4d
