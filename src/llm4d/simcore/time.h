#ifndef LLM4D_SIMCORE_TIME_H_
#define LLM4D_SIMCORE_TIME_H_

/**
 * @file
 * Simulated time. All simulation timestamps and durations are integer
 * nanoseconds so that event ordering and test expectations are exact;
 * model code computes durations in double seconds and converts at the
 * boundary.
 */

#include <algorithm>
#include <cstdint>
#include <limits>

#include "llm4d/simcore/common.h"

namespace llm4d {

/** A point in simulated time, or a duration, in nanoseconds. */
using Time = std::int64_t;

constexpr Time kNs = 1;
constexpr Time kUs = 1000 * kNs;
constexpr Time kMs = 1000 * kUs;
constexpr Time kSec = 1000 * kMs;

/** Convert a duration in (double) seconds to integer nanoseconds. */
constexpr Time
secondsToTime(double s)
{
    // Round to nearest; durations are non-negative in this codebase.
    return static_cast<Time>(s * 1e9 + 0.5);
}

/** The end of the clock: a time no event, arrival or repair reaches. */
constexpr Time kNever = std::numeric_limits<Time>::max();

/**
 * A drawn duration of @p s seconds (non-negative) that starts at @p from
 * (before kNever), in nanoseconds: secondsToTime(s), at least 1 ns, and
 * at most the room left on the clock, kNever - from. The duration is
 * compared with that room before it is converted, so a draw past the
 * end of the clock never overflows the cast: it ends exactly at kNever.
 */
constexpr Time
drawnDuration(Time from, double s)
{
    const Time room = kNever - from;
    if (!(s * 1e9 + 0.5 < static_cast<double>(room)))
        return room;
    return std::max<Time>(1, secondsToTime(s));
}

/**
 * Lowest link capacity factor priced: a 1-second transfer over a link
 * at capacity c takes 1/c seconds, which must fit the nanosecond clock
 * with room to spare. Link flaps and spine oversubscription are checked
 * against it when they are configured.
 */
constexpr double kMinLinkCapacity = 1e-6;

/** Convert a duration in (double) microseconds to integer nanoseconds. */
constexpr Time
microsToTime(double us)
{
    return static_cast<Time>(us * 1e3 + 0.5);
}

/** Convert integer nanoseconds to double seconds. */
constexpr double
timeToSeconds(Time t)
{
    return static_cast<double>(t) * 1e-9;
}

/** Convert integer nanoseconds to double microseconds. */
constexpr double
timeToMicros(Time t)
{
    return static_cast<double>(t) * 1e-3;
}

/** Convert integer nanoseconds to double milliseconds. */
constexpr double
timeToMillis(Time t)
{
    return static_cast<double>(t) * 1e-6;
}

} // namespace llm4d

#endif // LLM4D_SIMCORE_TIME_H_
