#ifndef LLM4D_SIMCORE_ENGINE_H_
#define LLM4D_SIMCORE_ENGINE_H_

/**
 * @file
 * Discrete-event simulation engine. Deterministic: simultaneous events
 * execute in scheduling order (FIFO tie-break on a sequence number), so a
 * given model produces bit-identical results on every run.
 *
 * The FIFO tie-break is a contract, not an accident: interrupt-style
 * models (the fault injector) schedule an "interrupt" event at the exact
 * timestamp of an already-pending completion and rely on the completion
 * that was scheduled FIRST executing first, so the handler scheduled
 * later observes a consistent before/after ordering.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "llm4d/simcore/audit.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Handle to a scheduled event, usable with Engine::cancel(). */
using EventId = std::uint64_t;

/** Discrete-event engine with a single simulated clock. */
class Engine
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at now() + @p delay (delay >= 0).
     * @return handle for Engine::cancel().
     */
    EventId schedule(Time delay, Callback fn);

    /**
     * Schedule @p fn at absolute time @p when (when >= now()).
     * @return handle for Engine::cancel().
     */
    EventId scheduleAt(Time when, Callback fn);

    /**
     * Cancel a pending event. A cancelled event neither runs nor advances
     * the clock. Models that interrupt in-flight work (failure injection
     * aborting a training step) cancel the step's completion event.
     * @return true when the event was pending; false when it already ran,
     *         was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** Run until the event queue drains. @return final simulated time. */
    Time run();

    /** Number of events executed so far (cancelled events excluded). */
    std::int64_t eventsProcessed() const { return processed_; }

    /** When the next event runs, and its id (its FIFO place). */
    struct Next
    {
        Time when;
        EventId id;
    };

    /**
     * The next event run() will execute, or nullopt when none is
     * pending. Drops cancelled events from the head first. A model that
     * steps through work of its own between events runs that work up to
     * here; a piece of it that would have been scheduled with id
     * nextId() at the time orders against this event by the FIFO rule.
     */
    std::optional<Next> peek();

    /** The id the next scheduled event will get (every pending id is
     *  smaller). */
    EventId nextId() const { return nextSeq_; }

#if LLM4D_AUDIT_ENABLED
    /**
     * Audit-build test seam: force the clock to @p t without running
     * events, so death tests can violate event-time monotonicity and
     * assert the auditor fires. Never compiled into regular builds.
     */
    void auditForceClockForTest(Time t) { now_ = t; }
#endif

  private:
    struct Event
    {
        Time when;
        EventId seq;
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            // The FIFO tie-break itself: exact time equality is the
            // contract here, not an accident.
            if (a.when != b.when) // lint:allow(time-eq)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Pop the queue head; @return false for cancelled (skipped) events. */
    bool popInto(Event &out);

    /** Audit hook: cross-check monotonicity and FIFO tie-break order of
     *  every executed event. Compiles to nothing in regular builds. */
    void auditExecuted(Time when, EventId seq)
    {
#if LLM4D_AUDIT_ENABLED
        LLM4D_AUDIT_CHECK("engine", when >= now_,
                          "clock would move backwards: event at "
                              << when << " behind clock " << now_);
        LLM4D_AUDIT_CHECK("engine",
                          when > auditLastWhen_ ||
                              (when == auditLastWhen_ && // lint:allow(time-eq)
                               seq > auditLastSeq_),
                          "FIFO tie-break violated: event (t=" << when
                              << ", seq=" << seq << ") after (t="
                              << auditLastWhen_ << ", seq="
                              << auditLastSeq_ << ")");
        auditLastWhen_ = when;
        auditLastSeq_ = seq;
#else
        (void)when;
        (void)seq;
#endif
    }

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    /** Ids scheduled but neither executed nor cancelled. */
    std::unordered_set<EventId> pending_;
    /** Cancelled events still queued: peek() looks an id up only when
     *  one may be at the head. */
    std::size_t cancelled_ = 0;
    Time now_ = 0;
    EventId nextSeq_ = 0;
    std::int64_t processed_ = 0;
#if LLM4D_AUDIT_ENABLED
    Time auditLastWhen_ = -1;     ///< timestamp of the last executed event
    EventId auditLastSeq_ = 0;    ///< its scheduling sequence number
#endif
};

} // namespace llm4d

#endif // LLM4D_SIMCORE_ENGINE_H_
