#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory span recorder for the traced benchmark mode.
 *
 * A span is (name, start, end, parent, query, calls): the time of one
 * or more calls into a layer's public functions, nested under whatever
 * span was open when it began. Spans stay in memory and are written once
 * at exit as Chrome trace-event JSON, which Perfetto and
 * chrome://tracing open directly.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start_us = 0.0; ///< since the tracer was created
        double end_us = 0.0;
        int parent = -1;         ///< index of the enclosing span, or -1
        std::int64_t query = -1; ///< query the span belongs to
        std::int64_t calls = 1;  ///< library calls the span covers

        [[nodiscard]] double durationUs() const { return end_us - start_us; }
    };

    Tracer() : origin_(Clock::now()) {}

    /** Spans begun from now on belong to query @p index. */
    void setQuery(std::int64_t index) { query_ = index; }

    /** Open a span under the innermost open one; returns its id. */
    int begin(std::string name, std::int64_t calls = 1);

    /** Close span @p id (the innermost open span). */
    void end(int id);

    [[nodiscard]] const Span &span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

    /** Number of spans recorded so far (ids run from 0 to size() - 1). */
    [[nodiscard]] int size() const { return static_cast<int>(spans_.size()); }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    [[nodiscard]] bool writeChromeJson(const std::string &path) const;

  private:
    [[nodiscard]] double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::int64_t query_ = -1;
};

/** RAII span; a no-op when the tracer is null (the untraced mode). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, std::int64_t calls = 1)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), calls) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/**
 * Run @p f inside a span named @p name covering @p calls library calls
 * and return the span's duration in microseconds.
 */
template <class F>
double
timedSpan(Tracer &tracer, std::string name, std::int64_t calls, F &&f)
{
    const int id = tracer.begin(std::move(name), calls);
    f();
    tracer.end(id);
    return tracer.span(id).durationUs();
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
