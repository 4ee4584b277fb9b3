/**
 * @file
 * Closed-loop end-to-end benchmark of the llm4d simulator.
 *
 * One client thread, no think time: each query starts when the previous
 * one's answer has been checked. Every answer is checked outside its
 * timed span. The run prints each metric by name with its unit, and as
 * its last line one JSON object:
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 * holding the end-to-end metrics (untraced) or the per-layer metrics
 * (--trace 1).
 *
 *   llm4d_perfbench --workload run_degraded|plan_sweep --seconds S
 *                   [--seed N] [--trace 0|1] [--trace-file PATH]
 *
 * Timings are host-adjusted: each is scaled by a host-speed probe timed
 * around it (see HostProbe), so a slow stretch of a shared host moves
 * them far less than it moves wall time. The raw figures are printed
 * beside them. setup_s re-runs this binary with --setup-only 1 (see
 * spawnSetup).
 */

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory_resource>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Set-ups per run, each in a fresh process; setup_s is their median. */
constexpr int kSetups = 21;

/** Queries every run completes even past --seconds: the digest covers
 *  exactly these, so it compares across runs of one seed, and the tail
 *  percentile always has ten queries beyond it. */
constexpr std::int64_t kDigestQueries = 16;

struct Options
{
    Workload workload = Workload::RunDegraded;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_file;
    /** Internal: one set-up and exit (how setup_s is measured). */
    bool setup_only = false;
};

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return std::nullopt;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const std::optional<Workload> w = parseWorkload(value);
                if (!w) {
                    std::fprintf(stderr, "unknown workload '%s' (one of %s)\n",
                                 value.c_str(), workloadNames());
                    return std::nullopt;
                }
                opt.workload = *w;
                opt.workload_name = value;
                have_workload = true;
            } else if (flag == "--seed") {
                std::size_t used = 0;
                opt.seed = std::stoull(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
            } else if (flag == "--seconds") {
                std::size_t used = 0;
                opt.seconds = std::stod(value, &used);
                if (used != value.size() || !(opt.seconds > 0.0))
                    throw std::invalid_argument(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    throw std::invalid_argument(value);
                opt.trace = value == "1";
            } else if (flag == "--trace-file") {
                opt.trace_file = value;
            } else if (flag == "--setup-only") {
                if (value != "0" && value != "1")
                    throw std::invalid_argument(value);
                opt.setup_only = value == "1";
            } else {
                std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
                return std::nullopt;
            }
        } catch (const std::exception &) {
            std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(),
                         argv[i - 1]);
            return std::nullopt;
        }
    }
    if (!have_workload || (opt.seconds <= 0.0 && !opt.setup_only)) {
        std::fprintf(stderr,
                     "usage: llm4d_perfbench --workload NAME --seconds S "
                     "[--seed N] [--trace 0|1] [--trace-file PATH]\n"
                     "workloads: %s\n",
                     workloadNames());
        return std::nullopt;
    }
    return opt;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (by value: sorts a copy). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of sorted @p v, q in [0, 1]. */
double
quantile(const std::vector<double> &v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** The process's own resident high-water mark (VmHWM), in kB. Unlike
 *  getrusage's ru_maxrss it is not inherited across execve, so a
 *  launcher's footprint never shows up here. */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb;
        }
        status.ignore(1 << 16, '\n');
    }
    return 0.0;
}

/** Keeps the probe's results observable so no kernel is optimized away. */
volatile std::uint64_t g_probe_sink = 0;

/**
 * Host-speed probe, timed around every query and every set-up. It
 * touches no library code and does the same work on every call, in two
 * kernels:
 *  - eight independent multiply-add chains, bound by the core's
 *    arithmetic throughput;
 *  - an event queue with an ordered map beside it: branchy, allocating,
 *    pointer-chasing code like the simulator's event loops.
 * On the shared 4-vCPU host the bounds were measured on, one repeated
 * query slowed by up to 1.7x for stretches of seconds to minutes. The
 * first kernel slowed with plan_sweep's queries, the second with
 * run_degraded's, and their geometric mean with both; a memory walk
 * tracked neither as well.
 *
 * The queue and map allocate from an arena that is allocated and
 * touched at construction, so the probe's memory is a constant
 * (kArenaBytes) that peak_rss_mb subtracts.
 */
class HostProbe
{
  public:
    static constexpr std::size_t kArenaBytes = std::size_t{2} << 20;

    /** runUs() on the reference host (the one above) in a quiet
     *  stretch: host-adjusted times are in that host's seconds. */
    static constexpr double kReferenceUs = 4000.0;

    HostProbe() : arena_(kArenaBytes, std::byte{1}) {}

    /** Geometric mean of the two kernels' times, in microseconds. */
    double runUs() { return std::sqrt(arithmeticUs() * eventQueueUs()); }

    /** How much slower than the reference host the host ran over an
     *  interval bracketed by probes taking @p before_us and
     *  @p after_us; an adjusted time is the wall time divided by it. */
    static double slowdown(double before_us, double after_us)
    {
        return std::sqrt(before_us * after_us) / kReferenceUs;
    }

  private:
    static double arithmeticUs()
    {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (int i = 0; i < 400000; ++i) {
            for (std::uint64_t &v : x)
                v = v * 6364136223846793005ULL + 1442695040888963407ULL +
                    (v >> 29);
        }
        std::uint64_t folded = 0;
        for (const std::uint64_t v : x)
            folded ^= v;
        g_probe_sink = folded;
        return secondsSince(t0) * 1e6;
    }

    double eventQueueUs()
    {
        const Clock::time_point t0 = Clock::now();
        std::pmr::monotonic_buffer_resource arena(
            arena_.data(), arena_.size(), std::pmr::null_memory_resource());
        std::pmr::unsynchronized_pool_resource pool(&arena);
        using Event = std::pair<double, int>;
        std::pmr::vector<Event> storage(&pool);
        storage.reserve(4097);
        std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>>
            queue(std::greater<>{}, std::move(storage));
        std::pmr::map<int, double> live(&pool);
        std::uint64_t lcg = 7;
        const auto draw = [&lcg] {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            return lcg >> 33;
        };
        for (int i = 0; i < 4096; ++i)
            queue.emplace(static_cast<double>(draw() % 100000), i);
        for (int i = 0; i < 20000; ++i) {
            const Event e = queue.top();
            queue.pop();
            queue.emplace(e.first + static_cast<double>(draw() % 1000),
                          e.second);
            const int key = static_cast<int>(draw() % 16384);
            if (const auto it = live.find(key); it != live.end())
                live.erase(it);
            else
                live.emplace(key, e.first);
        }
        g_probe_sink = live.size() + queue.size();
        return secondsSince(t0) * 1e6;
    }

    std::vector<std::byte> arena_;
};

struct QueryStat
{
    int query_class = 0;
    double latency_s = 0.0;
    /** HostProbe::slowdown over the query. */
    double slowdown = 1.0;
    std::int64_t sim_steps = 0;
    bool traced = false;
};

/** End-to-end metrics over a set of timed queries. */
struct EndToEnd
{
    std::size_t queries = 0;
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    double tail_pct = 0.0;
    double steps_per_s = 0.0;
};

/** Metrics of the (un)traced queries of @p stats, host-adjusted or
 *  from wall time. */
EndToEnd
endToEnd(const std::vector<QueryStat> &stats, int classes, bool traced,
         bool adjusted)
{
    std::vector<double> all_ms;
    std::vector<std::vector<double>> ms(static_cast<std::size_t>(classes));
    std::vector<std::vector<double>> rate(ms.size());
    for (const QueryStat &s : stats) {
        if (s.traced != traced)
            continue;
        const double latency_s =
            adjusted ? s.latency_s / s.slowdown : s.latency_s;
        const auto c = static_cast<std::size_t>(s.query_class);
        ms[c].push_back(latency_s * 1e3);
        rate[c].push_back(static_cast<double>(s.sim_steps) / latency_s);
        all_ms.push_back(latency_s * 1e3);
    }
    EndToEnd e;
    e.queries = all_ms.size();
    if (all_ms.empty())
        return e;
    // Each query class's median, combined as a geometric mean: with one
    // class that is the plain median, and on plan_sweep it never falls
    // in the gap between two cluster sizes' latencies.
    std::vector<double> p50s, rates;
    for (std::size_t c = 0; c < ms.size(); ++c) {
        if (ms[c].empty())
            continue;
        p50s.push_back(median(ms[c]));
        rates.push_back(median(rate[c]));
    }
    e.p50_ms = geomean(p50s);
    e.steps_per_s = geomean(rates);
    // The highest percentile with at least ten queries beyond it: the
    // 11th slowest query (the slowest when there are fewer than 11).
    std::sort(all_ms.begin(), all_ms.end());
    const std::size_t n = all_ms.size();
    e.tail_ms = all_ms[n > 10 ? n - 11 : n - 1];
    e.tail_pct = 100.0 * static_cast<double>(n > 10 ? n - 10 : n) /
                 static_cast<double>(n);
    return e;
}

void
printEndToEnd(const char *label, const EndToEnd &e)
{
    std::printf("%slatency_p50_ms    %.3f ms over %zu queries\n", label,
                e.p50_ms, e.queries);
    std::printf("%slatency_tail_ms   %.3f ms (p%.1f of %zu queries)\n", label,
                e.tail_ms, e.tail_pct, e.queries);
    std::printf("%ssim_steps_per_s   %.6g 1/s\n", label, e.steps_per_s);
}

struct JsonMetric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(std::int64_t attempted, std::int64_t failed,
            const std::vector<JsonMetric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const JsonMetric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

/**
 * One set-up in a fresh process: this binary again with --setup-only,
 * which builds the workload's reference query, answers and checks it,
 * and exits. Timed from spawn to exit, it covers all a process does
 * before its first timed query: loading, static initialization, lazy
 * first-call costs, building the inputs and one warm-up query. Returns
 * the seconds taken and whether the child exited cleanly with its
 * answer correct; nullopt when it could not be started.
 */
std::optional<std::pair<double, bool>>
spawnSetup(const char *argv0, const std::string &workload)
{
    std::string args[] = {argv0, "--workload", workload, "--setup-only", "1"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        return std::nullopt;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return std::nullopt;
    }
    return std::pair{secondsSince(t0),
                     WIFEXITED(status) && WEXITSTATUS(status) == 0};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Options> parsed = parseOptions(argc, argv);
    if (!parsed)
        return 2;
    const Options &opt = *parsed;
    const Workload w = opt.workload;

    // The workload's reference query (query 0 of seed 0) is the set-up
    // and warm-up query whatever the run's seed, so set-up time compares
    // across seeds: only the host and the program move it.
    if (opt.setup_only) {
        const Query q = makeQuery(w, 0, 0);
        const Checked c = check(q, answer(q, nullptr));
        for (const std::string &f : c.failures)
            std::printf("FAIL set-up query: %s\n", f.c_str());
        return c.failures.empty() ? 0 : 3;
    }

    std::int64_t attempted = 0, failed = 0;
    const auto record = [&](const Checked &c, const std::string &query) {
        ++attempted;
        if (c.failures.empty())
            return;
        if (failed < 5) {
            for (const std::string &f : c.failures)
                std::printf("FAIL %s: %s\n", query.c_str(), f.c_str());
        }
        ++failed;
    };

    // Stay on the CPU the run starts on. Set-up processes inherit the
    // mask, so the probes that bracket a set-up time the CPU it ran on.
    cpu_set_t cpu;
    CPU_ZERO(&cpu);
    CPU_SET(sched_getcpu(), &cpu);
    sched_setaffinity(0, sizeof cpu, &cpu);

    HostProbe probe;

    // ---- Set-up, several times, each in a fresh process bracketed by
    // probes. ----
    std::vector<double> setup_s, setup_raw_s;
    for (int k = 0; k < kSetups; ++k) {
        const double before_us = probe.runUs();
        const auto setup = spawnSetup(argv[0], opt.workload_name);
        if (!setup) {
            std::fprintf(stderr, "could not start a set-up process\n");
            return 1;
        }
        const double slowdown = HostProbe::slowdown(before_us, probe.runUs());
        ++attempted;
        if (!setup->second)
            ++failed;
        setup_raw_s.push_back(setup->first);
        setup_s.push_back(setup->first / slowdown);
    }
    // This process's own warm-up, untimed, so the first timed query does
    // not pay first-call costs.
    {
        const Query q = makeQuery(w, 0, 0);
        const Answer a = answer(q, nullptr);
        record(check(q, a), "warm-up query");
    }

    // ---- Timed closed loop, each query bracketed by probes (one probe
    // serves as the previous query's "after" and the next one's
    // "before"). Traced runs alternate blocks of four untraced and four
    // traced queries, so one run measures its own tracing overhead on
    // the same mix (plan_sweep cycles through four cluster sizes). A
    // traced block is replayed once it is complete, so no traced query
    // runs right after a replay has evicted its caches. ----
    struct Traced
    {
        std::int64_t index;
        Query query;
        Answer answer;
        int span;
    };
    Tracer tracer;
    std::vector<QueryStat> stats;
    std::vector<Traced> block;
    std::vector<LayerSample> samples;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::optional<double> fresh_probe_us;
    const Clock::time_point loop_start = Clock::now();
    for (std::int64_t i = 0;
         i < kDigestQueries || secondsSince(loop_start) < opt.seconds; ++i) {
        Query q = makeQuery(w, opt.seed, i);
        const bool traced = opt.trace && (i / 4) % 2 == 1;
        const double before_us =
            fresh_probe_us ? *fresh_probe_us : probe.runUs();
        int query_span = -1;
        if (traced) {
            tracer.setQuery(i);
            query_span = tracer.begin("query");
        }
        const Clock::time_point t0 = Clock::now();
        Answer a = answer(q, traced ? &tracer : nullptr);
        const double latency_s = secondsSince(t0);
        if (traced)
            tracer.end(query_span);
        fresh_probe_us = probe.runUs();

        const Checked c = check(q, a);
        record(c, "query " + std::to_string(i));
        if (i < kDigestQueries)
            digest = (digest ^ c.digest) * 0x100000001b3ULL;
        stats.push_back({queryClass(w, i), latency_s,
                         HostProbe::slowdown(before_us, *fresh_probe_us),
                         c.sim_steps, traced});
        if (traced)
            block.push_back({i, std::move(q), std::move(a), query_span});
        if (i % 4 == 3 && !block.empty()) {
            for (const Traced &t : block) {
                tracer.setQuery(t.index);
                samples.push_back(
                    replayLayers(t.query, t.answer, tracer, t.span));
            }
            block.clear();
            fresh_probe_us.reset();
        }
    }
    for (const Traced &t : block) {
        tracer.setQuery(t.index);
        samples.push_back(replayLayers(t.query, t.answer, tracer, t.span));
    }
    const double loop_s = secondsSince(loop_start);

    // ---- Report. ----
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                opt.workload_name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("loop              %.3f s, %zu queries, 1 client, closed "
                "loop\n",
                loop_s, stats.size());
    std::vector<double> slowdowns;
    for (const QueryStat &s : stats)
        slowdowns.push_back(s.slowdown);
    std::sort(slowdowns.begin(), slowdowns.end());
    std::printf("host_slowdown     p25 %.3f  p50 %.3f  p75 %.3f  max %.3f "
                "(probe / %.0f us, n %zu)\n",
                quantile(slowdowns, 0.25), quantile(slowdowns, 0.5),
                quantile(slowdowns, 0.75), slowdowns.back(),
                HostProbe::kReferenceUs, slowdowns.size());
    std::printf("digest            %016llx over the first %lld timed "
                "queries\n",
                static_cast<unsigned long long>(digest),
                static_cast<long long>(kDigestQueries));
    std::printf("checks            %lld of %lld queries passed\n",
                static_cast<long long>(attempted - failed),
                static_cast<long long>(attempted));

    const int classes = queryClasses(w);
    if (!opt.trace) {
        const EndToEnd e = endToEnd(stats, classes, false, true);
        const double rss_mb =
            (peakRssKb() - HostProbe::kArenaBytes / 1024.0) / 1024.0;
        std::printf("host-adjusted:\n");
        std::sort(setup_s.begin(), setup_s.end());
        std::printf("  setup_s           %.6f s (median of %d set-ups, "
                    "%.6f to %.6f)\n",
                    median(setup_s), kSetups, setup_s.front(), setup_s.back());
        printEndToEnd("  ", e);
        std::printf("wall time:\n");
        std::printf("  setup_s           %.6f s\n", median(setup_raw_s));
        printEndToEnd("  ", endToEnd(stats, classes, false, false));
        std::printf("peak_rss_mb       %.3f MB (VmHWM less the probe's "
                    "%zu kB arena)\n",
                    rss_mb, HostProbe::kArenaBytes / 1024);
        printResult(attempted, failed,
                    {{"setup_s", median(setup_s), "s"},
                     {"latency_p50_ms", e.p50_ms, "ms"},
                     {"latency_tail_ms", e.tail_ms, "ms"},
                     {"sim_steps_per_s", e.steps_per_s, "1/s"},
                     {"peak_rss_mb", rss_mb, "MB"}});
        return 0;
    }

    const EndToEnd plain = endToEnd(stats, classes, false, true);
    const EndToEnd traced = endToEnd(stats, classes, true, true);
    std::printf("tracing overhead  untraced vs traced queries of this run "
                "(host-adjusted):\n");
    printEndToEnd("  untraced ", plain);
    printEndToEnd("  traced   ", traced);
    std::printf("  latency_p50 overhead %+.2f%%\n",
                plain.p50_ms > 0.0
                    ? 100.0 * (traced.p50_ms / plain.p50_ms - 1.0)
                    : 0.0);
    int mismatches = 0;
    for (const LayerSample &s : samples)
        mismatches += s.cell_mismatches;
    if (mismatches > 0)
        std::printf("WARNING: %d replayed planner cells differ from the "
                    "planner's own cells\n",
                    mismatches);
    std::vector<JsonMetric> layer;
    for (const LayerMetric &metric : layerMetrics()) {
        std::vector<double> values;
        for (const LayerSample &s : samples) {
            const auto it = s.values.find(metric.name);
            if (it != s.values.end())
                values.push_back(it->second);
        }
        const double v = median(values);
        if (values.empty())
            std::printf("%-26s 0 (no query of this workload reaches it)\n",
                        metric.name);
        else
            std::printf("%-26s %.6g %s (median of %zu traced queries)\n",
                        metric.name, v, metric.unit, values.size());
        layer.push_back({metric.name, v, metric.unit});
    }
    if (!opt.trace_file.empty()) {
        if (tracer.writeChromeJson(opt.trace_file))
            std::printf("trace             %d spans -> %s\n", tracer.size(),
                        opt.trace_file.c_str());
        else
            std::printf("trace             could not write %s\n",
                        opt.trace_file.c_str());
    }
    printResult(attempted, failed, layer);
    return 0;
}
