/**
 * Both slow-rank localizers pinned bit for bit on random layouts: each
 * report's rank, each step's axis, coordinate and spread, and the
 * culprit's and the median compute, folded into one FNV-1a digest per
 * localizer. Every degree is drawn from {1, 2, 3, 4}, so singleton axes
 * are common. Half the layouts draw compute from four levels a quarter
 * second apart, so per-coordinate scores tie exactly and the
 * tie-breaks decide: findSlowRank keeps the last highest score,
 * findSlowRankFromTrace the first lowest.
 */

#include "llm4d/debug/slow_rank.h"
#include "llm4d/debug/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

/** 64-bit FNV-1a over the little-endian bytes of each value added. */
class Fnv1a
{
  public:
    void add(std::uint64_t bits)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(const std::string &s)
    {
        add(static_cast<std::int64_t>(s.size()));
        for (const char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addReport(Fnv1a &h, const SlowRankReport &rep)
{
    h.add(rep.rank);
    h.add(static_cast<std::int64_t>(rep.steps.size()));
    for (const SlowRankStep &step : rep.steps) {
        h.add(step.axis);
        h.add(step.coordinate);
        h.add(step.wait_spread);
    }
    h.add(rep.compute_seconds);
    h.add(rep.median_compute_seconds);
}

constexpr int kLayouts = 200;

/** Layout @p i of the pinned set: its grid and per-rank compute. */
std::vector<double>
layout(int i, ParallelismConfig &par)
{
    Rng rng(2025, static_cast<std::uint64_t>(i));
    par.tp = rng.uniformInt(1, 4);
    par.cp = rng.uniformInt(1, 4);
    par.pp = rng.uniformInt(1, 4);
    par.dp = rng.uniformInt(1, 4);
    std::vector<double> compute(static_cast<std::size_t>(par.worldSize()));
    const bool tied = i % 2 == 0;
    for (double &c : compute)
        c = tied ? 1.0 + 0.25 * static_cast<double>(rng.uniformInt(0, 3))
                 : rng.uniform(1.0, 2.0);
    return compute;
}

TEST(SlowRankGolden, FromComputeTimes)
{
    Fnv1a h;
    for (int i = 0; i < kLayouts; ++i) {
        ParallelismConfig par;
        const std::vector<double> compute = layout(i, par);
        addReport(h, findSlowRank(RankGrid(par), compute));
    }
    EXPECT_EQ(h.value(), 0x155639d8cef7ff43ULL)
        << std::hex << "digest 0x" << h.value();
}

TEST(SlowRankGolden, FromCollectiveTraces)
{
    Fnv1a h;
    for (int i = 0; i < kLayouts; ++i) {
        ParallelismConfig par;
        const std::vector<double> compute = layout(i, par);
        const RankGrid grid(par);
        addReport(h, findSlowRankFromTrace(
                         grid, ClusterTrace::synthesize(grid, compute)));
    }
    EXPECT_EQ(h.value(), 0xb95e6dc0a497eb12ULL)
        << std::hex << "digest 0x" << h.value();
}

} // namespace
} // namespace llm4d
