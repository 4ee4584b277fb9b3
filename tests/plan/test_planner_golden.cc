/**
 * enumeratePlans pinned bit for bit: every field of every candidate, for
 * 2K and 16K GPUs at 8K and 131K sequence length (1024 tokens per GPU,
 * plan_sweep's batch), folded into one FNV-1a digest per input. A change
 * that moves any estimate by one bit fails here; a change to the
 * planner's model that does so on purpose updates the pins and says so.
 */

#include "llm4d/plan/planner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <type_traits>
#include <vector>

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
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    template <typename E>
        requires std::is_enum_v<E>
    void add(E v)
    {
        add(static_cast<std::int64_t>(v));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digest(const std::vector<PlanCandidate> &plans)
{
    Fnv1a h;
    for (const PlanCandidate &c : plans) {
        h.add(c.par.tp);
        h.add(c.par.cp);
        h.add(c.par.pp);
        h.add(c.par.dp);
        h.add(c.zero);
        h.add(c.schedule);
        h.add(c.bs);
        h.add(c.nmb);
        h.add(c.v);
        h.add(c.feasible);
        h.add(c.reject_reason);
        h.add(c.est_step_seconds);
        h.add(c.est_tflops_per_gpu);
        h.add(c.est_memory_gib);
        h.add(c.bubble_ratio);
        h.add(c.exposed_comm_fraction);
    }
    return h.value();
}

void
expectPinned(std::int64_t gpus, std::int64_t seq, std::size_t candidates,
             std::size_t feasible, std::uint64_t pinned)
{
    PlanInput in;
    in.cluster = ClusterSpec::llama3Production(gpus);
    in.global_batch_tokens = gpus * 1024;
    in.seq = seq;
    const std::vector<PlanCandidate> plans = enumeratePlans(in);
    std::size_t fits = 0;
    for (const PlanCandidate &c : plans)
        fits += c.feasible ? 1 : 0;
    EXPECT_EQ(plans.size(), candidates);
    EXPECT_EQ(fits, feasible);
    const std::uint64_t got = digest(plans);
    EXPECT_EQ(got, pinned) << std::hex << "digest 0x" << got
                           << ", pinned 0x" << pinned;
}

TEST(PlannerGolden, Gpus2KSeq8K)
{
    expectPinned(2048, 8192, 330, 132, 0xa944935d534095a2ULL);
}

TEST(PlannerGolden, Gpus2KSeq131K)
{
    expectPinned(2048, 131072, 330, 89, 0xe9f5b575239fb85cULL);
}

TEST(PlannerGolden, Gpus16KSeq8K)
{
    expectPinned(16384, 8192, 330, 160, 0xde09202781a88820ULL);
}

TEST(PlannerGolden, Gpus16KSeq131K)
{
    expectPinned(16384, 131072, 330, 113, 0x407b16ed0631592bULL);
}

} // namespace
} // namespace llm4d
