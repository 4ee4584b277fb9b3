/**
 * A rank group's span prices it exactly as its member list does. Random
 * cluster shapes (4 or 8 GPUs per node; 1, 3 or 384 nodes per pod, whose
 * edges cut power-of-two groups) and random grids; for sampled ranks,
 * every axis group and the dp x cp group is compared in both forms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "llm4d/net/collective.h"
#include "llm4d/net/topology.h"
#include "llm4d/parallel/parallelism.h"
#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

/** The widest level on a path from the first member to any other: how
 *  a member list was classified before spans, one pair at a time. */
NetLevel
walkedLevel(const Topology &topo, const std::vector<std::int64_t> &ranks)
{
    NetLevel worst = NetLevel::Self;
    for (std::int64_t r : ranks)
        worst = std::max(worst, topo.levelBetween(ranks.front(), r));
    return worst;
}

void
expectSameAsList(const Topology &topo, const CollectiveModel &coll,
                 const std::vector<std::int64_t> &list, const RankSpan &span)
{
    const auto [lo, hi] = std::minmax_element(list.begin(), list.end());
    EXPECT_EQ(span.size, static_cast<std::int64_t>(list.size()));
    EXPECT_EQ(span.first, *lo);
    EXPECT_EQ(span.last, *hi);
    EXPECT_EQ(RankSpan::of(list), span);

    EXPECT_EQ(topo.levelOf(span), topo.levelOf(list));
    EXPECT_EQ(topo.levelOf(span), walkedLevel(topo, list));

    for (const std::int64_t bytes : {0LL, 1LL, 4097LL, 3LL << 20}) {
        EXPECT_EQ(coll.allGather(span, bytes), coll.allGather(list, bytes));
        EXPECT_EQ(coll.reduceScatter(span, bytes),
                  coll.reduceScatter(list, bytes));
        EXPECT_EQ(coll.allReduce(span, bytes), coll.allReduce(list, bytes));
        EXPECT_EQ(coll.broadcast(span, bytes), coll.broadcast(list, bytes));
        EXPECT_EQ(coll.gatherTo(span, bytes), coll.gatherTo(list, bytes));
    }
}

TEST(RankSpanProperty, SpanPricesEveryGroupLikeItsMemberList)
{
    constexpr std::int64_t kDegrees[] = {1, 2, 3, 4, 8, 16, 32, 128};
    constexpr std::int64_t kGpusPerNode[] = {4, 8};
    constexpr std::int64_t kNodesPerPod[] = {1, 3, 384};
    auto pick = [](Rng &rng, const auto &options) {
        const auto n = static_cast<std::int64_t>(std::size(options));
        return options[static_cast<std::size_t>(rng.uniformInt(0, n - 1))];
    };

    Rng rng(18);
    int grids = 0;
    while (grids < 200) {
        ParallelismConfig par{pick(rng, kDegrees), pick(rng, kDegrees),
                              pick(rng, kDegrees), pick(rng, kDegrees)};
        if (par.worldSize() > 64 * 1024)
            continue;
        ++grids;
        ClusterSpec spec;
        spec.node.gpus_per_node = pick(rng, kGpusPerNode);
        spec.nodes_per_pod = pick(rng, kNodesPerPod);
        spec.num_nodes = ceilDiv(par.worldSize(), spec.node.gpus_per_node);
        const Topology topo(spec);
        const CollectiveModel coll(topo);
        const RankGrid grid(par);
        SCOPED_TRACE(par.str() + " gpus/node " +
                     std::to_string(spec.node.gpus_per_node) +
                     " nodes/pod " + std::to_string(spec.nodes_per_pod));

        std::vector<std::int64_t> sampled = {0, par.worldSize() - 1};
        for (int i = 0; i < 16; ++i)
            sampled.push_back(rng.uniformInt(0, par.worldSize() - 1));
        for (const std::int64_t r : sampled) {
            SCOPED_TRACE("rank " + std::to_string(r));
            expectSameAsList(topo, coll, grid.tpGroup(r), grid.tpSpan(r));
            expectSameAsList(topo, coll, grid.cpGroup(r), grid.cpSpan(r));
            expectSameAsList(topo, coll, grid.ppGroup(r), grid.ppSpan(r));
            expectSameAsList(topo, coll, grid.dpGroup(r), grid.dpSpan(r));
            expectSameAsList(topo, coll, grid.dpCpGroup(r),
                             grid.dpCpSpan(r));
        }
    }
}

} // namespace
} // namespace llm4d
