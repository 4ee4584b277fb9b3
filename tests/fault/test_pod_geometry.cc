/**
 * Every model that places ranks in pods agrees on the pod geometry that
 * ClusterSpec owns (gpusPerPod, numPods, podOf, podGpus): Topology
 * (podOf, levelBetween), SparePool (numPods, podOfHost) and
 * PodHeatModel (numPods). Random cluster shapes as in
 * tests/net/test_rank_span.cc (4 or 8 GPUs per node; 1, 3 or 384 nodes
 * per pod), with node counts that often leave the last pod partial.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "llm4d/fault/colocation_model.h"
#include "llm4d/fault/spare_placement.h"
#include "llm4d/net/topology.h"
#include "llm4d/simcore/rng.h"

namespace llm4d {
namespace {

TEST(PodGeometry, EveryModelAgrees)
{
    constexpr std::int64_t kGpusPerNode[] = {4, 8};
    constexpr std::int64_t kNodesPerPod[] = {1, 3, 384};
    auto pick = [](Rng &rng, const auto &options) {
        const auto n = static_cast<std::int64_t>(std::size(options));
        return options[static_cast<std::size_t>(rng.uniformInt(0, n - 1))];
    };

    Rng rng(23);
    int partial_last_pods = 0;
    for (int shape = 0; shape < 100; ++shape) {
        ClusterSpec spec;
        spec.node.gpus_per_node = pick(rng, kGpusPerNode);
        spec.nodes_per_pod = pick(rng, kNodesPerPod);
        spec.num_nodes = rng.uniformInt(1, 1200);
        SCOPED_TRACE("gpus/node " + std::to_string(spec.node.gpus_per_node) +
                     " nodes/pod " + std::to_string(spec.nodes_per_pod) +
                     " nodes " + std::to_string(spec.num_nodes));
        const Topology topo(spec);
        const SparePool pool(spec, SparePlacementPolicy::PerPodReserve, 0);
        const PodHeatModel heat(spec, ColocationTuning{}, 1.0, 0.55, 0.95,
                                1);
        const std::int64_t pods = pool.numPods();
        EXPECT_EQ(heat.numPods(), pods);
        EXPECT_EQ(spec.numPods(), pods);

        // Count every rank into the pod Topology puts it in; the spare
        // pool must put its host in the same pod.
        std::vector<std::int64_t> ranks_in_pod(static_cast<std::size_t>(pods));
        for (std::int64_t r = 0; r < topo.numGpus(); ++r) {
            const std::int64_t pod = topo.podOf(r);
            ASSERT_GE(pod, 0) << "rank " << r;
            ASSERT_LT(pod, pods) << "rank " << r;
            ASSERT_EQ(pool.podOfHost(r / spec.node.gpus_per_node), pod)
                << "rank " << r;
            ASSERT_EQ(spec.podOf(r), pod) << "rank " << r;
            ++ranks_in_pod[static_cast<std::size_t>(pod)];
        }
        const std::int64_t full_pod =
            spec.nodes_per_pod * spec.node.gpus_per_node;
        EXPECT_EQ(spec.gpusPerPod(), full_pod);
        for (std::int64_t p = 0; p < pods; ++p) {
            const auto counted = ranks_in_pod[static_cast<std::size_t>(p)];
            EXPECT_EQ(spec.podGpus(p), counted) << "pod " << p;
            if (p + 1 < pods) {
                EXPECT_EQ(counted, full_pod) << "pod " << p;
            }
        }
        EXPECT_GE(ranks_in_pod.back(), 1);
        EXPECT_LE(ranks_in_pod.back(), full_pod);
        partial_last_pods += ranks_in_pod.back() < full_pod;

        // Pairs within a pod's width of each other: some share a pod,
        // some straddle a pod edge.
        for (int i = 0; i < 64; ++i) {
            const std::int64_t a = rng.uniformInt(0, topo.numGpus() - 1);
            const std::int64_t b = std::clamp<std::int64_t>(
                a + rng.uniformInt(-full_pod, full_pod), 0,
                topo.numGpus() - 1);
            EXPECT_EQ(topo.podOf(a) == topo.podOf(b),
                      topo.levelBetween(a, b) < NetLevel::Spine)
                << "ranks " << a << ", " << b;
        }
    }
    EXPECT_GT(partial_last_pods, 0);
}

} // namespace
} // namespace llm4d
