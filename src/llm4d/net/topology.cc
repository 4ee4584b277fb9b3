#include "llm4d/net/topology.h"

#include "llm4d/simcore/common.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

const char *
toString(NetLevel level)
{
    switch (level) {
      case NetLevel::Self:
        return "self";
      case NetLevel::NvLink:
        return "nvlink";
      case NetLevel::Pod:
        return "pod";
      case NetLevel::Spine:
        return "spine";
    }
    LLM4D_PANIC("unreachable net level");
}

Topology::Topology(const ClusterSpec &spec) : spec_(spec)
{
    LLM4D_CHECK(spec_.node.gpus_per_node > 0, "need GPUs per node");
    LLM4D_CHECK(spec_.num_nodes > 0, "need at least one node");
    LLM4D_CHECK(spec_.nodes_per_pod > 0, "need nodes per pod");
    LLM4D_CHECK(spec_.spine_oversubscription >= 1.0,
                "oversubscription ratio must be >= 1");
    LLM4D_CHECK(1.0 / spec_.spine_oversubscription >= kMinLinkCapacity,
                "spine link capacity factor must be in ["
                    << kMinLinkCapacity << ", 1], got 1/"
                    << spec_.spine_oversubscription);
}

void
Topology::checkRank(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < numGpus(),
                 "rank " << rank << " outside cluster of " << numGpus());
}

std::int64_t
Topology::nodeOf(std::int64_t rank) const
{
    checkRank(rank);
    return rank / spec_.node.gpus_per_node;
}

std::int64_t
Topology::podOf(std::int64_t rank) const
{
    checkRank(rank);
    return spec_.podOf(rank);
}

std::int64_t
Topology::localRank(std::int64_t rank) const
{
    checkRank(rank);
    return rank % spec_.node.gpus_per_node;
}

NetLevel
Topology::levelBetween(std::int64_t a, std::int64_t b) const
{
    if (a == b)
        return NetLevel::Self;
    if (nodeOf(a) == nodeOf(b))
        return NetLevel::NvLink;
    if (podOf(a) == podOf(b))
        return NetLevel::Pod;
    return NetLevel::Spine;
}

NetLevel
Topology::levelOf(const RankSpan &group) const
{
    return levelBetween(group.first, group.last);
}

NetLevel
Topology::levelOf(const std::vector<std::int64_t> &ranks) const
{
    return levelOf(RankSpan::of(ranks));
}

double
Topology::bandwidth(NetLevel level) const
{
    const GpuSpec &gpu = spec_.node.gpu;
    switch (level) {
      case NetLevel::Self:
        // Same-GPU "communication" is an HBM copy.
        return gpu.hbm_bw_gbps;
      case NetLevel::NvLink:
        return gpu.nvlink_bw_gbps;
      case NetLevel::Pod:
        return gpu.nic_bw_gbps;
      case NetLevel::Spine:
        return gpu.nic_bw_gbps / spec_.spine_oversubscription;
    }
    LLM4D_PANIC("unreachable net level");
}

double
Topology::latency(NetLevel level) const
{
    switch (level) {
      case NetLevel::Self:
        return 0.0;
      case NetLevel::NvLink:
        return spec_.node.nvlink_latency_us * 1e-6;
      case NetLevel::Pod:
        return spec_.node.net_latency_us * 1e-6;
      case NetLevel::Spine:
        // One extra switch tier.
        return spec_.node.net_latency_us * 1.5e-6;
    }
    LLM4D_PANIC("unreachable net level");
}

} // namespace llm4d
