#ifndef LLM4D_NET_TOPOLOGY_H_
#define LLM4D_NET_TOPOLOGY_H_

/**
 * @file
 * Hierarchical cluster network topology.
 *
 * Three levels, mirroring the Llama 3 training cluster (Section 5.2 and
 * the Llama 3 tech report): NVLink inside an 8-GPU host, full-bisection
 * RoCE inside a pod, and an oversubscribed spine across pods. The
 * parallelism-ordering arguments of Section 5.2 are exactly about which
 * process groups land on which of these levels.
 */

#include <cstdint>
#include <vector>

#include "llm4d/hw/gpu_spec.h"
#include "llm4d/parallel/parallelism.h"

namespace llm4d {

/** Network level spanned by a set of ranks. */
enum class NetLevel
{
    Self,     ///< single rank, no communication
    NvLink,   ///< all ranks within one host
    Pod,      ///< spans hosts within one full-bisection pod
    Spine,    ///< spans pods (oversubscribed)
};

constexpr int kNumNetLevels = 4;

const char *toString(NetLevel level);

/** Maps global ranks onto the cluster hierarchy and rates links. */
class Topology
{
  public:
    /** Build from a cluster description. */
    explicit Topology(const ClusterSpec &spec);

    const ClusterSpec &spec() const { return spec_; }

    /** Total GPU count. */
    std::int64_t numGpus() const { return spec_.numGpus(); }

    /** Host index of a global rank. */
    std::int64_t nodeOf(std::int64_t rank) const;

    /** Pod index of a global rank. */
    std::int64_t podOf(std::int64_t rank) const;

    /** Index of the rank within its host. */
    std::int64_t localRank(std::int64_t rank) const;

    /** Narrowest network level on the path between two ranks. */
    NetLevel levelBetween(std::int64_t a, std::int64_t b) const;

    /**
     * Narrowest network level spanned by a group of ranks:
     * levelBetween(first, last). Node and pod ids never decrease as the
     * rank grows, so a member between the two ends shares their node
     * (or pod) whenever they share one, and spans no wider level.
     */
    NetLevel levelOf(const RankSpan &group) const;

    /** levelOf(RankSpan::of(ranks)). */
    NetLevel levelOf(const std::vector<std::int64_t> &ranks) const;

    /** Per-GPU unidirectional bandwidth available at a level, GB/s. */
    double bandwidth(NetLevel level) const;

    /** One-hop latency at a level, seconds. */
    double latency(NetLevel level) const;

  private:
    void checkRank(std::int64_t rank) const;

    ClusterSpec spec_;
};

} // namespace llm4d

#endif // LLM4D_NET_TOPOLOGY_H_
