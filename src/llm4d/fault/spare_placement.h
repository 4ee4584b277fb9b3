#ifndef LLM4D_FAULT_SPARE_PLACEMENT_H_
#define LLM4D_FAULT_SPARE_PLACEMENT_H_

/**
 * @file
 * Topology-aware warm-spare placement.
 *
 * Section 5.2's argument — *where* a process group lands on the
 * NVLink/pod/spine hierarchy decides its cost — applies to recovery just
 * as much as to training collectives. A warm spare is only cheap if it
 * sits inside the failed host's pod: a pod-local swap restores over the
 * full-bisection RoCE fabric, while a cross-pod replacement pulls every
 * byte through the oversubscribed spine *and* leaves the DP group
 * spanning pods for every subsequent step until the displaced rank can
 * migrate home. MegaScale (arXiv:2402.15627) provisions spares per
 * failure domain for exactly this reason.
 *
 * SparePool gives every spare a pod location and answers "nearest
 * available spare to failed host H" deterministically. It is pure
 * bookkeeping — no RNG, no clocks — so recovery stays a pure function
 * of (cluster, policy, fault seed) and CRN comparisons hold.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "llm4d/hw/gpu_spec.h"
#include "llm4d/net/topology.h"

namespace llm4d {

/** Where warm spares physically live on the pod hierarchy. */
enum class SparePlacementPolicy
{
    /**
     * Status quo: all spares park in one dedicated spare pod. Every
     * swap is cross-pod (the location-blind pre-placement model priced
     * swaps as if they were pod-local; keeping CentralPool with
     * placement pricing disabled reproduces that exactly).
     */
    CentralPool,

    /** Spares spread round-robin across the job's pods. */
    PerPodReserve,

    /**
     * Like PerPodReserve, but refills park the returning host in the
     * pod that has absorbed the most claims so far (the worn pod),
     * rather than the emptiest one.
     */
    Adaptive,
};

constexpr int kNumSparePlacementPolicies = 3;

const char *toString(SparePlacementPolicy policy);

/** Outcome of claiming the nearest spare to a failed host. */
struct SpareClaim
{
    /** Pod the replacement host came from. */
    std::int64_t spare_pod = 0;

    /** True when the spare sits in the failed host's own pod. */
    bool pod_local = false;

    /**
     * Narrowest network level on the victim-to-spare path: Pod for a
     * pod-local claim, Spine for a cross-pod one — the level the
     * recovery cost model prices the restore gather at.
     */
    NetLevel path = NetLevel::Pod;
};

/**
 * Deterministic per-pod warm-spare ledger. Pods are indexed
 * 0..numPods()-1; CentralPool parks its reserve in a virtual dedicated
 * pod at index numPods() so that every claim it serves is cross-pod.
 */
class SparePool
{
  public:
    SparePool(const ClusterSpec &cluster, SparePlacementPolicy policy,
              std::int64_t spare_hosts);

    /** Pods the job's hosts occupy (excludes the central spare pod). */
    [[nodiscard]] std::int64_t numPods() const { return cluster_.numPods(); }

    /** Index of the virtual dedicated spare pod (== numPods()). */
    [[nodiscard]] std::int64_t centralPod() const { return numPods(); }

    /** Pod of a host index (hosts are numbered 0..num_nodes-1). */
    [[nodiscard]] std::int64_t podOfHost(std::int64_t host) const;

    /** Spares currently parked anywhere. */
    [[nodiscard]] std::int64_t available() const;

    /** Spares the pool was built with (refills return it to this). */
    [[nodiscard]] std::int64_t provisioned() const { return provisioned_; }

    /** Spares currently parked in @p pod (central pod included). */
    [[nodiscard]] std::int64_t availableInPod(std::int64_t pod) const;

    /**
     * Claim the nearest available spare to failed host @p victim_host:
     * the victim's own pod first, otherwise the most-stocked pod
     * (lowest index on ties). Returns nullopt when the pool is dry.
     * Deterministic: same claim/refill history, same answer.
     */
    [[nodiscard]] std::optional<SpareClaim>
    claimNearest(std::int64_t victim_host);

    /**
     * Park one repaired (or freed) host back in the pool. CentralPool
     * returns it to the dedicated pod; PerPodReserve to the emptiest
     * pod; Adaptive to the pod with the most claims so far (lowest
     * index on ties).
     */
    void refill();

  private:
    ClusterSpec cluster_;
    SparePlacementPolicy policy_;
    std::int64_t provisioned_ = 0;

    /** reserve_[p] = spares parked in pod p; last slot = central pod. */
    std::vector<std::int64_t> reserve_;

    /** claims_[p] = claims charged against pod p (Adaptive wear). */
    std::vector<std::int64_t> claims_;
};

} // namespace llm4d

#endif // LLM4D_FAULT_SPARE_PLACEMENT_H_
