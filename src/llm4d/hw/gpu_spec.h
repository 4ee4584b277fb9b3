#ifndef LLM4D_HW_GPU_SPEC_H_
#define LLM4D_HW_GPU_SPEC_H_

/**
 * @file
 * GPU and cluster hardware descriptions.
 *
 * The paper's testbed is Meta's Grand Teton platform: H100-SXM GPUs
 * (700 W TDP, 80 GB HBM3), 8 GPUs per host on NVLink, one 400 Gbps RoCE
 * NIC per GPU (50 GB/s), and a three-level network with full bisection
 * inside a pod and 1:7 oversubscription above it (Llama 3 tech report,
 * Section 3.3.1). These structs encode that testbed, plus the H100-HBM2e
 * variant used for the CP scalability study in Section 7.2.
 */

#include <algorithm>
#include <cstdint>
#include <string>

#include "llm4d/simcore/common.h"

namespace llm4d {

/** Static description of one accelerator. */
struct GpuSpec
{
    std::string name = "H100-SXM-HBM3";

    /** Peak dense BF16 throughput in TFLOP/s (no sparsity). */
    double peak_bf16_tflops = 989.0;

    /** HBM bandwidth in GB/s. */
    double hbm_bw_gbps = 3350.0;

    /** HBM capacity in GiB. */
    double hbm_capacity_gib = 80.0;

    /** Per-GPU NVLink bandwidth (unidirectional) in GB/s. */
    double nvlink_bw_gbps = 450.0;

    /** Per-GPU RoCE NIC bandwidth in GB/s (400 Gbps). */
    double nic_bw_gbps = 50.0;

    /** Host-side launch overhead per kernel, in microseconds. */
    double kernel_launch_us = 6.0;

    /** Best-case fraction of peak reachable by large GEMMs. */
    double max_gemm_efficiency = 0.74;

    /** Best-case fraction of peak reachable by fused attention kernels. */
    double max_attn_efficiency = 0.62;

    /** Board power in watts (for Perf/Watt reporting, Section 8.2). */
    double tdp_watts = 700.0;

    /**
     * Mean time between fatal per-GPU faults (HBM ECC, driver hang, die
     * fallout), hours; <= 0 disables the failure class. The default is
     * calibrated against the Llama 3 54-day production run (419
     * unexpected interruptions on 16384 GPUs, ~59% GPU-attributed).
     */
    double fatal_mtbf_hours = 85000.0;

    /**
     * Mean time between silent straggler onsets per GPU (thermal
     * throttling, degraded HBM lanes — Section 8.1's "performance
     * variations"), hours; <= 0 disables. Stragglers do not kill the job;
     * they drag the whole synchronized cluster until localized.
     */
    double straggler_mtbf_hours = 500000.0;

    /** Peak BF16 throughput in FLOP/s. */
    double peakFlops() const { return peak_bf16_tflops * 1e12; }

    /** The production training GPU: H100 SXM with HBM3. */
    static GpuSpec h100Sxm();

    /**
     * H100 with HBM2e (lower memory bandwidth), used by the paper for the
     * CP scalability study "in a lower memory bandwidth setup".
     */
    static GpuSpec h100Hbm2e();

    bool operator==(const GpuSpec &) const = default;
};

/** One training host (Grand Teton server). */
struct NodeSpec
{
    GpuSpec gpu;
    std::int64_t gpus_per_node = 8;

    /** Intra-node hop latency (NVLink), microseconds. */
    double nvlink_latency_us = 2.0;

    /** Inter-node hop latency (RoCE), microseconds. */
    double net_latency_us = 8.0;

    /**
     * Mean time between whole-host crashes from non-GPU components (CPU,
     * RAM, PSU, cooling), hours per host; <= 0 disables.
     */
    double host_mtbf_hours = 120000.0;

    /**
     * Mean time between NIC/link flaps per NIC (one NIC per GPU), hours;
     * <= 0 disables. A flap degrades the link's capacity for its duration
     * instead of failing the job.
     */
    double nic_flap_mtbf_hours = 200000.0;

    bool operator==(const NodeSpec &) const = default;
};

/** Whole-cluster description with a three-level network hierarchy. */
struct ClusterSpec
{
    NodeSpec node;

    std::int64_t num_nodes = 2048; ///< 16K GPUs by default

    /** Nodes per full-bisection pod (Llama 3: 3072 GPUs / 8 = 384). */
    std::int64_t nodes_per_pod = 384;

    /**
     * Bandwidth oversubscription ratio above the pod level (1:7 in the
     * Llama 3 cluster): cross-pod per-GPU bandwidth = nic_bw / this.
     */
    double spine_oversubscription = 7.0;

    /** Total number of GPUs. */
    std::int64_t numGpus() const { return num_nodes * node.gpus_per_node; }

    /** GPUs in a full pod. */
    std::int64_t gpusPerPod() const
    {
        return nodes_per_pod * node.gpus_per_node;
    }

    /** Pods the nodes occupy; the last one may be partial. */
    std::int64_t numPods() const { return ceilDiv(num_nodes, nodes_per_pod); }

    /** Pod of a global GPU rank. */
    std::int64_t podOf(std::int64_t rank) const
    {
        return rank / gpusPerPod();
    }

    /** GPUs in @p pod: gpusPerPod(), or fewer in a partial last pod. */
    std::int64_t podGpus(std::int64_t pod) const
    {
        return std::min(gpusPerPod(), numGpus() - pod * gpusPerPod());
    }

    /**
     * Aggregate component failure (or degradation-onset) rate of the
     * whole cluster in events per hour, summing GPU-fatal, host-crash,
     * NIC-flap, and straggler-onset classes over every component.
     */
    double failuresPerHour() const;

    /**
     * Rate of job-killing failures only (GPU-fatal + host-crash), events
     * per hour — the MTBF that matters for Young–Daly checkpoint-interval
     * analysis, since flaps and stragglers degrade without losing work.
     */
    double fatalFailuresPerHour() const;

    /** The 16K-GPU Llama 3 production cluster. */
    static ClusterSpec llama3Production(std::int64_t num_gpus = 16384);

    bool operator==(const ClusterSpec &) const = default;
};

} // namespace llm4d

#endif // LLM4D_HW_GPU_SPEC_H_
