#ifndef LLM4D_FAULT_CHECKPOINT_MODEL_H_
#define LLM4D_FAULT_CHECKPOINT_MODEL_H_

/**
 * @file
 * Sharded checkpoint save/load cost model and the Young–Daly interval.
 *
 * TorchTitan (arXiv:2410.06511) treats recoverable checkpointing as a
 * core subsystem of a production pre-training stack. The checkpoint
 * contents are the FP32 master weights plus the two Adam moments
 * (12 bytes/parameter, paper Section 6.2 keeps gradients/master state in
 * FP32); BF16 working weights are rematerialized from the master copy on
 * load. Saves are fully sharded — with ZeRO-1 the optimizer state is
 * sharded over the dp*cp group and parameters over tp*pp, so each of the
 * world's GPUs owns exactly totalBytes/world — and bottlenecked by each
 * host's bandwidth to the distributed filesystem. Loads additionally pay
 * one parameter all-gather over the FSDP group (priced through the
 * collective model) to rematerialize the BF16 working weights.
 */

#include <cstdint>

#include "llm4d/fault/fault_model.h"
#include "llm4d/hw/gpu_spec.h"
#include "llm4d/model/model_config.h"
#include "llm4d/parallel/parallelism.h"

namespace llm4d {

/**
 * Checkpoint tiers, fastest/most-fragile first (MegaScale
 * arXiv:2402.15627 Section 5; TorchTitan arXiv:2410.06511):
 *  - HbmPeer:   each rank's shard mirrored into a DP peer's HBM over
 *               NVLink/RoCE. Restores in O(100ms) but copies live in
 *               process memory, so only *live* recovery paths (warm-spare
 *               swap, DP-shrink) can use it, and a HostCrash destroys the
 *               host's own shards and any peer mirrors it held.
 *  - HostLocal: each host writes its shards to its own NVMe. Survives
 *               process teardown (full restarts can re-read it) and a
 *               GpuFatal, but dies with its host.
 *  - Global:    the parallel filesystem; survives everything.
 */
enum class CheckpointTier
{
    HbmPeer,
    HostLocal,
    Global,
};

constexpr int kNumCheckpointTiers = 3;

const char *toString(CheckpointTier tier);

/**
 * Failure-domain query: do a tier's checkpoint copies survive a fault
 * with the given blast radius? The local tiers hold per-host copies
 * (plus, for HbmPeer, shards mirrored *from* other hosts), so a Host
 * radius destroys them; a single lost GPU is covered by its DP-peer
 * mirror (HbmPeer) or its host's NVMe copy (HostLocal).
 */
[[nodiscard]] bool tierSurvives(CheckpointTier tier, BlastRadius radius);

/**
 * Two-stage asynchronous checkpointing (TorchTitan arXiv:2410.06511):
 * the step blocks only for a DMA snapshot of the shard into host DRAM;
 * the filesystem drain overlaps subsequent steps. A checkpoint becomes
 * *durable* — usable for rollback — only once its drain completes.
 */
struct AsyncCheckpointSpec
{
    /** HBM -> host-DRAM snapshot bandwidth per GPU (PCIe DMA), GB/s. */
    double snapshot_gbps_per_gpu = 40.0;

    /** Quiesce barrier for the blocking snapshot stage, seconds. */
    double snapshot_barrier_seconds = 0.5;

    /**
     * Step-time multiplier while a drain is in flight (>= 1): the
     * background write contends for host memory/NIC bandwidth.
     */
    double drain_step_slowdown = 1.03;
};

/**
 * Hierarchical (HBM-peer + host-NVMe) tier tuning and cadence. When
 * enabled, every checkpoint boundary writes the HBM peer mirror; every
 * nvme_every-th boundary also persists to host-local NVMe; every
 * global_every-th boundary additionally runs the global (PFS) save.
 */
struct HierarchicalCheckpointSpec
{
    /** Master switch; false keeps the single global tier (pre-existing
     *  behavior, bit-identical). */
    bool enabled = false;

    /** Quiesce barrier for the HBM peer-mirror write, seconds. */
    double hbm_barrier_seconds = 0.1;

    /** Aggregate NVMe write bandwidth per host, GB/s. */
    double nvme_write_gbps_per_host = 8.0;

    /** Aggregate NVMe read bandwidth per host, GB/s. */
    double nvme_read_gbps_per_host = 12.0;

    /** Quiesce + fsync barrier per NVMe save or load, seconds. */
    double nvme_barrier_seconds = 0.5;

    /** HBM boundaries per NVMe persist (>= 1). */
    std::int64_t nvme_every = 4;

    /** HBM boundaries per global PFS checkpoint (>= 1). */
    std::int64_t global_every = 16;

    /** Abort unless bandwidths, barriers, and cadences are sane. */
    void validate() const;
};

/** Distributed-filesystem characteristics seen by one 8-GPU host. */
struct CheckpointStorage
{
    /** Aggregate write bandwidth per host to the checkpoint store, GB/s. */
    double write_gbps_per_host = 1.0;

    /** Aggregate read bandwidth per host (reads cache better), GB/s. */
    double read_gbps_per_host = 4.0;

    /** Quiesce + metadata-commit barrier per save or load, seconds. */
    double barrier_seconds = 4.0;

    /** Two-stage (snapshot + overlapped drain) checkpoint tuning. */
    AsyncCheckpointSpec async;

    /** Hierarchical local-tier tuning (disabled by default). */
    HierarchicalCheckpointSpec hier;

    /** Abort unless bandwidths and overheads are sane. */
    void validate() const;
};

/**
 * Whether every rank of @p par has a DP peer: another rank holding the
 * same model shard (dp * cp > 1). The hierarchical tiers mirror each
 * rank's checkpoint shard into a DP peer's HBM, so they need one.
 */
[[nodiscard]] bool hasDpPeer(const ParallelismConfig &par);

/** Prices sharded checkpoint save/load for one job. */
class CheckpointModel
{
  public:
    CheckpointModel(const ModelConfig &model, const ClusterSpec &cluster,
                    const ParallelismConfig &par,
                    CheckpointStorage storage = {});

    /** Total checkpoint bytes across the cluster (12 B / parameter). */
    [[nodiscard]] double totalBytes() const;

    /** Sharded checkpoint bytes written/read by one GPU (priced once,
     *  when the model is built). */
    [[nodiscard]] double bytesPerGpu() const { return bytes_per_gpu_; }

    /** Synchronous sharded-save cost charged to the training step. */
    [[nodiscard]] double saveSeconds() const;

    /**
     * Step-blocking cost of an asynchronous save: each GPU DMAs its
     * shard into host DRAM; the filesystem write happens later.
     */
    [[nodiscard]] double snapshotSeconds() const;

    /**
     * Background drain of a snapshot to the filesystem (including the
     * durability metadata commit). Overlaps training steps; only its
     * *completion* makes the checkpoint usable for rollback.
     */
    [[nodiscard]] double drainSeconds() const;

    /**
     * Restore cost: sharded read plus the FSDP parameter all-gather that
     * rematerializes BF16 working weights on every rank.
     */
    [[nodiscard]] double loadSeconds() const;

    /**
     * Step-blocking cost of mirroring every rank's shard into a DP
     * peer's HBM (all pairs concurrently, priced as one point-to-point
     * transfer over the DP-group link level). Requires hier.enabled.
     */
    [[nodiscard]] double hbmMirrorSeconds() const;

    /**
     * Restore from the HBM peer tier: replacement ranks pull their
     * shards back from the DP-peer mirrors (survivors reload their own
     * in-HBM snapshot underneath that transfer). Requires hier.enabled.
     */
    [[nodiscard]] double hbmRestoreSeconds() const;

    /** Persist each host's shards to its own NVMe. Requires hier.enabled. */
    [[nodiscard]] double nvmeWriteSeconds() const;

    /**
     * Restore from host-local NVMe (every host re-reads its own copy),
     * plus the BF16 rematerialization all-gather — this path is taken
     * by full restarts, where working weights are gone. Requires
     * hier.enabled.
     */
    [[nodiscard]] double nvmeRestoreSeconds() const;

    /** Restore cost of one tier (Global == loadSeconds()). */
    [[nodiscard]] double tierRestoreSeconds(CheckpointTier tier) const;

  private:
    ModelConfig model_;
    ClusterSpec cluster_;
    ParallelismConfig par_;
    CheckpointStorage storage_;
    double bytes_per_gpu_ = 0.0;
    double regather_seconds_ = 0.0;
    double hbm_mirror_p2p_seconds_ = 0.0;
};

/**
 * Young–Daly first-order optimal checkpoint interval
 * sqrt(2 * MTBF * save_cost), both arguments in seconds. Valid for
 * save_cost << MTBF; the run simulator's empirical optimum is validated
 * against it (acceptance criterion: within 2x).
 */
[[nodiscard]] double youngDalyIntervalSeconds(double mtbf_seconds,
                                              double save_seconds);

} // namespace llm4d

#endif // LLM4D_FAULT_CHECKPOINT_MODEL_H_
