#include "llm4d/fault/checkpoint_model.h"

#include <cmath>

#include "llm4d/model/memory_model.h"
#include "llm4d/net/collective.h"
#include "llm4d/net/topology.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

constexpr double kGB = 1e9;

} // namespace

const char *
toString(CheckpointTier tier)
{
    switch (tier) {
      case CheckpointTier::HbmPeer:
        return "HbmPeer";
      case CheckpointTier::HostLocal:
        return "HostLocal";
      case CheckpointTier::Global:
        return "Global";
    }
    LLM4D_PANIC("unreachable checkpoint tier");
}

bool
tierSurvives(CheckpointTier tier, BlastRadius radius)
{
    switch (tier) {
      case CheckpointTier::HbmPeer:
      case CheckpointTier::HostLocal:
        // Per-host copies (and peer-held mirrors) die with their host;
        // a single lost GPU is covered by the surviving copies.
        return radius != BlastRadius::Host;
      case CheckpointTier::Global:
        return true;
    }
    LLM4D_PANIC("unreachable checkpoint tier");
}

void
HierarchicalCheckpointSpec::validate() const
{
    LLM4D_CHECK(hbm_barrier_seconds >= 0.0,
                "HBM mirror barrier must be non-negative");
    LLM4D_CHECK(nvme_write_gbps_per_host > 0.0 &&
                    nvme_read_gbps_per_host > 0.0,
                "NVMe tier bandwidth must be positive");
    LLM4D_CHECK(nvme_barrier_seconds >= 0.0,
                "NVMe barrier must be non-negative");
    LLM4D_CHECK(nvme_every >= 1,
                "NVMe cadence must be >= 1 checkpoint boundary");
    LLM4D_CHECK(global_every >= 1,
                "global cadence must be >= 1 checkpoint boundary");
}

void
CheckpointStorage::validate() const
{
    LLM4D_CHECK(write_gbps_per_host > 0.0 && read_gbps_per_host > 0.0,
                "checkpoint storage bandwidth must be positive");
    LLM4D_CHECK(barrier_seconds >= 0.0,
                "checkpoint barrier must be non-negative");
    LLM4D_CHECK(async.snapshot_gbps_per_gpu > 0.0,
                "snapshot bandwidth must be positive");
    LLM4D_CHECK(async.snapshot_barrier_seconds >= 0.0,
                "snapshot barrier must be non-negative");
    LLM4D_CHECK(async.drain_step_slowdown >= 1.0,
                "drain slowdown must be a multiplier >= 1");
    hier.validate();
}

bool
hasDpPeer(const ParallelismConfig &par)
{
    return par.dp * par.cp > 1;
}

CheckpointModel::CheckpointModel(const ModelConfig &model,
                                 const ClusterSpec &cluster,
                                 const ParallelismConfig &par,
                                 CheckpointStorage storage)
    : model_(model), cluster_(cluster), par_(par), storage_(storage)
{
    storage_.validate();
    par_.validate();
    LLM4D_CHECK(par_.worldSize() == cluster_.numGpus(),
                "parallelism " << par_.str() << " does not match cluster of "
                               << cluster_.numGpus() << " GPUs");
    // Every write and restore is priced from these bytes; a run prices
    // one at every checkpoint boundary it walks.
    bytes_per_gpu_ =
        totalBytes() / static_cast<double>(cluster_.numGpus());
    LLM4D_CHECK(!storage_.hier.enabled || hasDpPeer(par_),
                "hierarchical HBM peer mirroring needs a DP peer "
                "(dp * cp > 1)");
    // Rematerializing BF16 weights on load: all-gather each rank's
    // parameter shard over its FSDP (dp*cp) group, the rank's DP peers.
    if (hasDpPeer(par_)) {
        const Topology topo(cluster_);
        const CollectiveModel coll(topo);
        const RankGrid grid(par_);
        const double bf16_params_per_mp_rank =
            kBf16Bytes * static_cast<double>(model_.totalParams()) /
            static_cast<double>(par_.modelParallelSize());
        const auto shard_bytes = static_cast<std::int64_t>(
            bf16_params_per_mp_rank /
            static_cast<double>(par_.dp * par_.cp));
        regather_seconds_ =
            coll.allGather(grid.dpCpSpan(0), shard_bytes);
        if (storage_.hier.enabled) {
            // Every rank mirrors its checkpoint shard onto the next DP
            // peer: the member after it in dpCpGroup's DP-major, CP-minor
            // order, its CP neighbour unless cp == 1. All pairs transfer
            // concurrently, so the mirror costs one point-to-point send
            // at the DP-group link level.
            RankCoord peer;
            if (par_.cp > 1)
                peer.cp = 1;
            else
                peer.dp = 1;
            hbm_mirror_p2p_seconds_ =
                coll.p2p(0, grid.rankOf(peer),
                         static_cast<std::int64_t>(bytesPerGpu()));
        }
    }
}

double
CheckpointModel::totalBytes() const
{
    return kOptimizerBytesPerParam *
           static_cast<double>(model_.totalParams());
}

double
CheckpointModel::saveSeconds() const
{
    const double bytes_per_host =
        bytesPerGpu() * static_cast<double>(cluster_.node.gpus_per_node);
    return bytes_per_host / (storage_.write_gbps_per_host * kGB) +
           storage_.barrier_seconds;
}

double
CheckpointModel::snapshotSeconds() const
{
    // Every GPU DMAs its own shard over its PCIe path concurrently.
    return bytesPerGpu() / (storage_.async.snapshot_gbps_per_gpu * kGB) +
           storage_.async.snapshot_barrier_seconds;
}

double
CheckpointModel::drainSeconds() const
{
    // Same filesystem bottleneck as a synchronous save — the win is
    // that steps no longer wait for it.
    return saveSeconds();
}

double
CheckpointModel::loadSeconds() const
{
    const double bytes_per_host =
        bytesPerGpu() * static_cast<double>(cluster_.node.gpus_per_node);
    return bytes_per_host / (storage_.read_gbps_per_host * kGB) +
           storage_.barrier_seconds + regather_seconds_;
}

double
CheckpointModel::hbmMirrorSeconds() const
{
    LLM4D_CHECK(storage_.hier.enabled,
                "HBM tier pricing requires hier.enabled");
    return hbm_mirror_p2p_seconds_ + storage_.hier.hbm_barrier_seconds;
}

double
CheckpointModel::hbmRestoreSeconds() const
{
    // The replacement rank pulls its shard from the DP-peer mirror; the
    // survivors' in-HBM reloads complete underneath that transfer, so a
    // restore costs what the mirror write did.
    return hbmMirrorSeconds();
}

double
CheckpointModel::nvmeWriteSeconds() const
{
    LLM4D_CHECK(storage_.hier.enabled,
                "NVMe tier pricing requires hier.enabled");
    const double bytes_per_host =
        bytesPerGpu() * static_cast<double>(cluster_.node.gpus_per_node);
    return bytes_per_host / (storage_.hier.nvme_write_gbps_per_host * kGB) +
           storage_.hier.nvme_barrier_seconds;
}

double
CheckpointModel::nvmeRestoreSeconds() const
{
    LLM4D_CHECK(storage_.hier.enabled,
                "NVMe tier pricing requires hier.enabled");
    const double bytes_per_host =
        bytesPerGpu() * static_cast<double>(cluster_.node.gpus_per_node);
    return bytes_per_host / (storage_.hier.nvme_read_gbps_per_host * kGB) +
           storage_.hier.nvme_barrier_seconds + regather_seconds_;
}

double
CheckpointModel::tierRestoreSeconds(CheckpointTier tier) const
{
    switch (tier) {
      case CheckpointTier::HbmPeer:
        return hbmRestoreSeconds();
      case CheckpointTier::HostLocal:
        return nvmeRestoreSeconds();
      case CheckpointTier::Global:
        return loadSeconds();
    }
    LLM4D_PANIC("unreachable checkpoint tier");
}

double
youngDalyIntervalSeconds(double mtbf_seconds, double save_seconds)
{
    LLM4D_CHECK(mtbf_seconds > 0.0 && save_seconds > 0.0,
                "Young-Daly needs positive MTBF and save cost");
    return std::sqrt(2.0 * mtbf_seconds * save_seconds);
}

} // namespace llm4d
