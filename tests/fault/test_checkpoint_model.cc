#include "llm4d/fault/checkpoint_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

namespace llm4d {
namespace {

struct Fixture
{
    ModelConfig model = ModelConfig::llama3_405b();
    ClusterSpec cluster = ClusterSpec::llama3Production(16384);
    ParallelismConfig par{8, 1, 16, 128};
};

TEST(CheckpointModel, TwelveBytesPerParameterFullySharded)
{
    const Fixture f;
    const CheckpointModel ckpt(f.model, f.cluster, f.par);
    EXPECT_DOUBLE_EQ(ckpt.totalBytes(),
                     12.0 * static_cast<double>(f.model.totalParams()));
    EXPECT_DOUBLE_EQ(ckpt.bytesPerGpu(),
                     ckpt.totalBytes() /
                         static_cast<double>(f.cluster.numGpus()));
}

TEST(CheckpointModel, SaveCostIsHostBandwidthBound)
{
    const Fixture f;
    CheckpointStorage storage;
    const CheckpointModel slow(f.model, f.cluster, f.par, storage);
    storage.write_gbps_per_host *= 2.0;
    const CheckpointModel fast(f.model, f.cluster, f.par, storage);
    const double slow_io = slow.saveSeconds() - storage.barrier_seconds;
    const double fast_io = fast.saveSeconds() - storage.barrier_seconds;
    EXPECT_GT(slow_io, 0.0);
    EXPECT_NEAR(fast_io, slow_io / 2.0, 1e-9);
}

TEST(CheckpointModel, LoadPaysRematerializationOnTopOfRead)
{
    const Fixture f;
    const CheckpointStorage storage;
    const CheckpointModel ckpt(f.model, f.cluster, f.par, storage);
    const double bytes_per_host =
        ckpt.bytesPerGpu() * f.cluster.node.gpus_per_node;
    const double read_io =
        bytes_per_host / (storage.read_gbps_per_host * 1e9);
    // Load = sharded read + barrier + FSDP all-gather; strictly more than
    // the raw filesystem read.
    EXPECT_GT(ckpt.loadSeconds(), read_io + storage.barrier_seconds);
}

TEST(CheckpointModel, BiggerClustersSaveFasterPerHost)
{
    // Fully sharded saves: per-host shard shrinks as the cluster grows.
    const Fixture f;
    const CheckpointModel big(f.model, f.cluster, f.par);
    const CheckpointModel small(f.model, ClusterSpec::llama3Production(2048),
                                ParallelismConfig{8, 1, 16, 16});
    EXPECT_LT(big.saveSeconds(), small.saveSeconds());
    EXPECT_DOUBLE_EQ(big.totalBytes(), small.totalBytes());
}

TEST(CheckpointModel, YoungDalyFormula)
{
    EXPECT_DOUBLE_EQ(youngDalyIntervalSeconds(3600.0, 8.0),
                     std::sqrt(2.0 * 3600.0 * 8.0));
    // Longer MTBF or costlier saves both stretch the optimal interval.
    EXPECT_GT(youngDalyIntervalSeconds(7200.0, 8.0),
              youngDalyIntervalSeconds(3600.0, 8.0));
    EXPECT_GT(youngDalyIntervalSeconds(3600.0, 16.0),
              youngDalyIntervalSeconds(3600.0, 8.0));
}

TEST(CheckpointModel, SnapshotIsMuchCheaperThanTheBlockingSave)
{
    // The TorchTitan async-checkpoint premise: the DRAM snapshot every
    // GPU takes over its own PCIe path is an order of magnitude cheaper
    // than the synchronous filesystem save it replaces on the critical
    // path.
    const Fixture f;
    const CheckpointModel ckpt(f.model, f.cluster, f.par);
    EXPECT_LT(ckpt.snapshotSeconds() * 5.0, ckpt.saveSeconds());
    EXPECT_GT(ckpt.snapshotSeconds(), 0.0);
}

TEST(CheckpointModel, DrainHitsTheSameFilesystemBottleneckAsSave)
{
    // The drain writes the same bytes through the same per-host
    // bandwidth; the win is overlap, not a faster write.
    const Fixture f;
    const CheckpointModel ckpt(f.model, f.cluster, f.par);
    EXPECT_DOUBLE_EQ(ckpt.drainSeconds(), ckpt.saveSeconds());
}

TEST(CheckpointModel, SnapshotScalesWithPerGpuShardAndBandwidth)
{
    const Fixture f;
    CheckpointStorage storage;
    const CheckpointModel slow(f.model, f.cluster, f.par, storage);
    storage.async.snapshot_gbps_per_gpu *= 2.0;
    const CheckpointModel fast(f.model, f.cluster, f.par, storage);
    const double slow_io =
        slow.snapshotSeconds() - storage.async.snapshot_barrier_seconds;
    const double fast_io =
        fast.snapshotSeconds() - storage.async.snapshot_barrier_seconds;
    EXPECT_GT(slow_io, 0.0);
    EXPECT_NEAR(fast_io, slow_io / 2.0, 1e-9);
}

TEST(CheckpointModel, TierPricingIsOrderedHbmNvmeGlobal)
{
    // The whole point of the hierarchy: each tier down is much more
    // durable and much more expensive. The HBM peer mirror is a single
    // p2p transfer, the NVMe spill a local write, the global save a
    // parallel-filesystem shard.
    const Fixture f;
    CheckpointStorage storage;
    storage.hier.enabled = true;
    const CheckpointModel ckpt(f.model, f.cluster, f.par, storage);
    EXPECT_GT(ckpt.hbmMirrorSeconds(), 0.0);
    EXPECT_LT(ckpt.hbmMirrorSeconds(), ckpt.nvmeWriteSeconds());
    EXPECT_LT(ckpt.nvmeWriteSeconds(), ckpt.saveSeconds());
    EXPECT_LT(ckpt.hbmRestoreSeconds(), ckpt.nvmeRestoreSeconds());
    EXPECT_LT(ckpt.nvmeRestoreSeconds(), ckpt.loadSeconds());
    // The dispatch helper agrees with the per-tier methods.
    EXPECT_DOUBLE_EQ(ckpt.tierRestoreSeconds(CheckpointTier::HbmPeer),
                     ckpt.hbmRestoreSeconds());
    EXPECT_DOUBLE_EQ(ckpt.tierRestoreSeconds(CheckpointTier::HostLocal),
                     ckpt.nvmeRestoreSeconds());
    EXPECT_DOUBLE_EQ(ckpt.tierRestoreSeconds(CheckpointTier::Global),
                     ckpt.loadSeconds());
}

TEST(CheckpointModel, TierSurvivalMatchesFailureDomains)
{
    // Local tiers (peer HBM mirrors, host NVMe) die with their host but
    // shrug off a single dead GPU; the global filesystem survives both.
    EXPECT_TRUE(tierSurvives(CheckpointTier::HbmPeer, BlastRadius::None));
    EXPECT_TRUE(tierSurvives(CheckpointTier::HbmPeer, BlastRadius::Gpu));
    EXPECT_FALSE(tierSurvives(CheckpointTier::HbmPeer, BlastRadius::Host));
    EXPECT_TRUE(tierSurvives(CheckpointTier::HostLocal, BlastRadius::None));
    EXPECT_TRUE(tierSurvives(CheckpointTier::HostLocal, BlastRadius::Gpu));
    EXPECT_FALSE(
        tierSurvives(CheckpointTier::HostLocal, BlastRadius::Host));
    for (int r = 0; r < kNumBlastRadii; ++r)
        EXPECT_TRUE(tierSurvives(CheckpointTier::Global,
                                 static_cast<BlastRadius>(r)));
    EXPECT_STREQ(toString(CheckpointTier::HbmPeer), "HbmPeer");
    EXPECT_STREQ(toString(CheckpointTier::HostLocal), "HostLocal");
    EXPECT_STREQ(toString(CheckpointTier::Global), "Global");
    std::set<std::string> names;
    for (int t = 0; t < kNumCheckpointTiers; ++t)
        names.insert(toString(static_cast<CheckpointTier>(t)));
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumCheckpointTiers));
}

TEST(CheckpointModelDeathTest, TierPricingRequiresHierEnabled)
{
    const Fixture f;
    const CheckpointModel ckpt(f.model, f.cluster, f.par);
    EXPECT_DEATH((void)ckpt.hbmMirrorSeconds(), "hier.enabled");
    EXPECT_DEATH((void)ckpt.hbmRestoreSeconds(), "hier.enabled");
    EXPECT_DEATH((void)ckpt.nvmeWriteSeconds(), "hier.enabled");
    EXPECT_DEATH((void)ckpt.nvmeRestoreSeconds(), "hier.enabled");
}

TEST(CheckpointModelDeathTest, HierNeedsADpPeerToMirrorTo)
{
    // dp = cp = 1: no DP-peer rank exists to hold the mirror.
    const Fixture f;
    CheckpointStorage storage;
    storage.hier.enabled = true;
    EXPECT_DEATH(CheckpointModel(f.model,
                                 ClusterSpec::llama3Production(128),
                                 ParallelismConfig{8, 1, 16, 1}, storage),
                 "DP peer");
}

TEST(CheckpointModelDeathTest, RejectsBadHierSpec)
{
    CheckpointStorage bad_hbm;
    bad_hbm.hier.hbm_barrier_seconds = -0.1;
    EXPECT_DEATH(bad_hbm.validate(), "HBM mirror barrier");
    CheckpointStorage bad_nvme_bw;
    bad_nvme_bw.hier.nvme_write_gbps_per_host = 0.0;
    EXPECT_DEATH(bad_nvme_bw.validate(), "NVMe tier bandwidth");
    CheckpointStorage bad_nvme_read;
    bad_nvme_read.hier.nvme_read_gbps_per_host = -2.0;
    EXPECT_DEATH(bad_nvme_read.validate(), "NVMe tier bandwidth");
    CheckpointStorage bad_nvme_barrier;
    bad_nvme_barrier.hier.nvme_barrier_seconds = -1.0;
    EXPECT_DEATH(bad_nvme_barrier.validate(), "NVMe barrier");
    CheckpointStorage bad_nvme_every;
    bad_nvme_every.hier.nvme_every = 0;
    EXPECT_DEATH(bad_nvme_every.validate(), "NVMe cadence");
    CheckpointStorage bad_global_every;
    bad_global_every.hier.global_every = -1;
    EXPECT_DEATH(bad_global_every.validate(), "global cadence");
}

TEST(CheckpointModelDeathTest, RejectsBadStorage)
{
    CheckpointStorage storage;
    storage.write_gbps_per_host = 0.0;
    EXPECT_DEATH(storage.validate(), "bandwidth");
    CheckpointStorage bad_read;
    bad_read.read_gbps_per_host = -1.0;
    EXPECT_DEATH(bad_read.validate(), "bandwidth");
    CheckpointStorage bad_barrier;
    bad_barrier.barrier_seconds = -0.5;
    EXPECT_DEATH(bad_barrier.validate(), "barrier");
    CheckpointStorage bad_snapshot;
    bad_snapshot.async.snapshot_gbps_per_gpu = 0.0;
    EXPECT_DEATH(bad_snapshot.validate(), "snapshot bandwidth");
    CheckpointStorage bad_snap_barrier;
    bad_snap_barrier.async.snapshot_barrier_seconds = -1.0;
    EXPECT_DEATH(bad_snap_barrier.validate(), "snapshot barrier");
    CheckpointStorage bad_drain;
    bad_drain.async.drain_step_slowdown = 0.9;
    EXPECT_DEATH(bad_drain.validate(), "drain slowdown");
}

} // namespace
} // namespace llm4d
