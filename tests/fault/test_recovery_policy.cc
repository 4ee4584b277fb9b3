#include "llm4d/fault/recovery_policy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

namespace llm4d {
namespace {

struct Fixture
{
    ModelConfig model = ModelConfig::llama3_405b();
    ClusterSpec cluster = ClusterSpec::llama3Production(16384);
    ParallelismConfig par{8, 1, 16, 128};
    CheckpointStorage storage;
};

RecoveryCostRequest
swapRequest(NetLevel path = NetLevel::Pod)
{
    RecoveryCostRequest req;
    req.kind = RecoveryCostRequest::Kind::SpareSwap;
    req.spare_path = path;
    return req;
}

RecoveryCostRequest
partialRestartRequest(NetLevel path = NetLevel::Pod)
{
    RecoveryCostRequest req;
    req.kind = RecoveryCostRequest::Kind::PartialRestart;
    req.spare_path = path;
    return req;
}

RecoveryCostRequest
shrinkRequest(std::int64_t to_dp,
              CheckpointTier tier = CheckpointTier::Global)
{
    RecoveryCostRequest req;
    req.kind = RecoveryCostRequest::Kind::Shrink;
    req.to_dp = to_dp;
    req.restore_tier = tier;
    return req;
}

RecoveryCostRequest
regrowRequest(std::int64_t to_dp)
{
    RecoveryCostRequest req;
    req.kind = RecoveryCostRequest::Kind::Regrow;
    req.to_dp = to_dp;
    return req;
}

/** Sharded restore cost of the fixture's job at @p dp replicas. */
double
loadSecondsAt(const Fixture &f, std::int64_t dp)
{
    const ParallelismConfig par = RecoveryCostModel::shrunkPar(f.par, dp);
    const ClusterSpec cluster =
        RecoveryCostModel::shrunkCluster(f.cluster, par);
    return CheckpointModel(f.model, cluster, par, f.storage).loadSeconds();
}

TEST(RecoveryPolicy, ElasticPresetEnablesTheFullMitigationStack)
{
    const RecoveryPolicy policy = RecoveryPolicy::elastic(8);
    EXPECT_EQ(policy.mode, RecoveryMode::WarmSpare);
    EXPECT_EQ(policy.spare_hosts, 8);
    EXPECT_TRUE(policy.allow_dp_shrink);
    EXPECT_EQ(policy.checkpoint_mode, CheckpointMode::Async);
    EXPECT_TRUE(policy.straggler_rebalance);
    // Regrow stays opt-in: the preset predates the repair shop and
    // existing studies depend on its bit-exact behavior.
    EXPECT_FALSE(policy.allow_regrow);
    // Placement-awareness stays opt-in for the same reason.
    EXPECT_EQ(policy.spare_placement, SparePlacementPolicy::CentralPool);
    EXPECT_FALSE(policy.placement_migration);
    EXPECT_FALSE(RecordedPolicy(policy).placementAware());
}

TEST(RecoveryPolicy, EnumTextRoundTrips)
{
    EXPECT_STREQ(toString(RecoveryMode::FullRestart), "full-restart");
    EXPECT_STREQ(toString(RecoveryMode::WarmSpare), "warm-spare");
    EXPECT_STREQ(toString(CheckpointMode::Sync), "sync");
    EXPECT_STREQ(toString(CheckpointMode::Async), "async");
    std::set<std::string> recovery_modes;
    for (int m = 0; m < kNumRecoveryModes; ++m)
        recovery_modes.insert(toString(static_cast<RecoveryMode>(m)));
    EXPECT_EQ(recovery_modes.size(),
              static_cast<std::size_t>(kNumRecoveryModes));
    std::set<std::string> checkpoint_modes;
    for (int m = 0; m < kNumCheckpointModes; ++m)
        checkpoint_modes.insert(toString(static_cast<CheckpointMode>(m)));
    EXPECT_EQ(checkpoint_modes.size(),
              static_cast<std::size_t>(kNumCheckpointModes));
}

TEST(RecoveryPolicy, PlacementAwareTracksPolicyAndMigration)
{
    RecoveryPolicy policy = RecoveryPolicy::elastic(4);
    EXPECT_FALSE(RecordedPolicy(policy).placementAware());
    policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    EXPECT_TRUE(RecordedPolicy(policy).placementAware());
    policy.spare_placement = SparePlacementPolicy::CentralPool;
    policy.placement_migration = true;
    EXPECT_TRUE(RecordedPolicy(policy).placementAware());
}

TEST(RecoveryCostModel, CostBreakdownSumsItsComponents)
{
    CostBreakdown cost;
    cost.activation_seconds = 20.0;
    cost.reinit_seconds = 60.0;
    cost.restore_seconds = 100.0;
    cost.gather_seconds = 40.0;
    EXPECT_DOUBLE_EQ(cost.restoreCriticalSeconds(), 100.0);
    EXPECT_DOUBLE_EQ(cost.totalSeconds(), 180.0);
    cost.gather_seconds = 300.0;
    EXPECT_DOUBLE_EQ(cost.restoreCriticalSeconds(), 300.0);
    EXPECT_DOUBLE_EQ(cost.totalSeconds(), 380.0);
}

TEST(RecoveryCostModel, SpareSwapSkipsTheSchedulerRoundTrip)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(4));
    const CheckpointModel ckpt(f.model, f.cluster, f.par, f.storage);
    const RecoveryPolicy policy = RecoveryPolicy::elastic(4);
    // Swap outage = activation + re-init + state re-acquisition; the
    // re-acquisition can never beat the parallel sharded restore it
    // overlaps with.
    const double swap_s = costs.price(swapRequest()).totalSeconds();
    EXPECT_GE(swap_s, policy.spare_activation_seconds +
                          policy.swap_reinit_seconds + ckpt.loadSeconds());
    // The MegaScale point: far cheaper than the 180 s scheduler
    // re-queue a full restart pays on top of the same restore.
    const double full_restart_reinit_s = 180.0;
    EXPECT_LT(swap_s, full_restart_reinit_s + ckpt.loadSeconds());
}

TEST(RecoveryCostModel, CrossPodSwapNeverBeatsThePodLocalSwap)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(4));
    const CostBreakdown pod = costs.price(swapRequest(NetLevel::Pod));
    const CostBreakdown spine = costs.price(swapRequest(NetLevel::Spine));
    // Fixed latencies are path-independent; only the peer gather moves.
    EXPECT_DOUBLE_EQ(spine.activation_seconds, pod.activation_seconds);
    EXPECT_DOUBLE_EQ(spine.reinit_seconds, pod.reinit_seconds);
    EXPECT_DOUBLE_EQ(spine.restore_seconds, pod.restore_seconds);
    EXPECT_GE(spine.gather_seconds, pod.gather_seconds);
    EXPECT_GE(spine.totalSeconds(), pod.totalSeconds());
}

TEST(RecoveryCostModel, ShrinkPaysReShardOnTopOfReInit)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(0));
    const double shrink =
        costs.price(shrinkRequest(f.par.dp - 1)).totalSeconds();
    const RecoveryPolicy policy = RecoveryPolicy::elastic(0);
    EXPECT_GT(shrink, policy.swap_reinit_seconds);
    // Restore at the shrunk world is priced at that world's (larger)
    // per-host shards.
    EXPECT_GE(loadSecondsAt(f, f.par.dp - 1), loadSecondsAt(f, f.par.dp));
}

TEST(RecoveryCostModel, RegrowIsPricedSymmetricToShrink)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(0));
    const RecoveryPolicy policy = RecoveryPolicy::elastic(0);
    // Regrowing back to the configured width pays re-init plus the
    // larger of the re-partitioned restore and the re-admitted
    // replica's peer gather — never less than the bare re-init.
    const double regrow = costs.price(regrowRequest(f.par.dp)).totalSeconds();
    EXPECT_GT(regrow, policy.swap_reinit_seconds);
    // Symmetry with the shrink: both transitions re-init and restore,
    // so the costs live on the same scale (within an order of
    // magnitude), and a regrow to a wider world restores cheaper
    // per-host shards than the shrunk world it leaves.
    const double shrink =
        costs.price(shrinkRequest(f.par.dp - 1)).totalSeconds();
    EXPECT_LT(regrow, 10.0 * shrink);
    EXPECT_GT(regrow, 0.1 * shrink);
    EXPECT_GE(loadSecondsAt(f, f.par.dp - 1), loadSecondsAt(f, f.par.dp));
}

TEST(RecoveryCostModel, PartialRestartBeatsTheGlobalSwap)
{
    // The partial-restart path re-fetches the replacement host's shards
    // from DP-peer HBM mirrors instead of the whole fleet re-reading
    // the parallel filesystem, so it can never cost more than the
    // global-tier swap with the same fixed latencies.
    const Fixture f;
    CheckpointStorage storage = f.storage;
    storage.hier.enabled = true;
    RecoveryPolicy policy = RecoveryPolicy::elastic(4);
    policy.partial_restart = true;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, storage,
                                  policy);
    const double partial =
        costs.price(partialRestartRequest()).totalSeconds();
    EXPECT_GT(partial, policy.spare_activation_seconds +
                           policy.swap_reinit_seconds);
    EXPECT_LE(partial, costs.price(swapRequest()).totalSeconds());
    // With a cheap peer gather the bound is strict: the HBM read is
    // orders of magnitude faster than the sharded filesystem restore.
    const CheckpointModel ckpt(f.model, f.cluster, f.par, storage);
    EXPECT_LT(ckpt.hbmRestoreSeconds(), ckpt.loadSeconds());
    // A cross-pod partial restart pulls the HBM-mirror fetch through
    // the oversubscribed spine, so the pod-local path is a lower bound.
    EXPECT_LE(partial,
              costs.price(partialRestartRequest(NetLevel::Spine))
                  .totalSeconds());
}

TEST(RecoveryCostModel, MigrateHomeIsAPodLocalReJoin)
{
    const Fixture f;
    RecoveryPolicy policy = RecoveryPolicy::elastic(4);
    policy.placement_migration = true;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  policy);
    RecoveryCostRequest req;
    req.kind = RecoveryCostRequest::Kind::MigrateHome;
    const CostBreakdown cost = costs.price(req);
    // No spare activation (the repaired host is already up); the outage
    // is the re-init plus a pod-local peer gather.
    EXPECT_DOUBLE_EQ(cost.activation_seconds, 0.0);
    EXPECT_DOUBLE_EQ(cost.reinit_seconds, policy.swap_reinit_seconds);
    EXPECT_GT(cost.totalSeconds(), policy.swap_reinit_seconds);
    // Far cheaper than redoing the full swap restore.
    EXPECT_LT(cost.totalSeconds(),
              costs.price(swapRequest()).totalSeconds());
}

TEST(RecoveryCostModel, ShrinkFromLocalTierNeverCostsMore)
{
    const Fixture f;
    CheckpointStorage storage = f.storage;
    storage.hier.enabled = true;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, storage,
                                  RecoveryPolicy::elastic(0));
    const double global =
        costs.price(shrinkRequest(f.par.dp - 1)).totalSeconds();
    EXPECT_DOUBLE_EQ(
        costs.price(shrinkRequest(f.par.dp - 1, CheckpointTier::Global))
            .totalSeconds(),
        global);
    EXPECT_LE(
        costs.price(shrinkRequest(f.par.dp - 1, CheckpointTier::HbmPeer))
            .totalSeconds(),
        global);
    EXPECT_LE(
        costs.price(shrinkRequest(f.par.dp - 1, CheckpointTier::HostLocal))
            .totalSeconds(),
        global);
}

TEST(RecoveryCostModel, ShrunkLayoutDropsWholeReplicaGroups)
{
    const Fixture f;
    const ParallelismConfig shrunk =
        RecoveryCostModel::shrunkPar(f.par, 100);
    EXPECT_EQ(shrunk.dp, 100);
    EXPECT_EQ(shrunk.tp, f.par.tp);
    EXPECT_EQ(shrunk.pp, f.par.pp);
    const ClusterSpec cluster =
        RecoveryCostModel::shrunkCluster(f.cluster, shrunk);
    EXPECT_EQ(cluster.numGpus(), shrunk.worldSize());
}

TEST(RecoveryPolicyDeathTest, ValidateRejectsBadPolicies)
{
    const ClusterSpec cluster = ClusterSpec::llama3Production(16384);
    RecoveryPolicy negative;
    negative.mode = RecoveryMode::WarmSpare;
    negative.spare_hosts = -1;
    EXPECT_DEATH(negative.validate(cluster), "negative");
    RecoveryPolicy too_many = RecoveryPolicy::elastic(1 << 20);
    EXPECT_DEATH(too_many.validate(cluster), "exceeds");
    RecoveryPolicy spares_without_mode;
    spares_without_mode.spare_hosts = 4; // mode stays FullRestart
    EXPECT_DEATH(spares_without_mode.validate(cluster), "warm-spare");
    RecoveryPolicy bad_residual = RecoveryPolicy::elastic(2);
    bad_residual.rebalance_max_residual = 0.5;
    EXPECT_DEATH(bad_residual.validate(cluster), "residual");
    RecoveryPolicy bad_latency = RecoveryPolicy::elastic(2);
    bad_latency.spare_activation_seconds = -1.0;
    EXPECT_DEATH(bad_latency.validate(cluster), "non-negative");
    RecoveryPolicy regrow_without_mode;
    regrow_without_mode.allow_regrow = true; // mode stays FullRestart
    EXPECT_DEATH(regrow_without_mode.validate(cluster), "warm-spare");
    RecoveryPolicy partial_without_mode;
    partial_without_mode.partial_restart = true; // mode stays FullRestart
    EXPECT_DEATH(partial_without_mode.validate(cluster), "warm-spare");
    RecoveryPolicy migration_without_mode;
    migration_without_mode.placement_migration = true;
    EXPECT_DEATH(migration_without_mode.validate(cluster),
                 "warm-spare recovery mode");
    RecoveryPolicy placement_without_mode;
    placement_without_mode.spare_placement =
        SparePlacementPolicy::PerPodReserve;
    EXPECT_DEATH(placement_without_mode.validate(cluster),
                 "warm-spare recovery mode");
}

TEST(RecoveryCostModelDeathTest, PartialRestartRequiresHierTiers)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(4));
    EXPECT_DEATH((void)costs.price(partialRestartRequest()),
                 "hierarchical");
}

TEST(RecoveryCostModelDeathTest, RejectsImpossibleShrinks)
{
    const Fixture f;
    const RecoveryCostModel costs(f.model, f.cluster, f.par, f.storage,
                                  RecoveryPolicy::elastic(0));
    EXPECT_DEATH((void)costs.price(shrinkRequest(f.par.dp)),
                 "at least one replica");
    EXPECT_DEATH((void)costs.price(shrinkRequest(0)),
                 "at least one replica");
    EXPECT_DEATH((void)RecoveryCostModel::shrunkPar(f.par, f.par.dp + 1),
                 "shrunk dp");
    EXPECT_DEATH((void)costs.price(regrowRequest(1)), "regrow target");
    EXPECT_DEATH((void)costs.price(regrowRequest(f.par.dp + 1)),
                 "regrow target");
}

} // namespace
} // namespace llm4d
