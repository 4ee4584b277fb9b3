#include "llm4d/fault/recovery_policy.h"

#include <algorithm>

#include "llm4d/model/memory_model.h"
#include "llm4d/net/collective.h"
#include "llm4d/net/topology.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

const char *
toString(RecoveryMode mode)
{
    switch (mode) {
      case RecoveryMode::FullRestart:
        return "full-restart";
      case RecoveryMode::WarmSpare:
        return "warm-spare";
    }
    LLM4D_PANIC("unreachable recovery mode");
}

const char *
toString(CheckpointMode mode)
{
    switch (mode) {
      case CheckpointMode::Sync:
        return "sync";
      case CheckpointMode::Async:
        return "async";
    }
    LLM4D_PANIC("unreachable checkpoint mode");
}

RecoveryPolicy
RecoveryPolicy::elastic(std::int64_t spares)
{
    RecoveryPolicy policy;
    policy.mode = RecoveryMode::WarmSpare;
    policy.spare_hosts = spares;
    policy.allow_dp_shrink = true;
    policy.checkpoint_mode = CheckpointMode::Async;
    policy.straggler_rebalance = true;
    return policy;
}

void
RecoveryPolicy::validate(const ClusterSpec &cluster) const
{
    LLM4D_CHECK(spare_hosts >= 0, "spare pool size cannot be negative");
    LLM4D_CHECK(spare_hosts <= cluster.num_nodes,
                "spare pool of " << spare_hosts
                                 << " hosts exceeds the cluster's "
                                 << cluster.num_nodes << " hosts");
    LLM4D_CHECK(mode == RecoveryMode::WarmSpare || spare_hosts == 0,
                "spare hosts require the warm-spare recovery mode");
    LLM4D_CHECK(mode == RecoveryMode::WarmSpare || !allow_regrow,
                "regrow requires the warm-spare recovery mode");
    LLM4D_CHECK(mode == RecoveryMode::WarmSpare || !partial_restart,
                "partial restart requires the warm-spare recovery mode");
    LLM4D_CHECK(mode == RecoveryMode::WarmSpare || !placement_migration,
                "placement migration requires the warm-spare recovery mode");
    LLM4D_CHECK(mode == RecoveryMode::WarmSpare ||
                    spare_placement == SparePlacementPolicy::CentralPool,
                "non-central spare placement requires the warm-spare "
                "recovery mode");
    LLM4D_CHECK(spare_activation_seconds >= 0.0 &&
                    swap_reinit_seconds >= 0.0,
                "spare swap latencies must be non-negative");
    LLM4D_CHECK(rebalance_seconds >= 0.0,
                "rebalance latency must be non-negative");
    LLM4D_CHECK(rebalance_max_residual >= 1.0,
                "rebalance residual threshold is a multiplier >= 1");
}

const char *
toString(PolicyKnob knob)
{
    switch (knob) {
      case PolicyKnob::Mode:
        return "recovery-mode";
      case PolicyKnob::SpareHosts:
        return "spare-hosts";
      case PolicyKnob::SparePlacement:
        return "spare-placement";
      case PolicyKnob::PlacementMigration:
        return "placement-migration";
      case PolicyKnob::AllowDpShrink:
        return "dp-shrink";
      case PolicyKnob::AllowRegrow:
        return "regrow";
      case PolicyKnob::PartialRestart:
        return "partial-restart";
    }
    LLM4D_PANIC("unreachable policy knob");
}

bool
sharesRun(const RecoveryPolicy &run_policy, const PolicyFootprint &footprint,
          const RecoveryPolicy &policy)
{
    // Adopt the run's value of every knob it never read; whatever still
    // differs is a knob it read or a field no footprint covers.
    RecoveryPolicy unread = policy;
    if (!footprint.contains(PolicyKnob::Mode))
        unread.mode = run_policy.mode;
    if (!footprint.contains(PolicyKnob::SpareHosts))
        unread.spare_hosts = run_policy.spare_hosts;
    if (!footprint.contains(PolicyKnob::SparePlacement))
        unread.spare_placement = run_policy.spare_placement;
    if (!footprint.contains(PolicyKnob::PlacementMigration))
        unread.placement_migration = run_policy.placement_migration;
    if (!footprint.contains(PolicyKnob::AllowDpShrink))
        unread.allow_dp_shrink = run_policy.allow_dp_shrink;
    if (!footprint.contains(PolicyKnob::AllowRegrow))
        unread.allow_regrow = run_policy.allow_regrow;
    if (!footprint.contains(PolicyKnob::PartialRestart))
        unread.partial_restart = run_policy.partial_restart;
    return unread == run_policy;
}

RecoveryMode
RecordedPolicy::mode()
{
    footprint_.add(PolicyKnob::Mode);
    return policy_.mode;
}

bool
RecordedPolicy::placementMigration()
{
    footprint_.add(PolicyKnob::PlacementMigration);
    return policy_.placement_migration;
}

bool
RecordedPolicy::allowDpShrink()
{
    footprint_.add(PolicyKnob::AllowDpShrink);
    return policy_.allow_dp_shrink;
}

bool
RecordedPolicy::allowRegrow()
{
    footprint_.add(PolicyKnob::AllowRegrow);
    return policy_.allow_regrow;
}

bool
RecordedPolicy::partialRestart()
{
    footprint_.add(PolicyKnob::PartialRestart);
    return policy_.partial_restart;
}

bool
RecordedPolicy::placementAware()
{
    footprint_.add(PolicyKnob::SparePlacement);
    return policy_.spare_placement != SparePlacementPolicy::CentralPool ||
           placementMigration();
}

SparePool
RecordedPolicy::sparePool(const ClusterSpec &cluster)
{
    footprint_.add(PolicyKnob::SpareHosts);
    return SparePool(cluster, policy_.spare_placement, policy_.spare_hosts);
}

double
CostBreakdown::restoreCriticalSeconds() const
{
    return std::max(restore_seconds, gather_seconds);
}

double
CostBreakdown::totalSeconds() const
{
    return activation_seconds + reinit_seconds + restoreCriticalSeconds();
}

RecoveryCostModel::RecoveryCostModel(const ModelConfig &model,
                                     const ClusterSpec &cluster,
                                     const ParallelismConfig &par,
                                     CheckpointStorage storage,
                                     RecoveryPolicy policy)
    : model_(model), cluster_(cluster), par_(par), storage_(storage),
      policy_(policy),
      bf16_bytes_per_mp_rank_(kBf16Bytes *
                              static_cast<double>(model_.totalParams()) /
                              static_cast<double>(par_.modelParallelSize())),
      state_bytes_per_mp_rank_(kOptimizerBytesPerParam *
                               static_cast<double>(model_.totalParams()) /
                               static_cast<double>(par_.modelParallelSize()))
{
    policy_.validate(cluster_);
    const CheckpointModel ckpt(model_, cluster_, par_, storage_);
    swap_load_seconds_ = ckpt.loadSeconds();
    if (storage_.hier.enabled)
        hbm_restore_seconds_ = ckpt.hbmRestoreSeconds();
    // The whole fleet restores from the last checkpoint in parallel
    // (the spare included); meanwhile the spare's ranks pull the
    // replicated BF16 working weights from their FSDP peers. The two
    // re-acquisition paths overlap, so the longer one bounds the swap.
    if (par_.dp * par_.cp > 1) {
        const Topology topo(cluster_);
        const CollectiveModel coll(topo);
        const RankGrid grid(par_);
        const std::int64_t group = par_.dp * par_.cp;
        const auto peer_shard = static_cast<std::int64_t>(
            bf16_bytes_per_mp_rank_ / static_cast<double>(group));
        weights_fetch_seconds_ = coll.gatherTo(grid.dpCpSpan(0), peer_shard);
        // Cross-pod spare: the same gather, but every byte funnels into
        // the replacement through the oversubscribed spine.
        weights_fetch_spine_seconds_ =
            coll.gatherToAtLevel(NetLevel::Spine, group, peer_shard);
        // Homecoming of a displaced rank: it lands on a repaired host in
        // its own pod and re-gathers its full FSDP state (BF16 weights +
        // its ZeRO shard) pod-locally, like a regrow fetch at full width.
        const auto home_bytes = static_cast<std::int64_t>(
            (bf16_bytes_per_mp_rank_ + state_bytes_per_mp_rank_) /
            static_cast<double>(group));
        migrate_home_gather_seconds_ =
            coll.gatherToAtLevel(NetLevel::Pod, group, home_bytes);
    }
}

CostBreakdown
RecoveryCostModel::price(const RecoveryCostRequest &req) const
{
    switch (req.kind) {
      case RecoveryCostRequest::Kind::SpareSwap:
      case RecoveryCostRequest::Kind::PartialRestart:
        return priceSwap(req);
      case RecoveryCostRequest::Kind::Shrink:
        return priceShrink(req);
      case RecoveryCostRequest::Kind::Regrow:
        return priceRegrow(req);
      case RecoveryCostRequest::Kind::MigrateHome:
        return priceMigrateHome();
    }
    LLM4D_PANIC("unreachable recovery cost request kind");
}

CostBreakdown
RecoveryCostModel::priceSwap(const RecoveryCostRequest &req) const
{
    const bool cross_pod = req.spare_path == NetLevel::Spine;
    CostBreakdown cost;
    cost.activation_seconds = policy_.spare_activation_seconds;
    cost.reinit_seconds = policy_.swap_reinit_seconds;
    cost.gather_seconds =
        cross_pod ? weights_fetch_spine_seconds_ : weights_fetch_seconds_;
    if (req.kind == RecoveryCostRequest::Kind::PartialRestart) {
        LLM4D_CHECK(storage_.hier.enabled,
                    "partial restart requires hierarchical checkpoint "
                    "tiers");
        // Only the replacement ranks re-fetch state — checkpoint shards
        // from their DP-peer HBM mirrors, BF16 weights from their FSDP
        // peers — while survivors reload in-HBM snapshots underneath.
        // A cross-pod replacement streams the peer mirrors through the
        // spine instead of pod RoCE, so the read slows by the
        // oversubscription ratio.
        cost.restore_seconds =
            cross_pod ? hbm_restore_seconds_ * cluster_.spine_oversubscription
                      : hbm_restore_seconds_;
        return cost;
    }
    // Global-tier swap: the fleet-wide filesystem restore is placement-
    // independent; only the peer gather sees the spare's path.
    cost.restore_seconds = swap_load_seconds_;
    return cost;
}

CostBreakdown
RecoveryCostModel::priceShrink(const RecoveryCostRequest &req) const
{
    const std::int64_t to_dp = req.to_dp;
    LLM4D_CHECK(to_dp >= 1 && to_dp < par_.dp,
                "shrink target must drop at least one replica");
    const ParallelismConfig par = shrunkPar(par_, to_dp);
    const ClusterSpec cluster = shrunkCluster(cluster_, par);
    const CheckpointModel ckpt(model_, cluster, par, storage_);
    CostBreakdown cost;
    cost.reinit_seconds = policy_.swap_reinit_seconds;
    cost.restore_seconds = ckpt.tierRestoreSeconds(req.restore_tier);
    // Survivors re-partition the dropped replica's ZeRO shards: each
    // member of the (now smaller) dp*cp group grows its optimizer shard
    // and gathers the delta from peers while the sharded restore runs.
    if (par.dp * par.cp > 1) {
        const Topology topo(cluster);
        const CollectiveModel coll(topo);
        const RankGrid grid(par);
        const double old_members =
            static_cast<double>((to_dp + 1) * par.cp);
        const double new_members = static_cast<double>(to_dp * par.cp);
        const auto delta_bytes = static_cast<std::int64_t>(
            state_bytes_per_mp_rank_ *
            (1.0 / new_members - 1.0 / old_members));
        cost.gather_seconds = coll.gatherTo(grid.dpCpSpan(0), delta_bytes);
    }
    return cost;
}

CostBreakdown
RecoveryCostModel::priceRegrow(const RecoveryCostRequest &req) const
{
    const std::int64_t to_dp = req.to_dp;
    LLM4D_CHECK(to_dp >= 2 && to_dp <= par_.dp,
                "regrow target must add at least one replica and stay "
                "within the configured dp of "
                    << par_.dp);
    const ParallelismConfig par = shrunkPar(par_, to_dp);
    const ClusterSpec cluster = shrunkCluster(cluster_, par);
    const CheckpointModel ckpt(model_, cluster, par, storage_);
    CostBreakdown cost;
    cost.reinit_seconds = policy_.swap_reinit_seconds;
    cost.restore_seconds = ckpt.loadSeconds();
    // The re-admitted replica arrives stateless: its ranks gather the
    // replicated BF16 working weights plus their newly assigned ZeRO
    // optimizer shard from FSDP peers while the whole (larger) fleet
    // re-partitions via the sharded restore. The longer path bounds the
    // outage; NCCL re-initializes at the regrown world either way.
    if (par.dp * par.cp > 1) {
        const Topology topo(cluster);
        const CollectiveModel coll(topo);
        const RankGrid grid(par);
        const double new_members = static_cast<double>(to_dp * par.cp);
        const auto fetch_bytes = static_cast<std::int64_t>(
            (bf16_bytes_per_mp_rank_ + state_bytes_per_mp_rank_) /
            new_members);
        cost.gather_seconds = coll.gatherTo(grid.dpCpSpan(0), fetch_bytes);
    }
    return cost;
}

CostBreakdown
RecoveryCostModel::priceMigrateHome() const
{
    // No spare activation (the repaired host is already warm and
    // checked) and no checkpoint read (the migration happens at a
    // durable boundary; the rank's state is regenerated from peers).
    CostBreakdown cost;
    cost.reinit_seconds = policy_.swap_reinit_seconds;
    cost.gather_seconds = migrate_home_gather_seconds_;
    return cost;
}

ParallelismConfig
RecoveryCostModel::shrunkPar(const ParallelismConfig &par, std::int64_t dp)
{
    LLM4D_CHECK(dp >= 1 && dp <= par.dp,
                "shrunk dp must be in [1, " << par.dp << "]");
    ParallelismConfig shrunk = par;
    shrunk.dp = dp;
    return shrunk;
}

ClusterSpec
RecoveryCostModel::shrunkCluster(const ClusterSpec &cluster,
                                 const ParallelismConfig &par)
{
    const std::int64_t world = par.worldSize();
    LLM4D_CHECK(world % cluster.node.gpus_per_node == 0,
                "shrunk world of " << world
                                   << " GPUs does not fill whole hosts");
    ClusterSpec shrunk = cluster;
    shrunk.num_nodes = world / cluster.node.gpus_per_node;
    return shrunk;
}

} // namespace llm4d
