#include "llm4d/plan/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "llm4d/cp/sharding.h"
#include "llm4d/fsdp/fsdp.h"
#include "llm4d/model/layer_cost.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/common.h"
#include "llm4d/tensor/doc_mask.h"

namespace llm4d {

namespace {

/** Schedule family tried together with a ZeRO mode (Section 3.1.3). */
struct ComboVariant
{
    ZeroMode zero;
    ScheduleKind schedule;
};

} // namespace

const char *
toString(RejectReason reason)
{
    switch (reason) {
      case RejectReason::None:
        return "";
      case RejectReason::ClusterIndivisible:
        return "tp*cp*pp does not divide the cluster";
      case RejectReason::HeadsIndivisible:
        return "tp does not divide attention heads";
      case RejectReason::SequenceIndivisible:
        return "sequence does not split into 2*cp chunks";
      case RejectReason::TooFewLayers:
        return "fewer layers than pipeline stages";
      case RejectReason::BatchIndivisible:
        return "global batch does not divide across dp";
      case RejectReason::BatchTooSmall:
        return "batch per DP group below 1 sequence";
      case RejectReason::MemoryExceeded:
        return "exceeds HBM capacity";
    }
    LLM4D_PANIC("unreachable reject reason");
}

namespace {

/**
 * What a candidate's cost reads that depends on its (tp, cp) shard alone:
 * one layer and the output head at tp, over one CP rank's causal pairs,
 * and the TP and CP exposure per layer of one micro-batch.
 */
struct ShardPrices
{
    LayerCost layer;
    LayerCost head;
    double tp_comm = 0.0;
    double cp_comm = 0.0;
};

/**
 * Price the shard of @p grid. Its rank order is [TP, CP, PP, DP], so
 * rank 0's TP and CP spans depend on tp and cp alone, and a grid of any
 * pp and dp gives the same prices.
 */
ShardPrices
priceShard(const PlanInput &in, const CollectiveModel &coll,
           const RankGrid &grid)
{
    const std::int64_t tp = grid.config().tp;
    const std::int64_t cp = grid.config().cp;
    const LayerCostModel lcm(BlockDims::fromText(in.model),
                             in.cluster.node.gpu, tp);
    const std::int64_t tokens_local = in.seq / cp;
    const DocMask causal = DocMask::causal(in.seq);
    const std::int64_t pairs =
        cp == 1 ? causal.totalPairs()
                : CpSharding(in.seq, cp).pairsOf(0, causal);

    ShardPrices shard;
    shard.layer = lcm.selfAttentionLayer(tokens_local, pairs, in.seq);
    shard.head = lcm.outputHead(tokens_local, in.model.vocab);
    if (tp > 1) {
        shard.tp_comm = 2.0 * LayerCostModel::kTpCollectivesPerLayer *
                        coll.allGather(grid.tpSpan(0),
                                       lcm.tpCollectiveShardBytes(
                                           tokens_local));
    }
    if (cp > 1) {
        const std::int64_t kv_heads_tp =
            std::max<std::int64_t>(1, in.model.kv_heads / tp);
        const std::int64_t kv_shard =
            tokens_local * 2 * 2 * kv_heads_tp * in.model.headDim();
        shard.cp_comm = coll.allGather(grid.cpSpan(0), kv_shard) +
                        coll.reduceScatter(grid.cpSpan(0), kv_shard);
    }
    return shard;
}

/**
 * Evaluate one {tp, cp, pp} x {zero, schedule} assignment. @p shard holds
 * its (tp, cp) shard's prices once a combo of that shard has passed the
 * early checks; the first such combo prices it. (Pricing earlier would
 * abort: LayerCostModel needs tp to divide the heads and CpSharding the
 * sequence to split into 2 * cp chunks.)
 */
PlanCandidate
evaluate(const PlanInput &in, const CollectiveModel &coll, std::int64_t tp,
         std::int64_t cp, std::int64_t pp, const ComboVariant &variant,
         std::optional<ShardPrices> &shard)
{
    PlanCandidate cand;
    const std::int64_t ngpu = in.cluster.numGpus();
    cand.par = ParallelismConfig{tp, cp, pp, 1};
    cand.zero = variant.zero;
    cand.schedule = variant.schedule;

    const std::int64_t model_par = tp * cp * pp;
    if (ngpu % model_par != 0) {
        cand.reject_reason = RejectReason::ClusterIndivisible;
        return cand;
    }
    cand.par.dp = ngpu / model_par;

    if (in.model.heads % tp != 0) {
        cand.reject_reason = RejectReason::HeadsIndivisible;
        return cand;
    }
    if (in.seq % (2 * cp) != 0) {
        cand.reject_reason = RejectReason::SequenceIndivisible;
        return cand;
    }
    if (in.model.num_layers + 2 < 2 * pp) {
        cand.reject_reason = RejectReason::TooFewLayers;
        return cand;
    }
    const std::int64_t gbs_seqs = in.global_batch_tokens / in.seq;
    if (gbs_seqs % cand.par.dp != 0) {
        cand.reject_reason = RejectReason::BatchIndivisible;
        return cand;
    }
    cand.bs = gbs_seqs / cand.par.dp;
    if (cand.bs < 1) {
        cand.reject_reason = RejectReason::BatchTooSmall;
        return cand;
    }
    cand.nmb = cand.bs; // mbs = 1
    const std::int64_t layers_on_rank = ceilDiv(in.model.num_layers, pp);
    cand.v = std::max<std::int64_t>(1, layers_on_rank);

    // ---- Compute + exposed comm per micro-batch. ----
    const GpuSpec &gpu = in.cluster.node.gpu;
    const RankGrid grid(cand.par);
    if (!shard)
        shard = priceShard(in, coll, grid);
    const LayerCost &layer = shard->layer;
    const LayerCost &head = shard->head;
    const double tp_comm = shard->tp_comm;
    const double cp_comm = shard->cp_comm;
    const std::int64_t tokens_local = in.seq / cp;

    const std::int64_t fsdp_shard = cand.par.dp * cp;
    const RankSpan dpcp = grid.dpCpSpan(0);
    const std::int64_t layer_param_bytes = static_cast<std::int64_t>(
        kBf16Bytes * in.model.paramsPerLayer() / static_cast<double>(tp));

    double zero3_exposed_per_layer = 0.0;
    if (cand.zero == ZeroMode::Zero3 && fsdp_shard > 1) {
        // Per-layer parameter all-gather, overlapped with one layer of
        // compute in forward and backward (the 2D-parallelism cost the
        // Section 5.1 arithmetic-intensity argument rejects).
        const double ag = coll.allGather(
            dpcp, ceilDiv(layer_param_bytes, fsdp_shard));
        zero3_exposed_per_layer =
            overlapComm(ag, layer.fwd_seconds).exposed_seconds +
            overlapComm(ag, layer.bwd_seconds).exposed_seconds;
    }

    const double mb_compute =
        static_cast<double>(in.model.num_layers) / pp *
            (layer.fwd_seconds + layer.bwd_seconds + tp_comm + cp_comm +
             zero3_exposed_per_layer) +
        (head.fwd_seconds + head.bwd_seconds) / pp;

    // ---- Step time. ----
    const ScheduleParams sp{pp, cand.v, cand.nmb,
                            std::min(cand.nmb, pp)};
    cand.bubble_ratio = analyticBubbleRatio(sp);
    double step = static_cast<double>(cand.nmb) * mb_compute *
                  (1.0 + cand.bubble_ratio);
    double exposed_fsdp = 0.0;
    if (fsdp_shard > 1 && cand.zero != ZeroMode::Zero3) {
        // First all-gather and last reduce-scatter have no compute cover.
        exposed_fsdp =
            coll.allGather(dpcp, ceilDiv(layer_param_bytes, fsdp_shard)) +
            coll.reduceScatter(dpcp,
                               ceilDiv(2 * layer_param_bytes, fsdp_shard));
        if (cand.zero == ZeroMode::Zero2) {
            // ZeRO-2 reduce-scatters every stage's gradients once per
            // consecutive-micro-batch round (Fig. 4c); the extra rounds
            // contend with P2P on the NICs and are partially exposed.
            const std::int64_t rounds = ceilDiv(cand.nmb, sp.nc);
            const double rs_stage = coll.reduceScatter(
                dpcp, ceilDiv(2 * layer_param_bytes, fsdp_shard * cand.v));
            exposed_fsdp += kZero2RsExposedShare * rs_stage *
                            static_cast<double>(cand.v) *
                            static_cast<double>(std::max<std::int64_t>(
                                0, rounds - 1));
        }
    }
    step += exposed_fsdp;
    cand.est_step_seconds = step;
    const double comm_per_mb =
        static_cast<double>(in.model.num_layers) / pp *
        (tp_comm + cp_comm + zero3_exposed_per_layer);
    cand.exposed_comm_fraction =
        (static_cast<double>(cand.nmb) * comm_per_mb + exposed_fsdp) /
        step;

    // ---- Memory. ----
    const MemoryModel mem(in.model, tp, fsdp_shard, cand.zero);
    const std::int64_t in_flight =
        variant.schedule == ScheduleKind::AllForwardAllBackward ||
                cand.zero == ZeroMode::Zero3
            ? sp.tmb() // AFAB holds every activation
            : std::min(sp.tmb(), flexibleWarmup(sp, 0) + 1);
    const MemoryBreakdown peak = mem.rankPeak(
        layers_on_rank, /*stage_layers=*/1,
        static_cast<double>(in_flight), tokens_local,
        /*embed=*/true, /*head=*/pp == 1, ActivationMode::Full);
    cand.est_memory_gib = peak.totalGib();
    if (!(peak.totalGib() <= gpu.hbm_capacity_gib * 0.94)) {
        cand.reject_reason = RejectReason::MemoryExceeded;
        return cand;
    }

    // ---- Throughput. ----
    const double flops_per_rank =
        (static_cast<double>(cand.nmb) *
         (static_cast<double>(in.model.num_layers) / pp *
              (layer.fwd_flops + layer.bwd_flops) +
          (head.fwd_flops + head.bwd_flops) / pp));
    cand.est_tflops_per_gpu = flops_per_rank / step / 1e12;
    cand.feasible = true;
    return cand;
}

} // namespace

std::vector<PlanCandidate>
enumeratePlans(const PlanInput &in)
{
    const Topology topo(in.cluster);
    const CollectiveModel coll(topo);
    std::vector<PlanCandidate> out;
    for (std::int64_t tp : in.tp_options) {
        for (std::int64_t cp : in.cp_options) {
            std::optional<ShardPrices> shard;
            for (std::int64_t pp : in.pp_options) {
                if (pp == 1) {
                    // 2D parallelism needs ZeRO-3 to fit the parameters.
                    out.push_back(evaluate(
                        in, coll, tp, cp, pp,
                        ComboVariant{ZeroMode::Zero3,
                                     ScheduleKind::Flexible},
                        shard));
                    continue;
                }
                // Section 3.1.3: both combinations are real options; let
                // the cost/memory models arbitrate.
                out.push_back(evaluate(
                    in, coll, tp, cp, pp,
                    ComboVariant{ZeroMode::Zero1, ScheduleKind::Flexible},
                    shard));
                out.push_back(evaluate(
                    in, coll, tp, cp, pp,
                    ComboVariant{ZeroMode::Zero2,
                                 ScheduleKind::AllForwardAllBackward},
                    shard));
            }
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const PlanCandidate &a, const PlanCandidate &b) {
                         if (a.feasible != b.feasible)
                             return a.feasible;
                         if (!a.feasible)
                             return false;
                         return a.est_step_seconds < b.est_step_seconds;
                     });
    return out;
}

std::optional<PlanCandidate>
tryPreferredPlan(const std::vector<PlanCandidate> &plans)
{
    if (plans.empty() || !plans.front().feasible)
        return std::nullopt;
    // Estimates this close are within the model's error bars; apply the
    // paper's stated preferences among near-ties (Section 5.1): a batch
    // of at least pp micro-batches per DP group is "strongly preferred
    // for PP efficiency"; use the least context parallelism that works
    // (CP exists for long context); prefer ZeRO-1's cheaper
    // communication; prefer less model parallelism.
    constexpr double kWindow = 1.15;
    const double cutoff = plans.front().est_step_seconds * kWindow;
    const PlanCandidate *best = &plans.front();
    for (const PlanCandidate &cand : plans) {
        if (!cand.feasible || cand.est_step_seconds > cutoff)
            continue;
        const auto key = [](const PlanCandidate &c) {
            return std::make_tuple(c.bs < c.par.pp, c.par.cp,
                                   c.zero != ZeroMode::Zero1,
                                   c.par.pp * c.par.tp,
                                   c.est_step_seconds);
        };
        if (key(cand) < key(*best))
            best = &cand;
    }
    return *best;
}

std::optional<PlanCandidate>
tryBestPlan(const PlanInput &in)
{
    return tryPreferredPlan(enumeratePlans(in));
}

} // namespace llm4d
