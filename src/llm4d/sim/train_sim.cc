#include "llm4d/sim/train_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "llm4d/cp/sharding.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng_streams.h"
#include "llm4d/tensor/doc_mask.h"

namespace llm4d {

double
TrainStepReport::maxMemoryGib() const
{
    double peak = 0.0;
    for (const MemoryBreakdown &mb : pp_rank_memory)
        peak = std::max(peak, mb.totalGib());
    return peak;
}

bool
TrainStepReport::fits(double capacity_gib, double headroom) const
{
    return maxMemoryGib() <= capacity_gib * headroom;
}

namespace {

/** @p cfg after the checks every job must pass. */
TrainJobConfig
validated(TrainJobConfig cfg)
{
    cfg.par.validate();
    LLM4D_CHECK(cfg.par.worldSize() == cfg.cluster.numGpus(),
                "parallelism " << cfg.par.str() << " ("
                               << cfg.par.worldSize()
                               << " GPUs) does not match cluster of "
                               << cfg.cluster.numGpus());
    LLM4D_CHECK(cfg.global_batch_tokens % cfg.seq == 0,
                "global batch tokens must be whole sequences");
    const std::int64_t gbs_seqs = cfg.global_batch_tokens / cfg.seq;
    LLM4D_CHECK(gbs_seqs % cfg.par.dp == 0,
                "global batch of " << gbs_seqs
                                   << " sequences must divide across dp="
                                   << cfg.par.dp);
    LLM4D_CHECK(gbs_seqs / cfg.par.dp % cfg.mbs == 0,
                "bs must divide into micro-batches");
    LLM4D_CHECK(cfg.seq % (2 * cfg.par.cp) == 0,
                "sequence must split into 2*cp chunks");
    LLM4D_CHECK(cfg.model.heads % cfg.par.tp == 0,
                "tp must divide attention heads");
    return cfg;
}

StageAssignment
makeAssignment(const TrainJobConfig &cfg, std::int64_t v)
{
    if (cfg.balanced_layers)
        return StageAssignment::balanced(cfg.model.num_layers, cfg.par.pp,
                                         v);
    return StageAssignment::uniform(cfg.model.num_layers, cfg.par.pp, v);
}

/** One transformer layer per virtual stage. */
std::int64_t
deriveVirtualStages(const TrainJobConfig &cfg)
{
    return std::max<std::int64_t>(
        1, ceilDiv(cfg.model.num_layers, cfg.par.pp));
}

LegalSchedule
buildSchedule(const TrainJobConfig &cfg, std::int64_t v, std::int64_t nmb)
{
    ScheduleParams sp;
    sp.pp = cfg.par.pp;
    sp.v = v;
    sp.nmb = nmb;
    sp.nc = cfg.nc > 0 ? cfg.nc : std::min(nmb, cfg.par.pp);
    switch (cfg.schedule) {
      case ScheduleKind::Interleaved1F1B:
        return LegalSchedule::check(buildInterleaved1F1B(sp));
      case ScheduleKind::AllForwardAllBackward:
        return LegalSchedule::check(buildAllForwardAllBackward(sp));
      case ScheduleKind::Flexible:
        return LegalSchedule::check(buildFlexible(sp));
    }
    LLM4D_PANIC("unreachable schedule kind");
}

} // namespace

TrainSim::TrainSim(TrainJobConfig job)
    : cfg_(validated(std::move(job))),
      bs_(cfg_.global_batch_tokens / cfg_.seq / cfg_.par.dp),
      nmb_(bs_ / cfg_.mbs), v_(deriveVirtualStages(cfg_)),
      assignment_(makeAssignment(cfg_, v_)),
      schedule_(buildSchedule(cfg_, v_, nmb_))
{
    const TrainJobConfig &cfg = cfg_;
    const Topology topo(cfg.cluster);
    const CollectiveModel coll(topo);
    const RankGrid grid(cfg.par);
    const LayerCostModel lcm(BlockDims::fromText(cfg.model),
                             cfg.cluster.node.gpu, cfg.par.tp);
    const KernelModel &kernels = lcm.kernels();

    // ---- Workload per micro-batch on one rank. ----
    const std::int64_t tokens_local = cfg.mbs * cfg.seq / cfg.par.cp;
    const std::int64_t kv_tokens = cfg.seq;

    // Attention pairs per micro-batch for this rank's CP shard. With a
    // document mask, the step is bounded by the slowest CP rank, so we
    // price the worst shard of each sampled mask (Section 4).
    std::vector<double> mb_pairs(static_cast<std::size_t>(nmb_));
    {
        Rng rng(cfg.seed, rng_streams::kDocMaskSampleStream);
        const CpSharding sharding(cfg.seq, cfg.par.cp);
        for (std::int64_t m = 0; m < nmb_; ++m) {
            DocMask mask =
                cfg.doc_mask_mean > 0.0
                    ? DocMask::sample(cfg.seq, cfg.doc_mask_mean, rng)
                    : DocMask::causal(cfg.seq);
            std::int64_t pairs = 0;
            if (cfg.par.cp == 1) {
                pairs = mask.totalPairs();
            } else {
                for (std::int64_t r = 0; r < cfg.par.cp; ++r)
                    pairs = std::max(pairs, sharding.pairsOf(r, mask));
            }
            mb_pairs[static_cast<std::size_t>(m)] =
                static_cast<double>(pairs) * cfg.mbs;
        }
    }

    // ---- Per-layer communication (exposed on the critical path). ----
    const RankSpan tp_group = grid.tpSpan(0);
    const RankSpan cp_group = grid.cpSpan(0);
    double tp_comm_layer_fwd = 0.0;
    if (cfg.par.tp > 1) {
        tp_comm_layer_fwd =
            LayerCostModel::kTpCollectivesPerLayer *
            coll.allGather(tp_group,
                           lcm.tpCollectiveShardBytes(tokens_local));
    }
    const double tp_comm_layer_bwd = tp_comm_layer_fwd;
    double cp_comm_layer_fwd = 0.0;
    double cp_comm_layer_bwd = 0.0;
    if (cfg.par.cp > 1) {
        const std::int64_t kv_heads_tp = std::max<std::int64_t>(
            1, cfg.model.kv_heads / cfg.par.tp);
        const std::int64_t kv_shard_bytes =
            tokens_local * 2 * 2 * kv_heads_tp * cfg.model.headDim();
        cp_comm_layer_fwd = coll.allGather(cp_group, kv_shard_bytes);
        cp_comm_layer_bwd = coll.reduceScatter(cp_group, kv_shard_bytes);
    }

    // ---- Base stage costs (micro-batch-independent parts). ----
    const std::int64_t ref_pairs = static_cast<std::int64_t>(mb_pairs[0]);
    const LayerCost layer_ref =
        lcm.selfAttentionLayer(tokens_local, ref_pairs, kv_tokens);
    // Recompute modes: part or all of the forward reruns in backward.
    const double recompute_factor =
        cfg.act == ActivationMode::Recompute
            ? 1.0
            : (cfg.act == ActivationMode::Selective ? 0.5 : 0.0);

    stage_work_.resize(static_cast<std::size_t>(cfg.par.pp * v_));
    double total_fwd_flops = 0.0, total_bwd_flops = 0.0;
    for (std::int64_t r = 0; r < cfg.par.pp; ++r) {
        for (std::int64_t s = 0; s < v_; ++s) {
            const StageContents &contents = assignment_.stage(r, s);
            LayerCost cost = layer_ref.scaled(
                static_cast<double>(contents.layers));
            double fwd_comm =
                static_cast<double>(contents.layers) *
                (tp_comm_layer_fwd + cp_comm_layer_fwd);
            double bwd_comm =
                static_cast<double>(contents.layers) *
                (tp_comm_layer_bwd + cp_comm_layer_bwd);
            if (contents.embedding)
                cost += lcm.embedding(tokens_local, cfg.model.vocab);
            if (contents.head) {
                cost += lcm.outputHead(tokens_local, cfg.model.vocab);
                if (cfg.par.tp > 1) {
                    // Vocabulary-parallel head: one extra collective.
                    fwd_comm += coll.allGather(
                        tp_group, lcm.tpCollectiveShardBytes(tokens_local));
                }
            }
            StageCost &work =
                stage_work_[static_cast<std::size_t>(r * v_ + s)];
            work.fwd_seconds = cost.fwd_seconds + fwd_comm;
            work.bwd_seconds = cost.bwd_seconds + bwd_comm +
                               recompute_factor * cost.fwd_seconds;
            total_fwd_flops += cost.fwd_flops;
            total_bwd_flops += cost.bwd_flops;
        }
    }
    // Per-micro-batch attention scaling relative to the reference mask.
    mb_fwd_scale_.assign(static_cast<std::size_t>(nmb_), 1.0);
    mb_bwd_scale_.assign(static_cast<std::size_t>(nmb_), 1.0);
    if (cfg.doc_mask_mean > 0.0) {
        // Attention share of the reference layer forward/backward.
        const std::int64_t heads_tp = cfg.model.heads / cfg.par.tp;
        const std::int64_t kv_heads_tp = std::max<std::int64_t>(
            1, cfg.model.kv_heads / cfg.par.tp);
        const double attn_fwd_ref = kernels.attentionTime(
            ref_pairs, tokens_local, kv_tokens, heads_tp, kv_heads_tp,
            cfg.model.headDim());
        const double attn_bwd_ref = kernels.attentionBackwardTime(
            ref_pairs, tokens_local, kv_tokens, heads_tp, kv_heads_tp,
            cfg.model.headDim());
        for (std::int64_t m = 0; m < nmb_; ++m) {
            const auto pairs = static_cast<std::int64_t>(
                mb_pairs[static_cast<std::size_t>(m)]);
            const double dfwd =
                kernels.attentionTime(pairs, tokens_local, kv_tokens,
                                      heads_tp, kv_heads_tp,
                                      cfg.model.headDim()) -
                attn_fwd_ref;
            const double dbwd =
                kernels.attentionBackwardTime(pairs, tokens_local,
                                              kv_tokens, heads_tp,
                                              kv_heads_tp,
                                              cfg.model.headDim()) -
                attn_bwd_ref;
            mb_fwd_scale_[static_cast<std::size_t>(m)] =
                1.0 + dfwd / std::max(1e-12, layer_ref.fwd_seconds);
            mb_bwd_scale_[static_cast<std::size_t>(m)] =
                1.0 + dbwd / std::max(1e-12, layer_ref.bwd_seconds);
        }
    }

    // ---- Boundary-tensor P2P between neighbouring stages. ----
    // FSDP collectives congest PP P2P when both use the NICs.
    const bool fsdp_active = cfg.par.dp * cfg.par.cp > 1;
    const double congestion = p2pCongestionFactor(fsdp_active);
    const std::int64_t boundary_bytes =
        2 * tokens_local * cfg.model.hidden / cfg.par.tp;
    const std::int64_t pp = cfg.par.pp;
    auto p2p = [&](std::int64_t from, std::int64_t to) {
        const std::int64_t src = grid.rankOf(RankCoord{0, 0, from, 0});
        const std::int64_t dst = grid.rankOf(RankCoord{0, 0, to, 0});
        return coll.p2p(src, dst, boundary_bytes) * congestion;
    };
    for (std::int64_t r = 0; r < pp; ++r) {
        p2p_from_prev_.push_back(p2p((r + pp - 1) % pp, r));
        p2p_from_next_.push_back(p2p((r + 1) % pp, r));
    }

    // ---- FSDP exposure and optimizer. ----
    const std::int64_t fsdp_shard = cfg.par.dp * cfg.par.cp;
    const RankSpan dpcp_group = grid.dpCpSpan(0);
    double exposed_fsdp = 0.0;
    if (fsdp_shard > 1) {
        // First parameter all-gather (one stage) has nothing to hide
        // behind; the last gradient reduce-scatter likewise.
        const std::int64_t max_stage_layers = assignment_.maxStageLayers();
        const std::int64_t stage_params_bytes = static_cast<std::int64_t>(
            kBf16Bytes * static_cast<double>(max_stage_layers) *
            cfg.model.paramsPerLayer() / cfg.par.tp);
        FsdpTraffic traffic;
        traffic.param_bytes = stage_params_bytes;
        traffic.shard_degree = fsdp_shard;
        traffic.mode = cfg.zero;
        exposed_fsdp =
            coll.allGather(dpcp_group, traffic.allGatherShardBytes()) +
            coll.reduceScatter(dpcp_group,
                               traffic.reduceScatterShardBytes());
        if (cfg.zero == ZeroMode::Zero2) {
            // ZeRO-2 reduce-scatters every stage once per consecutive
            // round (Fig. 4c); the extra rounds contend with P2P traffic
            // and end up partially exposed (Section 3.1.3).
            const std::int64_t rounds =
                ceilDiv(nmb_, schedule_.params().nc);
            exposed_fsdp +=
                kZero2RsExposedShare *
                coll.reduceScatter(dpcp_group,
                                   traffic.reduceScatterShardBytes()) *
                static_cast<double>(v_) *
                static_cast<double>(
                    std::max<std::int64_t>(0, rounds - 1));
        }
    }
    const double params_per_rank =
        static_cast<double>(assignment_.layersOnRank(0)) *
        cfg.model.paramsPerLayer() / cfg.par.tp;
    const double optimizer_seconds = kernels.elementwiseTime(
        static_cast<std::int64_t>(kOptimizerBytesPerParam * params_per_rank /
                                  fsdp_shard));

    // ---- The report fields no PerfVariation changes. ----
    TrainStepReport &rep = invariant_report_;
    rep.bs = bs_;
    rep.nmb = nmb_;
    rep.v = v_;
    rep.exposed_tp_seconds =
        (tp_comm_layer_fwd + tp_comm_layer_bwd) *
        static_cast<double>(assignment_.layersOnRank(0)) *
        static_cast<double>(nmb_);
    rep.exposed_cp_seconds =
        (cp_comm_layer_fwd + cp_comm_layer_bwd) *
        static_cast<double>(assignment_.layersOnRank(0)) *
        static_cast<double>(nmb_);
    rep.exposed_fsdp_seconds = exposed_fsdp;
    rep.optimizer_seconds = optimizer_seconds;

    // Useful FLOPs per GPU: mean across pipeline ranks of per-step work.
    flops_per_rank_step_ =
        (total_fwd_flops + total_bwd_flops) /
        static_cast<double>(cfg.par.pp) * static_cast<double>(nmb_);
}

ExecPrices
TrainSim::prices(const PerfVariation &perf) const
{
    const RankGrid grid(cfg_.par);
    const std::int64_t pp = cfg_.par.pp;

    // Stage work at the speed of each PP coordinate's representative
    // global rank, scaled per micro-batch.
    ExecPrices prices;
    prices.stage.resize(static_cast<std::size_t>(pp * v_ * nmb_));
    for (std::int64_t r = 0; r < pp; ++r) {
        const double speed =
            perf.speedOf(grid.rankOf(RankCoord{0, 0, r, 0}));
        for (std::int64_t s = 0; s < v_; ++s) {
            StageCost base =
                stage_work_[static_cast<std::size_t>(r * v_ + s)];
            base.fwd_seconds /= speed;
            base.bwd_seconds /= speed;
            const std::int64_t g = s * pp + r; // Schedule::globalStage
            for (std::int64_t mb = 0; mb < nmb_; ++mb) {
                const auto m = static_cast<std::size_t>(mb);
                prices.stage[static_cast<std::size_t>(g * nmb_ + mb)] =
                    StageCost{base.fwd_seconds * mb_fwd_scale_[m],
                              base.bwd_seconds * mb_bwd_scale_[m]};
            }
        }
    }
    prices.p2p_from_prev = p2p_from_prev_;
    prices.p2p_from_next = p2p_from_next_;
    return prices;
}

double
TrainSim::stepSecondsAt(Time makespan) const
{
    return timeToSeconds(makespan) + invariant_report_.exposed_fsdp_seconds +
           invariant_report_.optimizer_seconds;
}

double
TrainSim::stepSeconds(const PerfVariation &perf) const
{
    return stepSecondsAt(timeMakespan(schedule_, prices(perf)));
}

TrainStepReport
TrainSim::run(const PerfVariation &perf) const
{
    const TrainJobConfig &cfg = cfg_;
    const std::int64_t pp = cfg.par.pp;
    const ExecTiming exec = timeSchedule(schedule_, prices(perf));

    TrainStepReport rep = invariant_report_;
    rep.step_seconds = stepSecondsAt(exec.makespan);
    rep.bubble_ratio = exec.overallBubbleRatio();
    rep.tflops_per_gpu = flops_per_rank_step_ / rep.step_seconds / 1e12;
    rep.mfu = rep.tflops_per_gpu /
              cfg.cluster.node.gpu.peak_bf16_tflops;

    // Memory per PP rank.
    const std::int64_t fsdp_shard = cfg.par.dp * cfg.par.cp;
    const MemoryModel mem(cfg.model, cfg.par.tp, fsdp_shard, cfg.zero,
                          cfg.memory_optimized);
    const std::int64_t tokens_local = cfg.mbs * cfg.seq / cfg.par.cp;
    for (std::int64_t r = 0; r < pp; ++r) {
        bool has_embed = false, has_head = false;
        std::int64_t stage_layers = 0;
        for (std::int64_t s = 0; s < v_; ++s) {
            const StageContents &c = assignment_.stage(r, s);
            has_embed |= c.embedding;
            has_head |= c.head;
            stage_layers = std::max(stage_layers, c.layers);
        }
        rep.pp_rank_memory.push_back(mem.rankPeak(
            assignment_.layersOnRank(r), stage_layers,
            static_cast<double>(exec.peakInFlight(r)), tokens_local,
            has_embed, has_head, cfg.act));
    }
    return rep;
}

} // namespace llm4d
