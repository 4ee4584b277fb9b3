#include "llm4d/sim/multimodal.h"

#include <algorithm>

#include "llm4d/model/layer_cost.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/executor.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

const char *
encoderShardingName(EncoderSharding s)
{
    switch (s) {
      case EncoderSharding::FoldedIntoPipeline:
        return "option1-folded";
      case EncoderSharding::SerialFirstRank:
        return "option2-serial-first-rank";
      case EncoderSharding::ReplicatedPerRank:
        return "option3-replicated";
    }
    LLM4D_PANIC("unreachable encoder sharding");
}

namespace {

/** Forward+backward seconds of the full ViT encoder for one image. */
StageCost
encoderCostPerImage(const MultimodalJobConfig &cfg)
{
    // The encoder is sharded with 2D parallelism (FSDP + TP), so each
    // GPU prices 1/tp of each encoder layer.
    const LayerCostModel vit_lcm(BlockDims::fromVit(cfg.mm.vit),
                                 cfg.cluster.node.gpu, cfg.par.tp,
                                 /*ffn_is_gated=*/false);
    const std::int64_t tokens = cfg.mm.vit.imageTokens();
    // Bidirectional attention: every token attends every token.
    const LayerCost layer = vit_lcm.selfAttentionLayer(
        tokens, tokens * tokens, tokens, /*frozen=*/false);
    const auto layers = static_cast<double>(cfg.mm.vit.num_layers);
    return StageCost{layer.fwd_seconds * layers,
                     layer.bwd_seconds * layers};
}

/** Costs of the self-attention group and the cross-attention layer. */
struct TextLayerCosts
{
    StageCost self_group; ///< self_per_cross frozen self-attention layers
    StageCost cross;      ///< one trained cross-attention layer

    StageCost
    combined() const
    {
        return StageCost{self_group.fwd_seconds + cross.fwd_seconds,
                         self_group.bwd_seconds + cross.bwd_seconds};
    }
};

TextLayerCosts
textLayerCosts(const MultimodalJobConfig &cfg)
{
    const LayerCostModel lcm(BlockDims::fromText(cfg.mm.text),
                             cfg.cluster.node.gpu, cfg.par.tp);
    const std::int64_t text_tokens = cfg.mbs * cfg.mm.text_tokens;
    const std::int64_t image_tokens =
        cfg.mbs * cfg.images_per_sample * cfg.mm.vit.imageTokens();
    // Frozen self-attention layers: cheap backward (Section 3.2.2).
    const LayerCost self = lcm.selfAttentionLayer(
        text_tokens, text_tokens * (text_tokens + 1) / 2, text_tokens,
        /*frozen=*/true);
    const LayerCost cross =
        lcm.crossAttentionLayer(text_tokens, image_tokens);
    const auto n = static_cast<double>(cfg.mm.self_per_cross);
    return TextLayerCosts{
        StageCost{self.fwd_seconds * n, self.bwd_seconds * n},
        StageCost{cross.fwd_seconds, cross.bwd_seconds}};
}

} // namespace

MultimodalReport
simulateMultimodalStep(const MultimodalJobConfig &cfg)
{
    LLM4D_CHECK(cfg.bs % cfg.mbs == 0, "bs must divide into micro-batches");
    LLM4D_CHECK(cfg.bs % cfg.par.pp == 0 ||
                    cfg.encoder != EncoderSharding::ReplicatedPerRank,
                "option 3 splits the batch across pp ranks");
    const Topology topo(cfg.cluster);
    const CollectiveModel coll(topo);
    const RankGrid grid(cfg.par);

    const StageCost encoder_image = encoderCostPerImage(cfg);
    const std::int64_t images = cfg.bs * cfg.images_per_sample;
    const TextLayerCosts text_costs = textLayerCosts(cfg);
    const std::int64_t nmb = cfg.bs / cfg.mbs;
    // Option 1 wrapping: one (self_per_cross self + 1 cross) group per
    // virtual stage. Option 2: separate stages for the self group and
    // the cross layer -> twice the virtual stages, imbalanced costs.
    const std::int64_t stage_groups =
        cfg.mm.text.num_layers /
        (cfg.mm.self_per_cross * cfg.par.pp);
    const std::int64_t groups_v = std::max<std::int64_t>(1, stage_groups);
    const std::int64_t v =
        cfg.separate_cross_stages ? 2 * groups_v : groups_v;

    // --- Text pipeline under the flexible schedule. ---
    ScheduleParams sp{cfg.par.pp, v, nmb,
                      std::min(nmb, cfg.par.pp)};
    Schedule schedule = buildFlexible(sp);

    // Image tokens per micro-batch in BF16, the P2P/broadcast payload.
    const std::int64_t image_token_bytes =
        2 * cfg.mbs * cfg.images_per_sample * cfg.mm.vit.imageTokens() *
        cfg.mm.text.hidden / cfg.par.tp;
    const std::int64_t text_token_bytes =
        2 * cfg.mbs * cfg.mm.text_tokens * cfg.mm.text.hidden / cfg.par.tp;

    ExecConfig exec_cfg;
    const bool folded = cfg.encoder == EncoderSharding::FoldedIntoPipeline;
    exec_cfg.stage_cost = [&](std::int64_t rank, std::int64_t vstage,
                              std::int64_t) {
        // Option 1: every stage carries the combined group. Option 2:
        // even stages carry the frozen self group, odd ones the trained
        // cross layer (the imbalance Section 3.2.2 describes).
        StageCost sc = cfg.separate_cross_stages
                           ? (vstage % 2 == 0 ? text_costs.self_group
                                              : text_costs.cross)
                           : text_costs.combined();
        if (folded && rank == 0 && vstage == 0) {
            // Option 1: the first stage also runs the encoder for its
            // micro-batch.
            sc.fwd_seconds += encoder_image.fwd_seconds *
                              static_cast<double>(cfg.mbs) *
                              cfg.images_per_sample;
            sc.bwd_seconds += encoder_image.bwd_seconds *
                              static_cast<double>(cfg.mbs) *
                              cfg.images_per_sample;
        }
        return sc;
    };
    exec_cfg.p2p_seconds = [&](std::int64_t from, std::int64_t to) {
        const std::int64_t src = grid.rankOf(RankCoord{0, 0, from, 0});
        const std::int64_t dst = grid.rankOf(RankCoord{0, 0, to, 0});
        // Option 1 forwards image tokens alongside text activations on
        // every hop; options 2/3 distribute them out-of-band.
        const std::int64_t bytes =
            text_token_bytes + (folded ? image_token_bytes : 0);
        return coll.p2p(src, dst, bytes);
    };
    const ExecResult exec = executeSchedule(schedule, exec_cfg);

    MultimodalReport rep;
    rep.text_pipeline_seconds = timeToSeconds(exec.makespan);
    rep.bubble_ratio = exec.overallBubbleRatio();

    const RankSpan pp_group = grid.ppSpan(0);
    switch (cfg.encoder) {
      case EncoderSharding::FoldedIntoPipeline: {
        // Encoder time rides inside the pipeline (first stage); expose
        // it for reporting as the per-step encoder compute.
        rep.encoder_seconds =
            (encoder_image.fwd_seconds + encoder_image.bwd_seconds) *
            static_cast<double>(images);
        rep.comm_seconds = 0.0;
        rep.step_seconds = rep.text_pipeline_seconds;
        break;
      }
      case EncoderSharding::SerialFirstRank: {
        // Option 2: full-batch encoder forward before the pipeline, an
        // image-token broadcast, then encoder backward after the
        // pipeline (gradients all-reduced first).
        rep.encoder_seconds =
            (encoder_image.fwd_seconds + encoder_image.bwd_seconds) *
            static_cast<double>(images);
        const std::int64_t all_image_bytes =
            image_token_bytes * nmb;
        rep.comm_seconds =
            coll.broadcast(pp_group, all_image_bytes) +
            coll.allReduce(pp_group, all_image_bytes);
        rep.step_seconds = rep.encoder_seconds +
                           rep.text_pipeline_seconds + rep.comm_seconds;
        break;
      }
      case EncoderSharding::ReplicatedPerRank: {
        // Option 3: each PP rank encodes images/pp of the batch in
        // parallel; outputs all-gathered across the PP group.
        rep.encoder_seconds =
            (encoder_image.fwd_seconds + encoder_image.bwd_seconds) *
            static_cast<double>(images) /
            static_cast<double>(cfg.par.pp);
        const std::int64_t shard_bytes =
            image_token_bytes * nmb / cfg.par.pp;
        rep.comm_seconds = coll.allGather(pp_group, shard_bytes);
        rep.step_seconds = rep.encoder_seconds +
                           rep.text_pipeline_seconds + rep.comm_seconds;
        break;
      }
    }
    return rep;
}

} // namespace llm4d
