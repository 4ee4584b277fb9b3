#ifndef LLM4D_SIM_MULTIMODAL_H_
#define LLM4D_SIM_MULTIMODAL_H_

/**
 * @file
 * Multimodal training-step simulation (paper Section 3.2).
 *
 * The Llama 3 multimodal model = frozen text trunk + trained ViT encoder
 * + trained cross-attention layers (one per `self_per_cross` text
 * layers). Three encoder sharding strategies are modelled (Figure 6):
 *
 *  - Option 1: encoder folded into the first PP rank's first stage, its
 *    outputs forwarded through every P2P hop;
 *  - Option 2: encoder runs serially on the first PP rank as a
 *    pre-processing stage, outputs broadcast to all PP ranks;
 *  - Option 3: encoder replicated on every PP rank, each computing
 *    bs/pp of the images, outputs all-gathered.
 *
 * The case study's numbers: upgrading the encoder to 672 px made Option 2
 * spend ~33% of the step in the encoder; Option 3 cut that to ~8%.
 */

#include <cstdint>

#include "llm4d/model/model_config.h"
#include "llm4d/parallel/parallelism.h"
#include "llm4d/hw/gpu_spec.h"
#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Encoder sharding strategies of Figure 6. */
enum class EncoderSharding
{
    FoldedIntoPipeline, ///< Option 1
    SerialFirstRank,    ///< Option 2
    ReplicatedPerRank,  ///< Option 3
};

/** Name of an encoder sharding option. */
const char *encoderShardingName(EncoderSharding s);

/** Multimodal job description. */
struct MultimodalJobConfig
{
    MultimodalConfig mm = MultimodalConfig::llama3Multimodal();
    ClusterSpec cluster = ClusterSpec::llama3Production(1024);
    ParallelismConfig par{8, 1, 8, 16};
    std::int64_t bs = 64;          ///< samples per DP group per step
    std::int64_t mbs = 1;          ///< samples per micro-batch
    std::int64_t images_per_sample = 1;
    EncoderSharding encoder = EncoderSharding::SerialFirstRank;

    /**
     * Text-layer PP wrapping (Section 3.2.2): false = Option 1, each
     * virtual stage holds `self_per_cross` self-attention layers plus one
     * cross-attention layer (balanced, fewer stages); true = Option 2,
     * self-attention groups and cross-attention layers get separate
     * virtual stages (more stages, smaller analytic bubble, imbalanced
     * stage costs).
     */
    bool separate_cross_stages = false;
};

/** Outcome of one simulated multimodal step. */
struct MultimodalReport
{
    double step_seconds = 0.0;
    double encoder_seconds = 0.0;   ///< non-overlapped encoder time
    double text_pipeline_seconds = 0.0;
    double comm_seconds = 0.0;      ///< broadcast / all-gather of tokens
    double bubble_ratio = 0.0;

    /** Encoder share of the step (the 33% -> 8% quantity). */
    double encoderShare() const { return encoder_seconds / step_seconds; }
};

/** Simulate one multimodal training step under the chosen sharding. */
MultimodalReport simulateMultimodalStep(const MultimodalJobConfig &cfg);

} // namespace llm4d

#endif // LLM4D_SIM_MULTIMODAL_H_
