#ifndef LLM4D_MODEL_MEMORY_MODEL_H_
#define LLM4D_MODEL_MEMORY_MODEL_H_

/**
 * @file
 * Per-rank HBM accounting for 4D-parallel training.
 *
 * Covers the components the paper balances against each other: BF16
 * weights (sharded by TP and PP), FP32 gradient accumulators (resident or
 * resharded depending on the FSDP ZeRO mode, Section 3.1.3), Adam state
 * (always sharded across the FSDP group), and per-micro-batch activations
 * whose in-flight count is dictated by the PP schedule (Section 3.1.1).
 * The Section 6.3 "memory optimizations" toggle models the custom-autograd
 * early-release work: without it, activation residency is ~1.8x larger.
 */

#include <cstdint>

#include "llm4d/model/model_config.h"

namespace llm4d {

/** Bytes of one BF16 value: a working weight, or an activation. */
constexpr double kBf16Bytes = 2.0;

/** Optimizer state per parameter, what a checkpoint saves: FP32 master
 *  weights plus the two FP32 Adam moments. */
constexpr double kOptimizerBytesPerParam = 12.0;

/** FSDP sharding strategy, aligned with DeepSpeed ZeRO stages. */
enum class ZeroMode
{
    Zero1, ///< shard optimizer state only
    Zero2, ///< + shard gradients
    Zero3, ///< + shard parameters
};

/** Name of a ZeRO mode. */
const char *zeroModeName(ZeroMode mode);

/** Activation handling per layer. */
enum class ActivationMode
{
    Full,      ///< keep all activations (needs Section 6.3 optimizations)
    Selective, ///< selective recomputation: cheap ops recomputed
    Recompute, ///< full activation recomputation: keep layer inputs only
};

/** One rank's memory use in bytes, by category. */
struct MemoryBreakdown
{
    double weights = 0.0;
    double grads = 0.0;
    double optimizer = 0.0;
    double activations = 0.0;

    double
    total() const
    {
        return weights + grads + optimizer + activations;
    }

    /** Convert a byte quantity to GiB. */
    static double toGib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

    /** Total in GiB. */
    double totalGib() const { return toGib(total()); }

    /**
     * Bytes left under @p guard * capacity — the budget elastic
     * mitigation (e.g. straggler micro-batch rebalancing) may spend on
     * extra in-flight activations. Negative when the rank is already
     * over budget.
     */
    double headroomBytes(double capacity_gib, double guard = 0.94) const;
};

/** Computes per-rank memory for a model under a parallelism layout. */
class MemoryModel
{
  public:
    /**
     * @param model      text model configuration.
     * @param tp         tensor-parallel degree.
     * @param fsdp_shard FSDP sharding degree (dp * cp, Section 4).
     * @param mode       ZeRO stage.
     * @param optimized  whether the Section 6.3 activation-release
     *                   optimizations are applied.
     */
    MemoryModel(const ModelConfig &model, std::int64_t tp,
                std::int64_t fsdp_shard, ZeroMode mode,
                bool optimized = true);

    /** BF16 parameter bytes for @p layers resident layers. */
    double weightBytes(std::int64_t layers, bool has_embedding,
                       bool has_head) const;

    /**
     * Peak gradient bytes. ZeRO-1 holds full unsharded FP32 gradients for
     * every resident layer across the whole step; ZeRO-2 holds the
     * sharded steady state plus one unsharded in-flight stage of
     * @p stage_layers layers awaiting its reduce-scatter.
     */
    double gradBytes(std::int64_t layers, bool has_embedding, bool has_head,
                     std::int64_t stage_layers) const;

    /** Adam moments + FP32 master weights, sharded across the FSDP group. */
    double optimizerBytes(std::int64_t layers, bool has_embedding,
                          bool has_head) const;

    /** Activation bytes per token for ONE layer (after TP-SP sharding). */
    double activationBytesPerTokenLayer(ActivationMode act) const;

    /**
     * Activation bytes for a micro-batch of @p tokens across @p layers,
     * plus embedding/head ephemeral buffers when present.
     */
    double activationBytes(std::int64_t tokens, std::int64_t layers,
                           bool has_embedding, bool has_head,
                           ActivationMode act) const;

    /**
     * Full breakdown for a PP rank holding @p layers layers whose
     * schedule keeps @p in_flight_microbatches stage micro-batches alive,
     * each stage containing layers/v layers (pass stage_layers).
     */
    MemoryBreakdown rankPeak(std::int64_t layers, std::int64_t stage_layers,
                             double in_flight_microbatches,
                             std::int64_t tokens_per_microbatch,
                             bool has_embedding, bool has_head,
                             ActivationMode act) const;

  private:
    double paramCount(std::int64_t layers, bool has_embedding,
                      bool has_head) const;

    ModelConfig model_;
    std::int64_t tp_;
    std::int64_t fsdpShard_;
    ZeroMode mode_;
    bool optimized_;
};

} // namespace llm4d

#endif // LLM4D_MODEL_MEMORY_MODEL_H_
