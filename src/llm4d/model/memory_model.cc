#include "llm4d/model/memory_model.h"

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

constexpr double kFp32Bytes = 4.0;
/** Activation residency without the Section 6.3 release optimizations. */
constexpr double kUnoptimizedActFactor = 1.8;

} // namespace

double
MemoryBreakdown::headroomBytes(double capacity_gib, double guard) const
{
    LLM4D_CHECK(capacity_gib > 0.0 && guard > 0.0 && guard <= 1.0,
                "headroom needs positive capacity and guard in (0, 1]");
    return guard * capacity_gib * 1024.0 * 1024.0 * 1024.0 - total();
}

const char *
zeroModeName(ZeroMode mode)
{
    switch (mode) {
      case ZeroMode::Zero1:
        return "ZeRO-1";
      case ZeroMode::Zero2:
        return "ZeRO-2";
      case ZeroMode::Zero3:
        return "ZeRO-3";
    }
    LLM4D_PANIC("unreachable zero mode");
}

MemoryModel::MemoryModel(const ModelConfig &model, std::int64_t tp,
                         std::int64_t fsdp_shard, ZeroMode mode,
                         bool optimized)
    : model_(model), tp_(tp), fsdpShard_(fsdp_shard), mode_(mode),
      optimized_(optimized)
{
    LLM4D_CHECK(tp_ >= 1 && fsdpShard_ >= 1, "invalid sharding degrees");
}

double
MemoryModel::paramCount(std::int64_t layers, bool has_embedding,
                        bool has_head) const
{
    double params = static_cast<double>(layers) * model_.paramsPerLayer();
    if (has_embedding)
        params += static_cast<double>(model_.embeddingParams());
    if (has_head)
        params += static_cast<double>(model_.outputHeadParams());
    return params / static_cast<double>(tp_);
}

double
MemoryModel::weightBytes(std::int64_t layers, bool has_embedding,
                         bool has_head) const
{
    const double params = paramCount(layers, has_embedding, has_head);
    if (mode_ == ZeroMode::Zero3) {
        // Parameters live sharded; one layer's worth is materialized at a
        // time for compute. Approximate the peak as shard + one layer.
        const double shard = params / static_cast<double>(fsdpShard_);
        const double one_layer =
            static_cast<double>(model_.paramsPerLayer()) / tp_;
        return (shard + one_layer) * kBf16Bytes;
    }
    return params * kBf16Bytes;
}

double
MemoryModel::gradBytes(std::int64_t layers, bool has_embedding,
                       bool has_head, std::int64_t stage_layers) const
{
    const double params = paramCount(layers, has_embedding, has_head);
    switch (mode_) {
      case ZeroMode::Zero1:
        // Full FP32 gradient accumulators resident all step (Fig. 4a).
        return params * kFp32Bytes;
      case ZeroMode::Zero2:
      case ZeroMode::Zero3: {
        // Sharded steady state + one unsharded in-flight stage (Fig. 4c).
        const double shard = params / static_cast<double>(fsdpShard_);
        const double stage =
            static_cast<double>(stage_layers) * model_.paramsPerLayer() /
            static_cast<double>(tp_);
        return (shard + stage) * kFp32Bytes;
      }
    }
    LLM4D_PANIC("unreachable zero mode");
}

double
MemoryModel::optimizerBytes(std::int64_t layers, bool has_embedding,
                            bool has_head) const
{
    const double params = paramCount(layers, has_embedding, has_head);
    return params / static_cast<double>(fsdpShard_) * kOptimizerBytesPerParam;
}

double
MemoryModel::activationBytesPerTokenLayer(ActivationMode act) const
{
    if (act == ActivationMode::Recompute) {
        // Only the layer input survives.
        return kBf16Bytes * static_cast<double>(model_.hidden) / tp_;
    }
    if (act == ActivationMode::Selective) {
        // Checkpoint the big GEMM inputs; recompute norms, softmax and
        // the gated activation during backward.
        const double per_token =
            kBf16Bytes *
            (2.0 * model_.hidden + 0.5 * model_.kvDim() +
             1.0 * model_.ffn_hidden) /
            static_cast<double>(tp_);
        return optimized_ ? per_token : per_token * kUnoptimizedActFactor;
    }
    // Retained tensors per layer after the Section 6.3 early-release
    // optimizations: roughly half the naive "keep every intermediate"
    // footprint, sequence-parallel sharded across TP ranks.
    const double per_token =
        kBf16Bytes *
        (5.0 * model_.hidden + 1.0 * model_.kvDim() +
         2.0 * model_.ffn_hidden) /
        static_cast<double>(tp_);
    return optimized_ ? per_token : per_token * kUnoptimizedActFactor;
}

double
MemoryModel::activationBytes(std::int64_t tokens, std::int64_t layers,
                             bool has_embedding, bool has_head,
                             ActivationMode act) const
{
    double bytes = activationBytesPerTokenLayer(act) *
                   static_cast<double>(tokens) *
                   static_cast<double>(layers);
    if (has_embedding) {
        bytes += kBf16Bytes * static_cast<double>(tokens) * model_.hidden /
                 tp_;
    }
    if (has_head) {
        // Logits in BF16 plus an FP32 softmax scratch row.
        bytes += (kBf16Bytes + kFp32Bytes) * static_cast<double>(tokens) *
                 model_.vocab / tp_;
    }
    return bytes;
}

MemoryBreakdown
MemoryModel::rankPeak(std::int64_t layers, std::int64_t stage_layers,
                      double in_flight_microbatches,
                      std::int64_t tokens_per_microbatch,
                      bool has_embedding, bool has_head,
                      ActivationMode act) const
{
    LLM4D_ASSERT(layers >= 0 && stage_layers >= 0, "negative layer count");
    LLM4D_ASSERT(in_flight_microbatches >= 0.0, "negative in-flight count");
    MemoryBreakdown mb;
    mb.weights = weightBytes(layers, has_embedding, has_head);
    mb.grads = gradBytes(layers, has_embedding, has_head, stage_layers);
    mb.optimizer = optimizerBytes(layers, has_embedding, has_head);
    // Each in-flight micro-batch keeps one *stage* of activations alive.
    // Embedding and head buffers are released within their stage's
    // execution (logits feed the loss immediately), so they are charged
    // once, not per in-flight micro-batch.
    mb.activations =
        in_flight_microbatches *
            activationBytes(tokens_per_microbatch, stage_layers, false,
                            false, act) +
        (activationBytes(tokens_per_microbatch, 0, has_embedding,
                         has_head, act));
    return mb;
}

} // namespace llm4d
