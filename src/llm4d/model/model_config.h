#ifndef LLM4D_MODEL_MODEL_CONFIG_H_
#define LLM4D_MODEL_MODEL_CONFIG_H_

/**
 * @file
 * Transformer model descriptions: the Llama 3 family presets, the
 * scaled-down evaluation models of paper Section 7.1, and the multimodal
 * extension (ViT image encoder + interleaved cross-attention layers) of
 * Section 3.2.
 */

#include <cstdint>
#include <string>

namespace llm4d {

/** Dense decoder-only transformer hyper-parameters. */
struct ModelConfig
{
    std::string name = "llama3-405b";

    std::int64_t num_layers = 126; ///< co-designed from 128, Section 3.1.2
    std::int64_t hidden = 16384;
    std::int64_t ffn_hidden = 53248;
    std::int64_t heads = 128;
    std::int64_t kv_heads = 8; ///< GQA
    std::int64_t vocab = 128256;

    /** Per-head dimension. */
    std::int64_t headDim() const { return hidden / heads; }

    /** Combined K/V projection width (kv_heads * head_dim). */
    std::int64_t kvDim() const { return kv_heads * headDim(); }

    /** Parameters in one transformer layer (attention + FFN + norms). */
    std::int64_t paramsPerLayer() const;

    /** Parameters in the attention block of one layer. */
    std::int64_t attnParamsPerLayer() const;

    /** Parameters in the FFN block of one layer. */
    std::int64_t ffnParamsPerLayer() const;

    /** Input embedding table parameters. */
    std::int64_t embeddingParams() const { return vocab * hidden; }

    /** Output head parameters (untied in Llama 3). */
    std::int64_t outputHeadParams() const { return vocab * hidden; }

    /** Total parameter count. */
    std::int64_t totalParams() const;

    /**
     * Dense model FLOPs per token for one forward pass, excluding
     * attention score FLOPs (those depend on the mask; see DocMask).
     */
    double denseFlopsPerTokenForward() const;

    /** Llama 3 405B (126 layers after the PP balance co-design). */
    static ModelConfig llama3_405b();

    /** Llama 3 70B. */
    static ModelConfig llama3_70b();

    /** Llama 3 8B. */
    static ModelConfig llama3_8b();

    /**
     * The Section 7.1 evaluation model: 405B layer dimensions with a
     * reduced layer count (28 uniform, or 26 after removing one layer
     * from the first and last pipeline stages).
     */
    static ModelConfig scaledDown405b(std::int64_t layers);

    bool operator==(const ModelConfig &) const = default;
};

/** ViT image encoder hyper-parameters (Section 3.2). */
struct VitConfig
{
    std::string name = "vit-encoder-448";
    std::int64_t num_layers = 32;
    std::int64_t hidden = 1280;
    std::int64_t ffn_hidden = 5120;
    std::int64_t heads = 16;
    std::int64_t patch = 14;
    std::int64_t image_size = 448;

    /** Image tokens produced per image (patches + register/cls tokens). */
    std::int64_t imageTokens() const;

    /** Parameters in one encoder layer. */
    std::int64_t paramsPerLayer() const;

    /** Total encoder parameters (layers + patch embed). */
    std::int64_t totalParams() const;

    /** The initial 448x448 encoder. */
    static VitConfig vit448();

    /**
     * The upgraded encoder that triggered the Option 2 -> Option 3 switch:
     * 672x672 input and more layers (Section 3.2.1).
     */
    static VitConfig vit672();
};

/** Llama 3 multimodal model: frozen text trunk + trained vision parts. */
struct MultimodalConfig
{
    ModelConfig text = ModelConfig::llama3_405b();
    VitConfig vit = VitConfig::vit448();

    /**
     * Self-attention layers per cross-attention layer (the co-designed
     * 4:1 ratio of Section 3.2.2).
     */
    std::int64_t self_per_cross = 4;

    /** Text tokens per sample during multimodal pre-training (< 200). */
    std::int64_t text_tokens = 192;

    /** Cross-attention layer count implied by the ratio. */
    std::int64_t numCrossLayers() const;

    /** Default multimodal configuration used in the case study. */
    static MultimodalConfig llama3Multimodal();
};

} // namespace llm4d

#endif // LLM4D_MODEL_MODEL_CONFIG_H_
