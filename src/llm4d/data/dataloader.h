#ifndef LLM4D_DATA_DATALOADER_H_
#define LLM4D_DATA_DATALOADER_H_

/**
 * @file
 * Synthetic training data pipeline (paper Section 4, "Integration").
 *
 * The paper's CP integration rules, made executable:
 *
 *  - dataloaders feed whole sequences to DP groups; the CP split is
 *    invisible to tokenization ("the sequence length split is not visible
 *    to the tokenizer");
 *  - document boundaries are carried by end-of-sequence ids inside the
 *    token stream, from which every CP rank derives the *full* attention
 *    mask before selecting its local chunks;
 *  - rank i selects chunks i and 2*cp-i-1 of the tokens AND of the
 *    positional ids.
 */

#include <cstdint>
#include <vector>

#include "llm4d/cp/sharding.h"
#include "llm4d/simcore/rng.h"
#include "llm4d/tensor/doc_mask.h"

namespace llm4d {

/** One packed training sequence for one DP group. */
struct TokenBatch
{
    std::vector<std::int32_t> tokens; ///< token ids, eos marks doc ends
    std::int64_t seq = 0;
    std::int32_t eos_id = 0;

    /** Derive the document mask from the eos positions in the tokens. */
    DocMask mask() const;

    /** Document count implied by the token stream. */
    std::int64_t docCount() const;
};

/** The slice of a batch one CP rank trains on. */
struct CpLocalBatch
{
    std::vector<std::int32_t> tokens; ///< local tokens, chunk order
    std::vector<std::int64_t> positions; ///< global position of each token
};

/**
 * Deterministic synthetic dataloader: packs exponentially-sized documents
 * (terminated by eos) into fixed-length sequences. Every DP group reads
 * an independent stream; re-creating the loader replays the same data.
 */
class SyntheticDataLoader
{
  public:
    /**
     * @param seq          tokens per sequence.
     * @param vocab        vocabulary size (eos id = vocab - 1).
     * @param mean_doc_len mean document length in tokens.
     * @param seed         master seed; streams derive from (seed, dp).
     */
    SyntheticDataLoader(std::int64_t seq, std::int64_t vocab,
                        double mean_doc_len, std::uint64_t seed);

    /** Next sequence for DP group @p dp_group. */
    TokenBatch next(std::int64_t dp_group);

  private:
    std::int64_t seq_;
    std::int64_t vocab_;
    double meanDocLen_;
    std::uint64_t seed_;
    std::int32_t eos_;
    std::vector<std::uint64_t> cursor_; ///< per-group batch counter
};

/**
 * Select one CP rank's local tokens and positions (Section 4: "rank i
 * takes both i-th and (2*cp-i-1)-th chunks of tokens... positional
 * encodings should be selected appropriately").
 */
CpLocalBatch selectCpLocal(const TokenBatch &batch,
                           const CpSharding &sharding, std::int64_t rank);

/**
 * Reassemble the full token stream from every rank's local batch
 * (inverse of selectCpLocal across the group); used to prove the split
 * loses nothing.
 */
std::vector<std::int32_t> reassembleTokens(
    const std::vector<CpLocalBatch> &locals, const CpSharding &sharding);

} // namespace llm4d

#endif // LLM4D_DATA_DATALOADER_H_
