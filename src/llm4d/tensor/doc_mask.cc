#include "llm4d/tensor/doc_mask.h"

#include <algorithm>
#include <cmath>

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** Pairs of an n-token causal triangle: 1 + 2 + ... + n. */
DocMask::Index
triangle(DocMask::Index n)
{
    return n * (n + 1) / 2;
}

} // namespace

DocMask::DocMask(std::vector<Index> cu_seqlens)
    : cuSeqlens_(std::move(cu_seqlens))
{
}

DocMask
DocMask::causal(Index seq)
{
    return fromDocLengths({seq});
}

DocMask
DocMask::fromDocLengths(const std::vector<Index> &lengths)
{
    LLM4D_CHECK(!lengths.empty(), "document list must be non-empty");
    std::vector<Index> cu_seqlens{0};
    cu_seqlens.reserve(lengths.size() + 1);
    for (Index len : lengths) {
        LLM4D_CHECK(len > 0, "document length must be positive");
        cu_seqlens.push_back(cu_seqlens.back() + len);
    }
    return DocMask(std::move(cu_seqlens));
}

DocMask
DocMask::fromEosPositions(Index seq, const std::vector<Index> &eos_positions)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(std::is_sorted(eos_positions.begin(), eos_positions.end()),
                "eos positions must be sorted");
    std::vector<Index> lengths;
    Index prev_end = 0; // exclusive end of the previous document
    for (Index p : eos_positions) {
        LLM4D_CHECK(p >= 0 && p < seq, "eos position out of range");
        // The eos token itself belongs to the document it terminates.
        if (p + 1 > prev_end) {
            lengths.push_back(p + 1 - prev_end);
            prev_end = p + 1;
        }
    }
    if (prev_end < seq)
        lengths.push_back(seq - prev_end);
    return fromDocLengths(lengths);
}

DocMask
DocMask::sample(Index seq, double mean_doc_len, Rng &rng)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(mean_doc_len >= 1.0, "mean document length must be >= 1");
    std::vector<Index> lengths;
    Index remaining = seq;
    while (remaining > 0) {
        auto len = static_cast<Index>(
            std::llround(rng.exponential(mean_doc_len)));
        len = std::clamp<Index>(len, 1, remaining);
        lengths.push_back(len);
        remaining -= len;
    }
    return fromDocLengths(lengths);
}

DocMask
DocMask::sampleLogNormal(Index seq, double median_len, double sigma,
                         Rng &rng)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(median_len >= 1.0 && sigma >= 0.0,
                "invalid log-normal document parameters");
    std::vector<Index> lengths;
    Index remaining = seq;
    const double mu = std::log(median_len);
    while (remaining > 0) {
        auto len =
            static_cast<Index>(std::llround(rng.logNormal(mu, sigma)));
        len = std::clamp<Index>(len, 1, remaining);
        lengths.push_back(len);
        remaining -= len;
    }
    return fromDocLengths(lengths);
}

std::size_t
DocMask::docOf(Index q) const
{
    LLM4D_ASSERT(q >= 0 && q < seq(), "query position out of range");
    // cuSeqlens_[0] == 0 <= q, so the first offset past q is never the
    // first entry.
    const auto past = std::upper_bound(cuSeqlens_.begin(),
                                       cuSeqlens_.end(), q);
    return static_cast<std::size_t>(past - cuSeqlens_.begin() - 1);
}

DocMask::Index
DocMask::docStart(Index q) const
{
    return cuSeqlens_[docOf(q)];
}

DocMask::Index
DocMask::totalPairs() const
{
    return pairsInQueryRange(0, seq());
}

DocMask::Index
DocMask::pairsInQueryRange(Index q_lo, Index q_hi) const
{
    LLM4D_ASSERT(q_lo >= 0 && q_hi <= seq() && q_lo <= q_hi,
                 "query range out of bounds");
    if (q_lo == q_hi)
        return 0;
    // Query q of a document starting at s attends q - s + 1 keys, so the
    // queries [a, b) of that document sum to a difference of triangles.
    Index pairs = 0;
    for (std::size_t d = docOf(q_lo); cuSeqlens_[d] < q_hi; ++d) {
        const Index start = cuSeqlens_[d];
        const Index a = std::max(q_lo, start);
        const Index b = std::min(q_hi, cuSeqlens_[d + 1]);
        pairs += triangle(b - start) - triangle(a - start);
    }
    return pairs;
}

DocMask::Index
DocMask::pairsBetween(Index q_lo, Index q_hi, Index k_lo, Index k_hi) const
{
    LLM4D_ASSERT(q_lo >= 0 && q_hi <= seq() && q_lo <= q_hi,
                 "query range out of bounds");
    LLM4D_ASSERT(k_lo >= 0 && k_hi <= seq() && k_lo <= k_hi,
                 "key range out of bounds");
    if (q_lo == q_hi || k_lo == k_hi)
        return 0;
    // Only documents that end past both range starts and begin before
    // both range ends hold a pair.
    const Index stop = std::min(q_hi, k_hi);
    Index pairs = 0;
    for (std::size_t d = docOf(std::max(q_lo, k_lo)); cuSeqlens_[d] < stop;
         ++d) {
        // Query q of this document attends keys [key_lo, min(q, k_hi-1)]:
        // a ramp of q - key_lo + 1 keys up to q = k_hi - 1, then a flat
        // k_hi - key_lo keys. key_lo < k_hi since the document starts
        // before stop.
        const Index key_lo = std::max(k_lo, cuSeqlens_[d]);
        const Index a = std::max(q_lo, cuSeqlens_[d]);
        const Index b = std::min(q_hi, cuSeqlens_[d + 1]);
        const Index ramp_lo = std::max(a, key_lo);
        const Index ramp_hi = std::min(b, k_hi);
        if (ramp_hi > ramp_lo)
            pairs += triangle(ramp_hi - key_lo) - triangle(ramp_lo - key_lo);
        const Index flat_lo = std::max(a, k_hi);
        if (b > flat_lo)
            pairs += (b - flat_lo) * (k_hi - key_lo);
    }
    return pairs;
}

std::vector<DocMask::Index>
DocMask::docIds() const
{
    std::vector<Index> ids;
    ids.reserve(static_cast<std::size_t>(seq()));
    for (std::size_t d = 0; d + 1 < cuSeqlens_.size(); ++d)
        ids.insert(ids.end(),
                   static_cast<std::size_t>(cuSeqlens_[d + 1] -
                                            cuSeqlens_[d]),
                   static_cast<Index>(d));
    return ids;
}

} // namespace llm4d
