#include "llm4d/tensor/doc_mask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "llm4d/cp/sharding.h"

namespace llm4d {
namespace {

TEST(DocMask, CausalAllowsLowerTriangle)
{
    DocMask m = DocMask::causal(8);
    EXPECT_EQ(m.docCount(), 1);
    for (std::int64_t q = 0; q < 8; ++q)
        for (std::int64_t k = 0; k < 8; ++k)
            EXPECT_EQ(m.allowed(q, k), k <= q) << q << "," << k;
}

TEST(DocMask, CausalTotalPairsIsTriangleNumber)
{
    DocMask m = DocMask::causal(100);
    EXPECT_EQ(m.totalPairs(), 100 * 101 / 2);
}

TEST(DocMask, DocumentBoundariesBlockAttention)
{
    // Paper example: 16 tokens, documents of length [3, 3, 8, 2].
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    EXPECT_EQ(m.seq(), 16);
    EXPECT_EQ(m.docCount(), 4);
    // Token 3 starts doc 1: cannot see tokens 0-2.
    EXPECT_FALSE(m.allowed(3, 2));
    EXPECT_TRUE(m.allowed(3, 3));
    EXPECT_TRUE(m.allowed(4, 3));
    // Token 5 (last of doc 1) sees 3..5 only.
    EXPECT_EQ(m.docStart(5), 3);
    EXPECT_EQ(m.span(5), 3);
    // Doc 2 spans 6..13.
    EXPECT_TRUE(m.allowed(13, 6));
    EXPECT_FALSE(m.allowed(13, 5));
    // Never attend the future, even within a document.
    EXPECT_FALSE(m.allowed(6, 7));
}

TEST(DocMask, PairCountsDecomposePerDocument)
{
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    const auto tri = [](std::int64_t n) { return n * (n + 1) / 2; };
    EXPECT_EQ(m.totalPairs(), tri(3) + tri(3) + tri(8) + tri(2));
}

TEST(DocMask, PairsInQueryRangeMatchesChunkWork)
{
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    // Splitting [0,16) into 4 chunks must partition the total.
    std::int64_t total = 0;
    for (std::int64_t c = 0; c < 4; ++c)
        total += m.pairsInQueryRange(c * 4, (c + 1) * 4);
    EXPECT_EQ(total, m.totalPairs());
    // The paper's observation: the chunk holding the long document carries
    // disproportionate work. Doc 2 (length 8) occupies chunks 1-3; chunk 3
    // has the tail of doc 2 with large spans plus doc 3.
    EXPECT_GT(m.pairsInQueryRange(12, 16), m.pairsInQueryRange(0, 4));
}

TEST(DocMask, FromEosPositions)
{
    // eos at positions 2 and 5 over seq 16 -> docs [0..2], [3..5], [6..15].
    DocMask m = DocMask::fromEosPositions(16, {2, 5});
    EXPECT_EQ(m.docCount(), 3);
    EXPECT_EQ(m.docStart(0), 0);
    EXPECT_EQ(m.docStart(2), 0);
    EXPECT_EQ(m.docStart(3), 3);
    EXPECT_EQ(m.docStart(6), 6);
    EXPECT_EQ(m.docStart(15), 6);
}

TEST(DocMask, EosAtLastTokenProducesNoEmptyDoc)
{
    DocMask m = DocMask::fromEosPositions(8, {7});
    EXPECT_EQ(m.docCount(), 1);
    EXPECT_EQ(m.seq(), 8);
}

TEST(DocMask, DuplicateEosPositionsCollapse)
{
    DocMask m = DocMask::fromEosPositions(8, {3, 3});
    EXPECT_EQ(m.docCount(), 2);
}

TEST(DocMask, SampleCoversSequenceExactly)
{
    Rng rng(1);
    DocMask m = DocMask::sample(8192, 1024.0, rng);
    EXPECT_EQ(m.seq(), 8192);
    EXPECT_GE(m.docCount(), 2);
    // Every token's doc start must be <= its own position.
    for (std::int64_t q = 0; q < m.seq(); q += 97)
        EXPECT_LE(m.docStart(q), q);
}

TEST(DocMask, SampleMeanDocLengthApproximatelyRequested)
{
    Rng rng(2);
    double total_docs = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
        DocMask m = DocMask::sample(65536, 1024.0, rng);
        total_docs += static_cast<double>(m.docCount());
    }
    const double mean_len = 65536.0 * trials / total_docs;
    EXPECT_NEAR(mean_len, 1024.0, 200.0);
}

TEST(DocMask, SampleDeterministicPerSeed)
{
    Rng r1(3), r2(3);
    DocMask a = DocMask::sample(4096, 512.0, r1);
    DocMask b = DocMask::sample(4096, 512.0, r2);
    EXPECT_EQ(a.docIds(), b.docIds());
}

TEST(DocMask, DocMaskReducesWorkVsCausal)
{
    Rng rng(4);
    DocMask doc = DocMask::sample(16384, 1024.0, rng);
    DocMask causal = DocMask::causal(16384);
    EXPECT_LT(doc.totalPairs(), causal.totalPairs() / 4)
        << "packed short documents should slash attention work";
}

using Index = DocMask::Index;

/**
 * The per-token view a DocMask is checked against: every token's document
 * id and document start, with pair counts by brute force over allowed().
 */
struct TokenOracle
{
    std::vector<Index> doc_id;
    std::vector<Index> doc_start;

    explicit TokenOracle(const std::vector<Index> &lengths)
    {
        Index start = 0;
        for (std::size_t d = 0; d < lengths.size(); ++d) {
            doc_id.insert(doc_id.end(),
                          static_cast<std::size_t>(lengths[d]),
                          static_cast<Index>(d));
            doc_start.insert(doc_start.end(),
                             static_cast<std::size_t>(lengths[d]), start);
            start += lengths[d];
        }
    }

    Index seq() const { return static_cast<Index>(doc_id.size()); }

    bool
    allowed(Index q, Index k) const
    {
        return k <= q && k >= doc_start[static_cast<std::size_t>(q)];
    }

    Index
    pairsBetween(Index q_lo, Index q_hi, Index k_lo, Index k_hi) const
    {
        Index pairs = 0;
        for (Index q = q_lo; q < q_hi; ++q)
            for (Index k = k_lo; k < k_hi; ++k)
                pairs += allowed(q, k) ? 1 : 0;
        return pairs;
    }
};

enum class LengthMix
{
    OneDocument,
    OneTokenDocuments,
    Exponential,
    LogNormal,
};

/** Document lengths of mix @p mix, summing to @p seq. */
std::vector<Index>
sampleLengths(LengthMix mix, Index seq, Rng &rng)
{
    if (mix == LengthMix::OneDocument)
        return {seq};
    if (mix == LengthMix::OneTokenDocuments)
        return std::vector<Index>(static_cast<std::size_t>(seq), 1);
    const double scale = rng.uniform(1.0, 64.0);
    std::vector<Index> lengths;
    for (Index remaining = seq; remaining > 0;) {
        const double draw = mix == LengthMix::Exponential
                                ? rng.exponential(scale)
                                : rng.logNormal(std::log(scale), 1.5);
        const Index len =
            std::clamp<Index>(std::llround(draw), 1, remaining);
        lengths.push_back(len);
        remaining -= len;
    }
    return lengths;
}

/**
 * A random half-open range within [0, seq): empty, aligned to document
 * boundaries @p cuts (cumulative offsets, 0 and seq included), or
 * arbitrary, in equal shares.
 */
std::pair<Index, Index>
sampleRange(Index seq, const std::vector<Index> &cuts, Rng &rng)
{
    switch (rng.uniformInt(0, 2)) {
      case 0: {
        const Index at = rng.uniformInt(0, seq);
        return {at, at};
      }
      case 1: {
        const auto last = static_cast<std::int64_t>(cuts.size()) - 1;
        Index a = cuts[static_cast<std::size_t>(rng.uniformInt(0, last))];
        Index b = cuts[static_cast<std::size_t>(rng.uniformInt(0, last))];
        return {std::min(a, b), std::max(a, b)};
      }
      default: {
        Index a = rng.uniformInt(0, seq);
        Index b = rng.uniformInt(0, seq);
        return {std::min(a, b), std::max(a, b)};
      }
    }
}

TEST(DocMaskOracle, ClosedFormsMatchPerTokenReference)
{
    Rng rng(20);
    for (const LengthMix mix :
         {LengthMix::OneDocument, LengthMix::OneTokenDocuments,
          LengthMix::Exponential, LengthMix::LogNormal}) {
        for (int trial = 0; trial < 12; ++trial) {
            SCOPED_TRACE(::testing::Message()
                         << "mix " << static_cast<int>(mix) << " trial "
                         << trial);
            const Index seq = rng.uniformInt(1, 200);
            const std::vector<Index> lengths = sampleLengths(mix, seq, rng);
            const DocMask mask = DocMask::fromDocLengths(lengths);
            const TokenOracle ref(lengths);
            ASSERT_EQ(mask.seq(), ref.seq());
            EXPECT_EQ(mask.docCount(), static_cast<Index>(lengths.size()));
            EXPECT_EQ(mask.docIds(), ref.doc_id);
            EXPECT_EQ(mask.totalPairs(), ref.pairsBetween(0, seq, 0, seq));
            Index wrong_starts = 0, wrong_allowed = 0;
            for (Index q = 0; q < seq; ++q) {
                wrong_starts += mask.docStart(q) !=
                                ref.doc_start[static_cast<std::size_t>(q)];
                for (Index k = 0; k < seq; ++k)
                    wrong_allowed += mask.allowed(q, k) != ref.allowed(q, k);
            }
            EXPECT_EQ(wrong_starts, 0);
            EXPECT_EQ(wrong_allowed, 0);

            std::vector<Index> cuts{0};
            for (Index len : lengths)
                cuts.push_back(cuts.back() + len);
            for (int r = 0; r < 60; ++r) {
                const auto [q_lo, q_hi] = sampleRange(seq, cuts, rng);
                const auto [k_lo, k_hi] = sampleRange(seq, cuts, rng);
                EXPECT_EQ(mask.pairsInQueryRange(q_lo, q_hi),
                          ref.pairsBetween(q_lo, q_hi, 0, seq))
                    << "queries [" << q_lo << ", " << q_hi << ")";
                EXPECT_EQ(mask.pairsBetween(q_lo, q_hi, k_lo, k_hi),
                          ref.pairsBetween(q_lo, q_hi, k_lo, k_hi))
                    << "queries [" << q_lo << ", " << q_hi << ") keys ["
                    << k_lo << ", " << k_hi << ")";
            }
        }
    }
}

TEST(DocMaskOracle, CpRanksPartitionA131kMask)
{
    // Table 2's long-context shape: 131K tokens, 4K-mean documents, cp=16.
    Rng rng(21);
    const DocMask mask = DocMask::sample(131072, 4096.0, rng);
    const CpSharding sharding(131072, 16);
    Index sum = 0;
    for (std::int64_t r = 0; r < 16; ++r)
        sum += sharding.pairsOf(r, mask);
    EXPECT_EQ(sum, mask.totalPairs());
    // Per-token view: every token q attends span(q) keys.
    Index spans = 0;
    for (Index q = 0; q < mask.seq(); ++q)
        spans += mask.span(q);
    EXPECT_EQ(spans, mask.totalPairs());
}

} // namespace
} // namespace llm4d
