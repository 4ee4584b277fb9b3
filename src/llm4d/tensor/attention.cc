#include "llm4d/tensor/attention.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

struct Shapes
{
    std::int64_t hq, sq, d, hkv, skv, group;
    double scale;
};

Shapes
checkShapes(const Tensor &q, const Tensor &k, const Tensor &v,
            const DocMask &mask, const std::vector<std::int64_t> &q_pos,
            std::int64_t k_offset)
{
    LLM4D_ASSERT(q.rank() == 3 && k.rank() == 3 && v.rank() == 3,
                 "attention wants [heads, seq, dim] tensors");
    Shapes s{};
    s.hq = q.dim(0);
    s.sq = q.dim(1);
    s.d = q.dim(2);
    s.hkv = k.dim(0);
    s.skv = k.dim(1);
    LLM4D_ASSERT(k.dim(2) == s.d && v.dim(2) == s.d,
                 "head_dim mismatch between Q/K/V");
    LLM4D_ASSERT(v.dim(0) == s.hkv && v.dim(1) == s.skv,
                 "K/V shape mismatch");
    LLM4D_ASSERT(s.hq % s.hkv == 0,
                 "GQA requires heads_q % heads_kv == 0, got " << s.hq << "/"
                                                              << s.hkv);
    s.group = s.hq / s.hkv;
    s.scale = 1.0 / std::sqrt(static_cast<double>(s.d));
    LLM4D_ASSERT(q_pos.empty() ||
                     static_cast<std::int64_t>(q_pos.size()) == s.sq,
                 "q_pos size must equal seq_q");
    LLM4D_ASSERT(k_offset >= 0 && k_offset + s.skv <= mask.seq(),
                 "key range exceeds mask");
    for (std::int64_t p : q_pos)
        LLM4D_ASSERT(p >= 0 && p < mask.seq(), "q position outside mask");
    return s;
}

std::int64_t
queryPos(const std::vector<std::int64_t> &q_pos, std::int64_t row)
{
    return q_pos.empty() ? row : q_pos[static_cast<std::size_t>(row)];
}

/** Key columns [lo, hi) of a block starting at position @p k_offset. */
struct KeyWindow
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    bool contains(std::int64_t j) const { return j >= lo && j < hi; }
};

/**
 * The block columns query position @p qp may attend: keys
 * [docStart(qp), qp] (DocMask::allowed), so each row reads its mask once.
 */
KeyWindow
keyWindow(const DocMask &mask, std::int64_t qp, std::int64_t k_offset,
          std::int64_t skv)
{
    const std::int64_t lo =
        std::max<std::int64_t>(0, mask.docStart(qp) - k_offset);
    const std::int64_t hi = std::min(skv, qp - k_offset + 1);
    return {lo, std::max(lo, hi)};
}

} // namespace

AttentionResult
referenceAttention(const Tensor &q, const Tensor &k, const Tensor &v,
                   const DocMask &mask,
                   const std::vector<std::int64_t> &q_pos,
                   std::int64_t k_offset)
{
    const Shapes s = checkShapes(q, k, v, mask, q_pos, k_offset);
    AttentionResult res{Tensor({s.hq, s.sq, s.d}), Tensor({s.hq, s.sq})};

    std::vector<float> scores(static_cast<std::size_t>(s.skv));
    for (std::int64_t h = 0; h < s.hq; ++h) {
        const std::int64_t kh = h / s.group;
        for (std::int64_t i = 0; i < s.sq; ++i) {
            const KeyWindow win =
                keyWindow(mask, queryPos(q_pos, i), k_offset, s.skv);
            // Scores over attendable keys; no other column is read.
            float row_max = kNegInf;
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                double dot = 0.0;
                for (std::int64_t e = 0; e < s.d; ++e)
                    dot += static_cast<double>(q.at(h, i, e)) * k.at(kh, j, e);
                const float sc = static_cast<float>(dot * s.scale);
                scores[static_cast<std::size_t>(j)] = sc;
                row_max = std::max(row_max, sc);
            }
            if (row_max == kNegInf) {
                // No attendable key (possible for a KV chunk in ring CP).
                res.lse.at(h, i) = kNegInf;
                continue;
            }
            double denom = 0.0;
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                const float sc = scores[static_cast<std::size_t>(j)];
                if (sc == kNegInf)
                    continue;
                denom += std::exp(static_cast<double>(sc - row_max));
            }
            for (std::int64_t e = 0; e < s.d; ++e) {
                double acc = 0.0;
                for (std::int64_t j = win.lo; j < win.hi; ++j) {
                    const float sc = scores[static_cast<std::size_t>(j)];
                    if (sc == kNegInf)
                        continue;
                    acc += std::exp(static_cast<double>(sc - row_max)) *
                           v.at(kh, j, e);
                }
                res.out.at(h, i, e) = static_cast<float>(acc / denom);
            }
            res.lse.at(h, i) =
                static_cast<float>(row_max + std::log(denom));
        }
    }
    return res;
}

AttentionResult
flashAttention(const Tensor &q, const Tensor &k, const Tensor &v,
               const DocMask &mask, const std::vector<std::int64_t> &q_pos,
               std::int64_t k_offset, std::int64_t kv_tile)
{
    LLM4D_ASSERT(kv_tile > 0, "kv_tile must be positive");
    const Shapes s = checkShapes(q, k, v, mask, q_pos, k_offset);
    AttentionResult res{Tensor({s.hq, s.sq, s.d}), Tensor({s.hq, s.sq})};

    std::vector<double> acc(static_cast<std::size_t>(s.d));
    std::vector<float> tile_scores(static_cast<std::size_t>(kv_tile));
    for (std::int64_t h = 0; h < s.hq; ++h) {
        const std::int64_t kh = h / s.group;
        for (std::int64_t i = 0; i < s.sq; ++i) {
            const KeyWindow win =
                keyWindow(mask, queryPos(q_pos, i), k_offset, s.skv);
            // Online softmax state.
            double m = kNegInf; // running max
            double l = 0.0;     // running sum of exp(score - m)
            std::fill(acc.begin(), acc.end(), 0.0);

            for (std::int64_t t0 = 0; t0 < s.skv; t0 += kv_tile) {
                const std::int64_t t1 = std::min(t0 + kv_tile, s.skv);
                float tile_max = kNegInf;
                for (std::int64_t j = t0; j < t1; ++j) {
                    float sc = kNegInf;
                    if (win.contains(j)) {
                        double dot = 0.0;
                        for (std::int64_t e = 0; e < s.d; ++e)
                            dot += static_cast<double>(q.at(h, i, e)) *
                                   k.at(kh, j, e);
                        sc = static_cast<float>(dot * s.scale);
                    }
                    tile_scores[static_cast<std::size_t>(j - t0)] = sc;
                    tile_max = std::max(tile_max, sc);
                }
                if (tile_max == kNegInf)
                    continue; // fully masked tile
                const double m_new = std::max(m, double{tile_max});
                const double rescale =
                    (m == kNegInf) ? 0.0 : std::exp(m - m_new);
                l *= rescale;
                for (auto &a : acc)
                    a *= rescale;
                for (std::int64_t j = t0; j < t1; ++j) {
                    const float sc =
                        tile_scores[static_cast<std::size_t>(j - t0)];
                    if (sc == kNegInf)
                        continue;
                    const double p = std::exp(sc - m_new);
                    l += p;
                    for (std::int64_t e = 0; e < s.d; ++e)
                        acc[static_cast<std::size_t>(e)] +=
                            p * v.at(kh, j, e);
                }
                m = m_new;
            }

            if (l == 0.0) {
                res.lse.at(h, i) = kNegInf;
                continue;
            }
            for (std::int64_t e = 0; e < s.d; ++e)
                res.out.at(h, i, e) = static_cast<float>(
                    acc[static_cast<std::size_t>(e)] / l);
            res.lse.at(h, i) = static_cast<float>(m + std::log(l));
        }
    }
    return res;
}

AttentionResult
mergeAttentionPartials(const std::vector<AttentionResult> &partials)
{
    LLM4D_ASSERT(!partials.empty(), "merging zero attention partials");
    const auto &first = partials.front();
    const auto hq = first.out.dim(0);
    const auto sq = first.out.dim(1);
    const auto d = first.out.dim(2);
    for (const auto &p : partials) {
        LLM4D_ASSERT(p.out.shape() == first.out.shape() &&
                         p.lse.shape() == first.lse.shape(),
                     "partial shape mismatch");
    }

    AttentionResult res{Tensor({hq, sq, d}), Tensor({hq, sq})};
    for (std::int64_t h = 0; h < hq; ++h) {
        for (std::int64_t i = 0; i < sq; ++i) {
            double m = kNegInf;
            for (const auto &p : partials)
                m = std::max(m, double{p.lse.at(h, i)});
            if (m == kNegInf) {
                res.lse.at(h, i) = kNegInf;
                continue;
            }
            double denom = 0.0;
            for (const auto &p : partials) {
                const float lse = p.lse.at(h, i);
                if (lse == kNegInf)
                    continue;
                denom += std::exp(static_cast<double>(lse) - m);
            }
            const double lse_total = m + std::log(denom);
            for (std::int64_t e = 0; e < d; ++e) {
                double acc = 0.0;
                for (const auto &p : partials) {
                    const float lse = p.lse.at(h, i);
                    if (lse == kNegInf)
                        continue;
                    acc += std::exp(static_cast<double>(lse) - lse_total) *
                           p.out.at(h, i, e);
                }
                res.out.at(h, i, e) = static_cast<float>(acc);
            }
            res.lse.at(h, i) = static_cast<float>(lse_total);
        }
    }
    return res;
}

AttentionGrads
referenceAttentionBackward(const Tensor &q, const Tensor &k, const Tensor &v,
                           const DocMask &mask, const Tensor &d_out,
                           const std::vector<std::int64_t> &q_pos,
                           std::int64_t k_offset)
{
    const Shapes s = checkShapes(q, k, v, mask, q_pos, k_offset);
    LLM4D_ASSERT(d_out.shape() == q.shape(), "d_out must match Q shape");

    AttentionGrads g{Tensor({s.hq, s.sq, s.d}), Tensor({s.hkv, s.skv, s.d}),
                     Tensor({s.hkv, s.skv, s.d})};

    std::vector<double> probs(static_cast<std::size_t>(s.skv));
    for (std::int64_t h = 0; h < s.hq; ++h) {
        const std::int64_t kh = h / s.group;
        for (std::int64_t i = 0; i < s.sq; ++i) {
            const KeyWindow win =
                keyWindow(mask, queryPos(q_pos, i), k_offset, s.skv);
            // Recompute the softmax row (as a backward kernel would) over
            // the attendable keys; no other column is read.
            double row_max = kNegInf;
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                double dot = 0.0;
                for (std::int64_t e = 0; e < s.d; ++e)
                    dot += static_cast<double>(q.at(h, i, e)) * k.at(kh, j, e);
                probs[static_cast<std::size_t>(j)] = dot * s.scale;
                row_max = std::max(row_max, dot * s.scale);
            }
            if (row_max == kNegInf)
                continue; // row contributed nothing forward; zero grads
            double denom = 0.0;
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                auto &p = probs[static_cast<std::size_t>(j)];
                if (p == kNegInf) {
                    p = 0.0;
                } else {
                    p = std::exp(p - row_max);
                    denom += p;
                }
            }
            for (std::int64_t j = win.lo; j < win.hi; ++j)
                probs[static_cast<std::size_t>(j)] /= denom;

            // dP_ij = dO_i . V_j ; row_dot = sum_j P_ij dP_ij.
            double row_dot = 0.0;
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                const double p = probs[static_cast<std::size_t>(j)];
                if (p == 0.0)
                    continue;
                double dp = 0.0;
                for (std::int64_t e = 0; e < s.d; ++e)
                    dp += static_cast<double>(d_out.at(h, i, e)) *
                          v.at(kh, j, e);
                row_dot += p * dp;
            }
            for (std::int64_t j = win.lo; j < win.hi; ++j) {
                const double p = probs[static_cast<std::size_t>(j)];
                if (p == 0.0)
                    continue;
                double dp = 0.0;
                for (std::int64_t e = 0; e < s.d; ++e)
                    dp += static_cast<double>(d_out.at(h, i, e)) *
                          v.at(kh, j, e);
                const double ds = p * (dp - row_dot) * s.scale;
                for (std::int64_t e = 0; e < s.d; ++e) {
                    g.dq.at(h, i, e) +=
                        static_cast<float>(ds * k.at(kh, j, e));
                    g.dk.at(kh, j, e) +=
                        static_cast<float>(ds * q.at(h, i, e));
                    g.dv.at(kh, j, e) += static_cast<float>(
                        p * d_out.at(h, i, e));
                }
            }
        }
    }
    return g;
}

} // namespace llm4d
