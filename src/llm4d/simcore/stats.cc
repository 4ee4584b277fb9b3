#include "llm4d/simcore/stats.h"

#include <algorithm>
#include <cmath>

#include "llm4d/simcore/common.h"

namespace llm4d {

void
Accumulator::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
Accumulator::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel variance merge.
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nab = na + nb;
    mean_ += delta * nb / nab;
    m2_ += other.m2_ + delta * delta * na * nb / nab;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
SampleSet::add(double x)
{
    acc_.add(x);
    samples_.push_back(x);
    sortedValid_ = false;
}

double
SampleSet::percentile(double p) const
{
    LLM4D_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: " << p);
    LLM4D_ASSERT(!samples_.empty(), "percentile of empty sample set");
    if (!sortedValid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
    if (p == 0.0)
        return sorted_.front();
    // Nearest-rank: smallest value with at least p% of samples <= it.
    const auto n = static_cast<double>(sorted_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::min(rank, sorted_.size());
    return sorted_[rank - 1];
}

} // namespace llm4d
