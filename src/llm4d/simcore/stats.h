#ifndef LLM4D_SIMCORE_STATS_H_
#define LLM4D_SIMCORE_STATS_H_

/**
 * @file
 * Statistics accumulators used by all experiment harnesses: a streaming
 * moment accumulator (Welford) and a sample set with exact percentiles.
 */

#include <cstdint>
#include <limits>
#include <vector>

namespace llm4d {

/** Streaming count/mean/variance/min/max accumulator (Welford's method). */
class Accumulator
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations. */
    std::int64_t count() const { return n_; }

    /** Mean of observations (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 when fewer than two observations). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Minimum observation (+inf when empty). */
    double min() const { return min_; }

    /** Maximum observation (-inf when empty). */
    double max() const { return max_; }

    /** Sum of observations. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const Accumulator &other);

  private:
    std::int64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();

    friend class SampleSet;
};

/** Stores every observation; supports exact order statistics. */
class SampleSet
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations. */
    std::int64_t count() const { return acc_.count(); }

    /** Mean of observations. */
    double mean() const { return acc_.mean(); }

    /** Sample standard deviation. */
    double stddev() const { return acc_.stddev(); }

    /** Minimum observation. */
    double min() const { return acc_.min(); }

    /** Maximum observation. */
    double max() const { return acc_.max(); }

    /** Sum of observations. */
    double sum() const { return acc_.sum(); }

    /**
     * Exact percentile by nearest-rank on the sorted samples.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Read-only access to the raw samples (unsorted insertion order). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    Accumulator acc_;
    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
};

} // namespace llm4d

#endif // LLM4D_SIMCORE_STATS_H_
