#include "llm4d/simcore/stats.h"

#include <gtest/gtest.h>

namespace llm4d {
namespace {

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
    // Population variance is 4 => sample variance 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, EmptyIsSafe)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream)
{
    Accumulator a, b, whole;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.37 * i - 3.0;
        (i % 2 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(SampleSet, PercentilesNearestRank)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, PercentileUnaffectedByInsertionOrder)
{
    SampleSet s;
    for (int i = 100; i >= 1; --i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    s.add(0.5); // invalidates the cached sort
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.5);
}

} // namespace
} // namespace llm4d
