/** @file Streaming statistics accumulators. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/rng.hh"
#include "core/stats.hh"

namespace tpupoint {
namespace {

TEST(SummaryTest, EmptySummaryIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, SingleSample)
{
    Summary s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 4.5);
    EXPECT_EQ(s.min(), 4.5);
    EXPECT_EQ(s.max(), 4.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, MatchesNaiveComputation)
{
    Rng rng(1);
    std::vector<double> xs;
    Summary s;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-50, 50);
        xs.push_back(x);
        s.add(x);
    }
    double sum = 0;
    for (const double x : xs)
        sum += x;
    const double mean = sum / xs.size();
    double var = 0;
    for (const double x : xs)
        var += (x - mean) * (x - mean);
    var /= xs.size();
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-7);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-7);
}

TEST(SummaryTest, MergeEqualsSingleStream)
{
    Rng rng(2);
    Summary whole, left, right;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.gaussian(3.0, 2.0);
        whole.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
}

TEST(SummaryTest, MergeWithEmptyIsIdentity)
{
    Summary a, b;
    a.add(1.0);
    a.add(2.0);
    const double mean = a.mean();
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.mean(), mean);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.mean(), mean);
}

TEST(SummaryTest, ResetClearsEverything)
{
    Summary s;
    s.add(10);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0, 10, 0), std::runtime_error);
    EXPECT_THROW(Histogram(10, 10, 4), std::runtime_error);
    EXPECT_THROW(Histogram(10, 5, 4), std::runtime_error);
}

TEST(HistogramTest, BinsCountCorrectly)
{
    Histogram h(0, 10, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(h.binCount(b), 1u);
    EXPECT_EQ(h.total(), 10u);
}

TEST(HistogramTest, OutOfRangeFoldsIntoEdges)
{
    Histogram h(0, 10, 10);
    h.add(-5);
    h.add(100);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
}

TEST(HistogramTest, BinCountOutOfRangePanics)
{
    Histogram h(0, 1, 2);
    EXPECT_THROW(h.binCount(2), std::logic_error);
}

TEST(HistogramTest, QuantileApproximatesUniform)
{
    Histogram h(0, 100, 100);
    for (int i = 0; i < 100000; ++i)
        h.add(static_cast<double>(i % 100) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.1);
}

TEST(HistogramTest, QuantileOnEmptyReturnsLow)
{
    Histogram h(5, 10, 5);
    EXPECT_EQ(h.quantile(0.5), 5.0);
}

TEST(EwmaTest, FirstSamplePrimes)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.hasValue());
    e.add(10.0);
    EXPECT_TRUE(e.hasValue());
    EXPECT_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesTowardConstant)
{
    Ewma e(0.3);
    e.add(0.0);
    for (int i = 0; i < 50; ++i)
        e.add(5.0);
    EXPECT_NEAR(e.value(), 5.0, 1e-6);
}

TEST(EwmaTest, RejectsBadAlpha)
{
    EXPECT_THROW(Ewma(0.0), std::runtime_error);
    EXPECT_THROW(Ewma(1.5), std::runtime_error);
}

} // namespace
} // namespace tpupoint
