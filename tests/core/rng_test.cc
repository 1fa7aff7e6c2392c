/** @file Deterministic RNG behaviour and distribution sanity. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/rng.hh"

namespace tpupoint {
namespace {

TEST(SplitMix64Test, IsDeterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge)
{
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.nextU64() == b.nextU64())
            ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, UniformRespectsBounds)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(RngTest, NextBoundedStaysInRange)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t x = rng.nextBounded(10);
        EXPECT_LT(x, 10u);
        seen.insert(x);
    }
    // Every residue should be hit with 5000 draws.
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextBoundedZeroPanics)
{
    Rng rng(4);
    EXPECT_THROW(rng.nextBounded(0), std::logic_error);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard)
{
    Rng rng(5);
    const int n = 50000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianScalesMeanAndStddev)
{
    Rng rng(6);
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LogNormalIsPositive)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.logNormal(0.0, 0.5), 0.0);
}

TEST(RngTest, LogNormalMedianNearExpMu)
{
    Rng rng(8);
    std::vector<double> samples;
    for (int i = 0; i < 20001; ++i)
        samples.push_back(rng.logNormal(0.0, 0.3));
    std::nth_element(samples.begin(),
                     samples.begin() + 10000, samples.end());
    EXPECT_NEAR(samples[10000], 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP)
{
    Rng rng(9);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ExponentialMeanIsInverseRate)
{
    Rng rng(10);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate)
{
    Rng rng(11);
    EXPECT_THROW(rng.exponential(0.0), std::logic_error);
}

/** Property sweep: bounded generation respects arbitrary bounds. */
class RngBoundedProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundedProperty, AllDrawsBelowBound)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 2654435761u + 1);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.nextBounded(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedProperty,
                         ::testing::Values(1, 2, 3, 7, 10, 100,
                                           1000, 1u << 20,
                                           1ull << 40));

} // namespace
} // namespace tpupoint
