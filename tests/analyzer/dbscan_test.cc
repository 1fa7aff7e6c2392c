/** @file DBSCAN clustering and the min-samples sweep. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "analyzer/dbscan.hh"
#include "analyzer/elbow.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"

namespace tpupoint {
namespace {

/** Two dense blobs plus a few stragglers. */
std::vector<FeatureVector>
blobsWithNoise()
{
    Rng rng(1);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 50; ++i)
        points.push_back({rng.gaussian(0, 0.5),
                          rng.gaussian(0, 0.5)});
    for (int i = 0; i < 50; ++i)
        points.push_back({rng.gaussian(20, 0.5),
                          rng.gaussian(20, 0.5)});
    // Stragglers far from both blobs.
    points.push_back({100, -100});
    points.push_back({-100, 100});
    points.push_back({60, 60});
    return points;
}

TEST(DbscanTest, FindsBlobsAndMarksNoise)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 3.0, 5);
    EXPECT_EQ(result.clusters, 2);
    EXPECT_EQ(result.noise_points, 3u);
    EXPECT_NEAR(result.noise_ratio, 3.0 / 103.0, 1e-9);
    // Both blobs are internally consistent.
    std::set<int> first_blob, second_blob;
    for (int i = 0; i < 50; ++i) {
        first_blob.insert(result.labels[
            static_cast<std::size_t>(i)]);
        second_blob.insert(result.labels[
            static_cast<std::size_t>(50 + i)]);
    }
    EXPECT_EQ(first_blob.size(), 1u);
    EXPECT_EQ(second_blob.size(), 1u);
    EXPECT_NE(*first_blob.begin(), *second_blob.begin());
    // Stragglers carry the noise label.
    EXPECT_EQ(result.labels[100], kDbscanNoise);
}

TEST(DbscanTest, HighMinSamplesTurnsEverythingToNoise)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 3.0, 80);
    EXPECT_EQ(result.clusters, 0);
    EXPECT_EQ(result.noise_points, points.size());
    EXPECT_DOUBLE_EQ(result.noise_ratio, 1.0);
}

TEST(DbscanTest, HugeEpsMakesOneCluster)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 1e6, 5);
    EXPECT_EQ(result.clusters, 1);
    EXPECT_EQ(result.noise_points, 0u);
}

TEST(DbscanTest, ParameterValidation)
{
    const std::vector<FeatureVector> points{{0}};
    EXPECT_THROW(dbscanCluster(points, 0.0, 5),
                 std::runtime_error);
    EXPECT_THROW(dbscanCluster(points, 1.0, 0),
                 std::runtime_error);
}

TEST(DbscanTest, SuggestEpsCoversClusterScale)
{
    const auto points = blobsWithNoise();
    const double eps = suggestEps(points);
    // Big enough to knit a dense blob, far smaller than the
    // blob separation.
    EXPECT_GT(eps, 0.1);
    EXPECT_LT(eps, 20.0);
}

TEST(DbscanSweepTest, NoiseGrowsWithMinSamples)
{
    const auto points = blobsWithNoise();
    const DbscanSweep sweep = dbscanSweep(points, 3.0, 5, 105, 25);
    ASSERT_EQ(sweep.min_samples_values.size(), 5u);
    // Noise ratio is monotonically non-decreasing in min_samples.
    for (std::size_t i = 1; i < sweep.noise_curve.size(); ++i)
        EXPECT_GE(sweep.noise_curve[i] + 1e-12,
                  sweep.noise_curve[i - 1]);
    // Paper sweep convention: 5..180 step 25.
    EXPECT_EQ(sweep.min_samples_values[0], 5u);
    EXPECT_EQ(sweep.min_samples_values[1], 30u);
    EXPECT_GT(sweep.elbow_min_samples, 0u);
}

TEST(DbscanSweepTest, ZeroStrideRejected)
{
    const std::vector<FeatureVector> points{{0}, {1}};
    EXPECT_THROW(dbscanSweep(points, 1.0, 5, 50, 0),
                 std::runtime_error);
}

/** Expect dbscanSweep(lo, hi, stride) to reject its range up front. */
void
expectInvalidRange(std::size_t lo, std::size_t hi, std::size_t stride)
{
    const std::vector<FeatureVector> points{{0}, {1}};
    try {
        dbscanSweep(points, 1.0, lo, hi, stride);
        ADD_FAILURE() << "range [" << lo << ", " << hi << "] step "
                      << stride << " accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "dbscanSweep: invalid min-samples range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DbscanSweepTest, EmptyRangeRejected)
{
    // No settings would leave the elbow pick an empty curve.
    expectInvalidRange(50, 5, 25);
}

TEST(DbscanSweepTest, ZeroMinSamplesRejected)
{
    // Rejected up front, not from inside a pool task.
    expectInvalidRange(0, 50, 25);
}

TEST(DbscanSweepTest, RangeNearSizeMaxRejected)
{
    // `m += stride` must not wrap past hi and loop forever.
    constexpr std::size_t kMax =
        std::numeric_limits<std::size_t>::max();
    expectInvalidRange(kMax - 30, kMax - 1, 25);
    expectInvalidRange(kMax, kMax, 1);
}

TEST(DbscanTest, BorderPointsJoinCluster)
{
    // A line of points each within eps of the next: core points
    // chain, endpoints become border members.
    std::vector<FeatureVector> points;
    for (int i = 0; i < 10; ++i)
        points.push_back({static_cast<double>(i), 0.0});
    const DbscanResult result = dbscanCluster(points, 1.5, 3);
    EXPECT_EQ(result.clusters, 1);
    EXPECT_EQ(result.noise_points, 0u);
}

// ---- Differential property test ---------------------------------
//
// The oracle below is the textbook per-query DBSCAN: one all-points
// regionQuery per visited point, a duplicate-tolerant FIFO frontier,
// and a suggestEps that takes sqrt of every distance before
// nth_element. The graph-based production code must reproduce it
// bit for bit at every pool size.

namespace oracle {

std::vector<std::size_t>
regionQuery(const Matrix &points, std::size_t center, double eps2)
{
    const double *c = points.rowPtr(center);
    const std::size_t dim = points.cols();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points.rows(); ++i) {
        if (squaredDistanceN(c, points.rowPtr(i), dim) <= eps2)
            out.push_back(i);
    }
    return out;
}

double
suggestEps(const Matrix &points)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    constexpr std::size_t kth = 24;
    std::vector<double> kth_distances;
    std::vector<double> dists;
    for (std::size_t i = 0; i < rows; ++i) {
        dists.clear();
        const double *pi = points.rowPtr(i);
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i) {
                dists.push_back(std::sqrt(squaredDistanceN(
                    pi, points.rowPtr(j), dim)));
            }
        }
        const std::size_t k = std::min(kth, dists.size()) - 1;
        std::nth_element(dists.begin(), dists.begin() +
                         static_cast<std::ptrdiff_t>(k),
                         dists.end());
        kth_distances.push_back(dists[k]);
    }
    std::sort(kth_distances.begin(), kth_distances.end());
    const std::size_t p90 = (kth_distances.size() * 9) / 10;
    const double eps = 1.5 *
        kth_distances[std::min(p90, kth_distances.size() - 1)];
    return eps > 0 ? eps : 1.0;
}

DbscanResult
dbscanCluster(const Matrix &points, double eps,
              std::size_t min_samples)
{
    const std::size_t rows = points.rows();
    DbscanResult result;
    result.eps = eps;
    result.min_samples = min_samples;
    const double eps2 = eps * eps;

    constexpr int kUnvisited = -2;
    result.labels.assign(rows, kUnvisited);
    int next_cluster = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        if (result.labels[i] != kUnvisited)
            continue;
        std::vector<std::size_t> neighbours =
            regionQuery(points, i, eps2);
        if (neighbours.size() < min_samples) {
            result.labels[i] = kDbscanNoise;
            continue;
        }
        const int cluster = next_cluster++;
        result.labels[i] = cluster;
        std::deque<std::size_t> frontier(neighbours.begin(),
                                         neighbours.end());
        while (!frontier.empty()) {
            const std::size_t p = frontier.front();
            frontier.pop_front();
            if (result.labels[p] == kDbscanNoise)
                result.labels[p] = cluster;
            if (result.labels[p] != kUnvisited)
                continue;
            result.labels[p] = cluster;
            std::vector<std::size_t> p_neighbours =
                regionQuery(points, p, eps2);
            if (p_neighbours.size() >= min_samples) {
                frontier.insert(frontier.end(),
                                p_neighbours.begin(),
                                p_neighbours.end());
            }
        }
    }
    result.clusters = next_cluster;
    for (const int label : result.labels)
        if (label == kDbscanNoise)
            ++result.noise_points;
    result.noise_ratio = rows == 0 ? 0.0
        : static_cast<double>(result.noise_points) /
            static_cast<double>(rows);
    return result;
}

DbscanSweep
dbscanSweep(const Matrix &points, double eps, std::size_t lo,
            std::size_t hi, std::size_t stride)
{
    if (eps <= 0)
        eps = oracle::suggestEps(points);
    DbscanSweep sweep;
    std::vector<DbscanResult> all;
    std::vector<double> xs;
    for (std::size_t m = lo; m <= hi; m += stride) {
        all.push_back(oracle::dbscanCluster(points, eps, m));
        sweep.min_samples_values.push_back(m);
        sweep.noise_curve.push_back(all.back().noise_ratio);
        sweep.cluster_counts.push_back(all.back().clusters);
        xs.push_back(static_cast<double>(m));
    }
    const std::size_t idx = elbowIndex(xs, sweep.noise_curve);
    sweep.elbow_min_samples = sweep.min_samples_values[idx];
    sweep.best = all[idx];
    return sweep;
}

} // namespace oracle

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameResult(const DbscanResult &got, const DbscanResult &want)
{
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.clusters, want.clusters);
    EXPECT_EQ(got.noise_points, want.noise_points);
    EXPECT_EQ(bits(got.noise_ratio), bits(want.noise_ratio));
    EXPECT_EQ(bits(got.eps), bits(want.eps));
    EXPECT_EQ(got.min_samples, want.min_samples);
}

void
expectSameSweep(const DbscanSweep &got, const DbscanSweep &want)
{
    EXPECT_EQ(got.min_samples_values, want.min_samples_values);
    ASSERT_EQ(got.noise_curve.size(), want.noise_curve.size());
    for (std::size_t i = 0; i < got.noise_curve.size(); ++i)
        EXPECT_EQ(bits(got.noise_curve[i]), bits(want.noise_curve[i]))
            << "setting " << i;
    EXPECT_EQ(got.cluster_counts, want.cluster_counts);
    EXPECT_EQ(got.elbow_min_samples, want.elbow_min_samples);
    expectSameResult(got.best, want.best);
}

enum class CloudKind { Blobs, Grid, Uniform };

/**
 * A seeded random point cloud. Blobs mixes Gaussian clusters,
 * far stragglers and exact duplicates; Grid draws small-integer
 * coordinates, so duplicates and pairs at exactly an integer eps
 * are everywhere; Uniform fills a box.
 */
Matrix
randomCloud(Rng &rng, std::size_t rows, std::size_t dims,
            CloudKind kind)
{
    Matrix m(rows, dims);
    std::vector<FeatureVector> centres(1 + rng.nextBounded(4),
                                       FeatureVector(dims));
    for (FeatureVector &c : centres)
        for (double &x : c)
            x = rng.uniform(-20, 20);
    const double spread = rng.uniform(0.3, 3.0);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = m.rowPtr(r);
        if (kind == CloudKind::Blobs && r > 0 && rng.bernoulli(0.1)) {
            const double *dup = m.rowPtr(rng.nextBounded(r));
            std::copy(dup, dup + dims, row);
            continue;
        }
        const bool straggler = rng.bernoulli(0.1);
        const FeatureVector &c =
            centres[rng.nextBounded(centres.size())];
        for (std::size_t d = 0; d < dims; ++d) {
            switch (kind) {
              case CloudKind::Blobs:
                row[d] = straggler ? rng.uniform(-100, 100)
                                   : rng.gaussian(c[d], spread);
                break;
              case CloudKind::Grid:
                row[d] = static_cast<double>(rng.nextBounded(5));
                break;
              case CloudKind::Uniform:
                row[d] = rng.uniform(0, 10);
                break;
            }
        }
    }
    return m;
}

TEST(DbscanPropertyTest, MatchesPerQueryOracleAtAnyPoolSize)
{
    constexpr std::size_t kRowCounts[] = {0,  1,  2,   3,   24,
                                          25, 26, 63,  64,  65,
                                          127, 128, 129, 200};
    constexpr CloudKind kKinds[] = {CloudKind::Blobs, CloudKind::Grid,
                                    CloudKind::Uniform};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    for (const unsigned workers : {1u, 2u, 8u})
        pools.push_back(std::make_unique<ThreadPool>(workers));

    // Clusterings seen per shape, so the seeds provably reach both
    // extremes and a mix of clusters and noise.
    int all_noise = 0, one_cluster = 0, mixed = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed);
        const std::size_t rows =
            kRowCounts[seed % std::size(kRowCounts)];
        const CloudKind kind = kKinds[(seed / 7) % std::size(kKinds)];
        const std::size_t dims = 1 + rng.nextBounded(5);
        const Matrix points = randomCloud(rng, rows, dims, kind);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(rows) + " x " +
                     std::to_string(dims) + ", kind " +
                     std::to_string(static_cast<int>(kind)));

        // eps: the suggested radius, an exact grid distance, one so
        // small every point is alone (all noise) or so large that
        // everything is one cluster.
        const double suggested = oracle::suggestEps(points);
        double eps = suggested;
        switch (seed % 4) {
          case 0:
            eps = kind == CloudKind::Grid
                ? static_cast<double>(1 + seed % 3) : suggested;
            break;
          case 1: eps = 0.5 * suggested; break;
          case 2: eps = seed % 8 == 2 ? 1e-9 : 1e6; break;
          default: break;
        }
        const std::size_t min_samples[] = {1, 2, 5, 24, 25,
                                           rows + 1};
        std::vector<DbscanResult> want;
        for (const std::size_t m : min_samples) {
            want.push_back(oracle::dbscanCluster(points, eps, m));
            const DbscanResult &r = want.back();
            all_noise += rows > 0 && r.noise_points == rows;
            one_cluster += r.clusters == 1 && r.noise_points == 0;
            mixed += r.clusters > 1 && r.noise_points > 0;
        }
        // The sweep resolves its own eps half the time.
        const double sweep_eps = seed % 2 == 0 ? 0.0 : eps;
        const DbscanSweep want_fine =
            oracle::dbscanSweep(points, sweep_eps, 1, 30, 4);
        const DbscanSweep want_paper =
            oracle::dbscanSweep(points, sweep_eps, 5, 180, 25);

        for (const auto &pool : pools) {
            SCOPED_TRACE("pool " + std::to_string(
                pool ? pool->workers() : 0u));
            EXPECT_EQ(bits(suggestEps(points, pool.get())),
                      bits(suggested));
            for (std::size_t i = 0; i < std::size(min_samples); ++i) {
                SCOPED_TRACE("min_samples " +
                             std::to_string(min_samples[i]));
                expectSameResult(dbscanCluster(points, eps,
                                               min_samples[i],
                                               pool.get()),
                                 want[i]);
            }
            expectSameSweep(dbscanSweep(points, sweep_eps, 1, 30, 4,
                                        pool.get()),
                            want_fine);
            expectSameSweep(dbscanSweep(points, sweep_eps, 5, 180, 25,
                                        pool.get()),
                            want_paper);
            if (HasFailure())
                return;
        }
    }
    EXPECT_GT(all_noise, 0);
    EXPECT_GT(one_cluster, 0);
    EXPECT_GT(mixed, 0);
}

} // namespace
} // namespace tpupoint
