/** @file k-means clustering and the k-sweep. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "analyzer/elbow.hh"
#include "analyzer/kmeans.hh"
#include "core/thread_pool.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::matrixOf;

/** Three well-separated blobs in 2-D. */
Matrix
threeBlobs(int per_blob = 40)
{
    Rng rng(1);
    const double centers[3][2] = {{0, 0}, {50, 0}, {0, 50}};
    std::vector<FeatureVector> points;
    for (const auto &center : centers) {
        for (int i = 0; i < per_blob; ++i) {
            points.push_back({center[0] + rng.gaussian(0, 1),
                              center[1] + rng.gaussian(0, 1)});
        }
    }
    return matrixOf(points);
}

TEST(KMeansTest, SeparatesObviousBlobs)
{
    const auto points = threeBlobs();
    Rng rng(2);
    const KMeansResult result = kMeansCluster(points, 3, rng);
    EXPECT_EQ(result.k, 3);
    // Each blob maps to exactly one label.
    for (int blob = 0; blob < 3; ++blob) {
        std::set<int> labels;
        for (int i = 0; i < 40; ++i)
            labels.insert(result.labels[
                static_cast<std::size_t>(blob * 40 + i)]);
        EXPECT_EQ(labels.size(), 1u);
    }
    // SSD is tiny compared to the blob separation.
    EXPECT_LT(result.ssd, 120 * 10.0);
}

TEST(KMeansTest, KOneCentroidIsTheMean)
{
    const Matrix points = matrixOf({{0, 0}, {2, 2}, {4, 4}});
    Rng rng(3);
    const KMeansResult result = kMeansCluster(points, 1, rng);
    ASSERT_EQ(result.centroids.size(), 1u);
    EXPECT_NEAR(result.centroids[0][0], 2.0, 1e-9);
    EXPECT_NEAR(result.centroids[0][1], 2.0, 1e-9);
}

TEST(KMeansTest, KClampedToPointCount)
{
    const Matrix points = matrixOf({{1}, {2}});
    Rng rng(4);
    const KMeansResult result = kMeansCluster(points, 10, rng);
    EXPECT_EQ(result.k, 2);
}

TEST(KMeansTest, EmptyDataRejected)
{
    Rng rng(5);
    EXPECT_THROW(kMeansCluster(Matrix{}, 2, rng), std::runtime_error);
}

TEST(KMeansTest, DeterministicGivenSeed)
{
    const auto points = threeBlobs();
    Rng a(6), b(6);
    const KMeansResult ra = kMeansCluster(points, 4, a);
    const KMeansResult rb = kMeansCluster(points, 4, b);
    EXPECT_EQ(ra.labels, rb.labels);
    EXPECT_EQ(ra.ssd, rb.ssd);
}

TEST(KMeansSweepTest, SsdDecreasesAndElbowFindsBlobCount)
{
    const auto points = threeBlobs();
    const KMeansSweep sweep = kMeansSweep(points, 1, 10);
    ASSERT_EQ(sweep.ssd_curve.size(), 10u);
    // SSD is (weakly) decreasing in k for well-separated data.
    EXPECT_GT(sweep.ssd_curve[0], sweep.ssd_curve[2]);
    EXPECT_GT(sweep.ssd_curve[2], sweep.ssd_curve[9] - 1e-9);
    // The elbow lands on the true cluster count.
    EXPECT_EQ(sweep.elbow_k, 3);
    EXPECT_EQ(sweep.best.k, 3);
}

TEST(KMeansSweepTest, InvalidRangeRejected)
{
    const auto points = threeBlobs(5);
    EXPECT_THROW(kMeansSweep(points, 0, 5), std::runtime_error);
    EXPECT_THROW(kMeansSweep(points, 5, 2), std::runtime_error);
}

TEST(KMeansTest, IdenticalPointsDegenerate)
{
    const Matrix points =
        matrixOf(std::vector<FeatureVector>(20, FeatureVector{3, 3}));
    Rng rng(7);
    const KMeansResult result = kMeansCluster(points, 3, rng);
    EXPECT_EQ(result.ssd, 0.0);
}

// ---- Differential property test ---------------------------------
//
// The oracle below is textbook Lloyd: k-means++ seeding, then every
// iteration measures every point against every centroid. The
// bounded production code must reproduce it bit for bit.

namespace oracle {

std::vector<FeatureVector>
seedCentroids(const Matrix &points, int k, Rng &rng)
{
    const std::size_t rows = points.rows();
    const std::size_t dim = points.cols();
    std::vector<FeatureVector> centroids;
    centroids.push_back(points.row(rng.nextBounded(rows)));
    std::vector<double> dist2(rows,
                              std::numeric_limits<double>::max());
    while (centroids.size() < static_cast<std::size_t>(k)) {
        double total = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
            dist2[i] = std::min(
                dist2[i],
                squaredDistanceN(points.rowPtr(i),
                                 centroids.back().data(), dim));
            total += dist2[i];
        }
        if (total == 0.0) {
            centroids.push_back(points.row(rng.nextBounded(rows)));
            continue;
        }
        double target = rng.nextDouble() * total;
        std::size_t chosen = rows - 1;
        for (std::size_t i = 0; i < rows; ++i) {
            target -= dist2[i];
            if (target <= 0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points.row(chosen));
    }
    return centroids;
}

KMeansResult
kMeansCluster(const Matrix &points, int k, Rng &rng,
              int max_iterations = 100)
{
    const std::size_t rows = points.rows();
    k = std::max(1, std::min<int>(k, static_cast<int>(rows)));
    KMeansResult result;
    result.k = k;
    result.centroids = seedCentroids(points, k, rng);
    result.labels.assign(rows, 0);
    const std::size_t dim = points.cols();
    const auto uk = static_cast<std::size_t>(k);
    for (int iter = 0; iter < max_iterations; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < rows; ++i) {
            int best = 0;
            double best_d = squaredDistanceN(
                points.rowPtr(i), result.centroids[0].data(), dim);
            for (std::size_t c = 1; c < uk; ++c) {
                const double d = squaredDistanceN(
                    points.rowPtr(i), result.centroids[c].data(), dim);
                if (d < best_d) {
                    best_d = d;
                    best = static_cast<int>(c);
                }
            }
            if (result.labels[i] != best) {
                result.labels[i] = best;
                changed = true;
            }
        }
        result.iterations = iter + 1;
        if (!changed && iter > 0)
            break;
        std::vector<FeatureVector> sums(uk, FeatureVector(dim, 0.0));
        std::vector<std::size_t> counts(uk, 0);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto label =
                static_cast<std::size_t>(result.labels[i]);
            addN(sums[label].data(), points.rowPtr(i), dim);
            ++counts[label];
        }
        for (std::size_t c = 0; c < uk; ++c) {
            if (counts[c] == 0)
                continue;
            scaleInPlace(sums[c], 1.0 / static_cast<double>(counts[c]));
            result.centroids[c] = std::move(sums[c]);
        }
    }
    for (std::size_t i = 0; i < rows; ++i) {
        result.ssd += squaredDistanceN(
            points.rowPtr(i),
            result.centroids[static_cast<std::size_t>(
                result.labels[i])].data(),
            dim);
    }
    return result;
}

} // namespace oracle

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameClustering(const KMeansResult &got, const KMeansResult &want)
{
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(bits(got.ssd), bits(want.ssd));
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    for (std::size_t c = 0; c < got.centroids.size(); ++c) {
        ASSERT_EQ(got.centroids[c].size(), want.centroids[c].size());
        for (std::size_t d = 0; d < got.centroids[c].size(); ++d)
            EXPECT_EQ(bits(got.centroids[c][d]),
                      bits(want.centroids[c][d]))
                << "centroid " << c << ", column " << d;
    }
}

enum class KMeansCloud { Blobs, Grid, FewDistinct, NonFinite };

/**
 * A seeded point cloud. Blobs mixes Gaussian clusters with exact
 * duplicate rows; Grid draws coordinates from {0, 1, 2}, so many
 * points sit exactly midway between two centroids; FewDistinct
 * repeats at most four distinct rows, so large k seeds coincident
 * centroids; NonFinite is Blobs with a few infinite or NaN cells.
 */
Matrix
kMeansCloud(Rng &rng, std::size_t rows, std::size_t dims,
            KMeansCloud kind)
{
    Matrix m(rows, dims);
    std::vector<FeatureVector> centres(1 + rng.nextBounded(4),
                                       FeatureVector(dims));
    for (FeatureVector &c : centres)
        for (double &x : c)
            x = rng.uniform(-10, 10);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = m.rowPtr(r);
        const FeatureVector &c =
            centres[rng.nextBounded(centres.size())];
        if (kind == KMeansCloud::FewDistinct) {
            std::copy(c.begin(), c.end(), row);
            continue;
        }
        if (r > 0 && rng.bernoulli(0.15)) {
            const double *dup = m.rowPtr(rng.nextBounded(r));
            std::copy(dup, dup + dims, row);
            continue;
        }
        for (std::size_t d = 0; d < dims; ++d) {
            row[d] = kind == KMeansCloud::Grid
                ? static_cast<double>(rng.nextBounded(3))
                : rng.gaussian(c[d], 1.0);
        }
    }
    if (kind == KMeansCloud::NonFinite && rows > 0) {
        constexpr double kOdd[] = {
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()};
        for (std::size_t n = 0; n < 1 + rows / 50; ++n)
            m.at(rng.nextBounded(rows), rng.nextBounded(dims)) =
                kOdd[rng.nextBounded(std::size(kOdd))];
    }
    return m;
}

TEST(KMeansPropertyTest, MatchesTextbookLloydAtAnyPoolSize)
{
    constexpr std::size_t kRowCounts[] = {1, 2, 3, 5, 16,
                                          17, 40, 100, 250};
    constexpr KMeansCloud kKinds[] = {
        KMeansCloud::Blobs, KMeansCloud::Grid,
        KMeansCloud::FewDistinct, KMeansCloud::NonFinite};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    for (const unsigned workers : {1u, 2u, 8u})
        pools.push_back(std::make_unique<ThreadPool>(workers));

    for (std::uint64_t seed = 0; seed < 72; ++seed) {
        Rng rng(seed);
        const std::size_t rows =
            kRowCounts[seed % std::size(kRowCounts)];
        const KMeansCloud kind =
            kKinds[(seed / 5) % std::size(kKinds)];
        const std::size_t dims = 1 + rng.nextBounded(16);
        const Matrix points = kMeansCloud(rng, rows, dims, kind);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(rows) + " x " +
                     std::to_string(dims) + ", kind " +
                     std::to_string(static_cast<int>(kind)));

        // The sweep's own streams: Rng(sweep_seed + k) per k.
        const std::uint64_t sweep_seed = 1000 + seed;
        KMeansSweep want;
        std::vector<KMeansResult> want_all;
        std::vector<double> ks;
        for (int k = 1; k <= 15; ++k) {
            Rng k_rng(sweep_seed + static_cast<std::uint64_t>(k));
            want_all.push_back(oracle::kMeansCluster(points, k, k_rng));
            want.k_values.push_back(k);
            want.ssd_curve.push_back(want_all.back().ssd);
            ks.push_back(static_cast<double>(k));

            SCOPED_TRACE("k " + std::to_string(k));
            Rng got_rng(sweep_seed + static_cast<std::uint64_t>(k));
            expectSameClustering(kMeansCluster(points, k, got_rng),
                                 want_all.back());
            // An iteration cap that ends the loop on an update.
            for (const int cap : {1, 2, 3}) {
                Rng want_rng(seed + static_cast<std::uint64_t>(k));
                Rng capped_rng(seed + static_cast<std::uint64_t>(k));
                expectSameClustering(
                    kMeansCluster(points, k, capped_rng, cap),
                    oracle::kMeansCluster(points, k, want_rng, cap));
            }
        }
        const std::size_t idx = elbowIndex(ks, want.ssd_curve);
        want.elbow_k = want.k_values[idx];

        for (const auto &pool : pools) {
            SCOPED_TRACE("pool " + std::to_string(
                pool ? pool->workers() : 0u));
            const KMeansSweep got =
                kMeansSweep(points, 1, 15, sweep_seed, pool.get());
            EXPECT_EQ(got.k_values, want.k_values);
            ASSERT_EQ(got.ssd_curve.size(), want.ssd_curve.size());
            for (std::size_t i = 0; i < got.ssd_curve.size(); ++i)
                EXPECT_EQ(bits(got.ssd_curve[i]),
                          bits(want.ssd_curve[i]))
                    << "k " << got.k_values[i];
            EXPECT_EQ(got.elbow_k, want.elbow_k);
            expectSameClustering(got.best, want_all[idx]);
        }
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace tpupoint
