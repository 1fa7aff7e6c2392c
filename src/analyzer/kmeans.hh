/**
 * @file
 * k-means clustering, implemented the way TPUPoint-Analyzer (and
 * SimPoint before it) uses it: cluster step feature vectors for
 * k = 1..15, compute the sum of squared distances to centroids per
 * k, and pick k with the elbow method (Section IV-A).
 *
 * Lloyd's assignment step skips points with Hamerly's bounds
 * ("Making k-means even faster", SDM 2010): per point an upper bound
 * on the distance to its centroid and a lower bound on the distance
 * to any other, per centroid half the distance to its nearest other,
 * all moved by the centroid drift after each update. Bounds are
 * rounded outward by a fixed relative margin far above the kernel's
 * rounding error, and a point is skipped only when its upper bound
 * clears the larger lower bound by that margin too, so the exact
 * scan (strict `<`, ties to the lower index) could not have moved
 * it. Labels, centroids, iterations and SSD equal textbook Lloyd's
 * bit for bit.
 */

#ifndef TPUPOINT_ANALYZER_KMEANS_HH
#define TPUPOINT_ANALYZER_KMEANS_HH

#include <cstdint>
#include <vector>

#include "core/math.hh"
#include "core/rng.hh"

namespace tpupoint {

class ThreadPool;

/** One k-means clustering. */
struct KMeansResult
{
    int k = 0;
    std::vector<int> labels;              ///< Per-point cluster id.
    std::vector<FeatureVector> centroids;
    double ssd = 0.0;  ///< Sum of squared distances to centroids.
    int iterations = 0;
};

/**
 * Lloyd's algorithm with k-means++ seeding and Hamerly-bounded
 * assignment. Assignment distances stride the matrix's contiguous
 * rows.
 *
 * @param points Observations, one per row; an empty matrix is
 *     fatal.
 * @param k Clusters; clamped to the number of points.
 * @param rng Seeding source (deterministic given a seed).
 * @param max_iterations Lloyd iteration cap.
 */
KMeansResult kMeansCluster(const Matrix &points, int k, Rng &rng,
                           int max_iterations = 100);

/** The k = k_min..k_max sweep plus the elbow choice (Figure 4). */
struct KMeansSweep
{
    std::vector<int> k_values;
    std::vector<double> ssd_curve;
    int elbow_k = 0;
    KMeansResult best; ///< The clustering at elbow_k.
};

/**
 * Run the full sweep of Section IV-A stages 2-3.
 *
 * Every k in the sweep draws from its own Rng(seed + k) stream and
 * writes a preassigned result slot, so when @p pool is given the
 * per-k clusterings fan out across its workers and the sweep stays
 * bit-identical to the serial path (pool == nullptr or inline).
 */
KMeansSweep kMeansSweep(const Matrix &points, int k_min, int k_max,
                        std::uint64_t seed = 0x6b6d65616e73ULL,
                        ThreadPool *pool = nullptr);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_KMEANS_HH
