#include "analyzer/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** k-means++ initial centroid selection over row-major data. */
std::vector<FeatureVector>
seedCentroids(const Matrix &points, int k, Rng &rng)
{
    const std::size_t rows = points.rows();
    const std::size_t dim = points.cols();
    std::vector<FeatureVector> centroids;
    centroids.reserve(static_cast<std::size_t>(k));
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
            // All remaining points coincide with centroids.
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

/**
 * Relative slack on every Hamerly bound, and the margin a skip must
 * clear. squaredDistanceN's rounding error is about (cols + 3) ulps,
 * far below it for any column count a Matrix can hold.
 */
constexpr double kBoundMargin = 1e-6;

/**
 * Bounds below this never justify a skip: far above the range where
 * squared distances underflow and lose their relative accuracy.
 */
constexpr double kMinSkipBound = 1e-100;

/** A lower bound on the distance behind @p d2; 0 if not finite. */
double
lowerDistance(double d2)
{
    const double d = std::sqrt(d2) * (1.0 - kBoundMargin);
    return std::isfinite(d) ? d : 0.0;
}

/** An upper bound on the distance behind @p d2; +inf if not finite. */
double
upperDistance(double d2)
{
    const double d = std::sqrt(d2) * (1.0 + kBoundMargin);
    return std::isfinite(d) ? d : kInfinity;
}

/**
 * True when the exact scan is certain to keep a point's centroid:
 * every other centroid is at least @p bound away and its own at most
 * @p upper, with room to spare for the rounding of the distances.
 */
bool
skipCertain(double upper, double bound)
{
    return bound >= kMinSkipBound &&
        upper * (1.0 + kBoundMargin) < bound;
}

/** The exact assignment scan's outcome for one point. */
struct Nearest
{
    int best = 0;
    double best_d2 = 0.0;
    double second_d2 = kInfinity;  ///< Nearest other centroid.
};

/**
 * The exact assignment scan: every centroid measured in index
 * order, a strict `<` resolving ties to the lower index.
 */
Nearest
nearestCentroid(const double *point,
                const std::vector<FeatureVector> &centroids,
                std::size_t dim)
{
    Nearest n;
    n.best_d2 = squaredDistanceN(point, centroids[0].data(), dim);
    for (std::size_t c = 1; c < centroids.size(); ++c) {
        const double d =
            squaredDistanceN(point, centroids[c].data(), dim);
        if (d < n.best_d2) {
            n.second_d2 = n.best_d2;
            n.best_d2 = d;
            n.best = static_cast<int>(c);
        } else if (d < n.second_d2) {
            n.second_d2 = d;
        }
    }
    return n;
}

} // namespace

KMeansResult
kMeansCluster(const Matrix &points, int k, Rng &rng,
              int max_iterations)
{
    const std::size_t rows = points.rows();
    if (rows == 0)
        fatal("kMeansCluster: empty data set");
    k = std::max(1,
                 std::min<int>(k, static_cast<int>(rows)));

    KMeansResult result;
    result.k = k;
    result.centroids = seedCentroids(points, k, rng);
    result.labels.assign(rows, 0);

    const std::size_t dim = points.cols();
    const auto uk = static_cast<std::size_t>(k);
    // Hamerly's bounds: upper[i] >= the distance from point i to its
    // centroid, lower[i] <= the distance to any other; half_gap[c] is
    // half the distance from centroid c to its nearest other.
    std::vector<double> upper(rows), lower(rows);
    std::vector<double> half_gap(uk), drift(uk);
    for (int iter = 0; iter < max_iterations; ++iter) {
        bool changed = false;
        // Assignment step.
        for (std::size_t i = 0; i < rows; ++i) {
            const double *point = points.rowPtr(i);
            const auto a = static_cast<std::size_t>(result.labels[i]);
            if (iter > 0) {
                const double bound = std::max(half_gap[a], lower[i]);
                if (skipCertain(upper[i], bound))
                    continue;
                upper[i] = upperDistance(squaredDistanceN(
                    point, result.centroids[a].data(), dim));
                if (skipCertain(upper[i], bound))
                    continue;
            }
            const Nearest n =
                nearestCentroid(point, result.centroids, dim);
            upper[i] = upperDistance(n.best_d2);
            lower[i] = lowerDistance(n.second_d2);
            if (result.labels[i] != n.best) {
                result.labels[i] = n.best;
                changed = true;
            }
        }
        result.iterations = iter + 1;
        if (!changed && iter > 0)
            break;

        // Update step.
        std::vector<FeatureVector> sums(uk, FeatureVector(dim, 0.0));
        std::vector<std::size_t> counts(uk, 0);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto label =
                static_cast<std::size_t>(result.labels[i]);
            addN(sums[label].data(), points.rowPtr(i), dim);
            ++counts[label];
        }
        for (std::size_t c = 0; c < uk; ++c) {
            drift[c] = 0.0;
            if (counts[c] == 0)
                continue; // keep the stale centroid
            scaleInPlace(sums[c], 1.0 / static_cast<double>(counts[c]));
            drift[c] = upperDistance(squaredDistanceN(
                sums[c].data(), result.centroids[c].data(), dim));
            result.centroids[c] = std::move(sums[c]);
        }

        // Move the bounds by the drift: a point's centroid moved at
        // most drift[a] closer or farther, any other at most the
        // largest other drift closer.
        std::size_t far = 0;
        double far_drift = 0.0, next_drift = 0.0;
        for (std::size_t c = 0; c < uk; ++c) {
            if (drift[c] > far_drift) {
                next_drift = far_drift;
                far_drift = drift[c];
                far = c;
            } else if (drift[c] > next_drift) {
                next_drift = drift[c];
            }
        }
        for (std::size_t i = 0; i < rows; ++i) {
            const auto a = static_cast<std::size_t>(result.labels[i]);
            const double other = a == far ? next_drift : far_drift;
            upper[i] = (upper[i] + drift[a]) * (1.0 + kBoundMargin);
            lower[i] = lower[i] * (1.0 - kBoundMargin) -
                other * (1.0 + kBoundMargin);
        }
        for (std::size_t c = 0; c < uk; ++c) {
            half_gap[c] = kInfinity;
            for (std::size_t o = 0; o < uk; ++o) {
                if (o != c)
                    half_gap[c] = std::min(
                        half_gap[c],
                        0.5 * lowerDistance(squaredDistanceN(
                                  result.centroids[c].data(),
                                  result.centroids[o].data(), dim)));
            }
        }
    }

    result.ssd = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        result.ssd += squaredDistanceN(
            points.rowPtr(i),
            result.centroids[static_cast<std::size_t>(
                result.labels[i])].data(),
            dim);
    }
    return result;
}

KMeansSweep
kMeansSweep(const Matrix &points, int k_min, int k_max,
            std::uint64_t seed, ThreadPool *pool)
{
    if (k_min < 1 || k_max < k_min)
        fatal("kMeansSweep: invalid k range");
    const std::size_t count =
        static_cast<std::size_t>(k_max - k_min + 1);
    KMeansSweep sweep;
    sweep.k_values.resize(count);
    sweep.ssd_curve.resize(count);
    std::vector<KMeansResult> all(count);
    std::vector<double> ks(count);

    // Each k is fully independent: its own Rng(seed + k) stream and
    // a preassigned slot keyed by k, so scheduling order cannot
    // change the result — parallel and serial sweeps are
    // bit-identical.
    auto run_k = [&](int k) {
        const std::size_t slot =
            static_cast<std::size_t>(k - k_min);
        Rng rng(seed + static_cast<std::uint64_t>(k));
        all[slot] = kMeansCluster(points, k, rng);
        sweep.k_values[slot] = k;
        sweep.ssd_curve[slot] = all[slot].ssd;
        ks[slot] = static_cast<double>(k);
    };
    // Largest k first: Lloyd iterations at k = k_max dominate the
    // sweep, so scheduling them first shortens the makespan when
    // the pool fans out (slots are preassigned, so the visit order
    // never shows in the result).
    runtime::poolMap(
        pool, count,
        [&](std::size_t i) { run_k(k_max - static_cast<int>(i)); },
        "analyze.kmeans.k");

    const std::size_t idx = elbowIndex(ks, sweep.ssd_curve);
    sweep.elbow_k = sweep.k_values[idx];
    sweep.best = all[idx];
    return sweep;
}

} // namespace tpupoint
