/**
 * @file
 * DBSCAN (Ester et al., 1996) as TPUPoint-Analyzer's second phase
 * detector: sweep the minimum-samples requirement from 5 to 180,
 * measure the ratio of noise (unclustered) points, and pick the
 * elbow that minimizes noise while maximizing the requirement
 * (Section IV-A).
 *
 * Every clustering runs over an eps-neighbourhood graph: a bitset
 * adjacency with one bit per pair (rows^2 / 8 bytes), built once per
 * call and, in the sweep, shared read-only by every min-samples
 * setting.
 *
 * Neighbour queries go through one cell index: the rows bucketed on
 * a grid over the leading min(4, cols) columns, each occupied cell
 * keeping its members' per-column min/max box. A cell is pruned
 * only when a lower bound on its distance exceeds the limit. The
 * bound is squaredDistanceN itself over the indexed columns, from
 * the point to its clamp into the box (or across the gap between
 * two boxes): rounded subtraction is monotone, the kernel sums those
 * leading terms in the same order as the full distance, and later
 * columns only add non-negative terms, so in floating point it never
 * exceeds a computed distance. Pruning therefore needs no tolerance,
 * the grid width (derived from the data) moves only speed, and the
 * graph and eps equal an all-pairs computation bit for bit.
 */

#ifndef TPUPOINT_ANALYZER_DBSCAN_HH
#define TPUPOINT_ANALYZER_DBSCAN_HH

#include <cstddef>
#include <vector>

#include "core/math.hh"

namespace tpupoint {

class ThreadPool;

/** Label assigned to noise points. */
inline constexpr int kDbscanNoise = -1;

/** One DBSCAN clustering. */
struct DbscanResult
{
    std::vector<int> labels;   ///< Cluster id or kDbscanNoise.
    int clusters = 0;          ///< Clusters formed.
    std::size_t noise_points = 0;
    double noise_ratio = 0.0;  ///< noise / total.
    double eps = 0.0;
    std::size_t min_samples = 0;
};

/**
 * Classic DBSCAN with Euclidean eps-neighbourhoods over the rows of
 * @p points: a neighbour is any row with squaredDistanceN <= eps^2,
 * itself included. When @p pool is given the graph build fans out
 * on it as contiguous row runs; the result is the same at any pool
 * size.
 */
DbscanResult dbscanCluster(const Matrix &points, double eps,
                           std::size_t min_samples,
                           ThreadPool *pool = nullptr);

/**
 * Suggest an eps from the data: 1.5x the 90th percentile of each
 * point's 24th-nearest-neighbour distance — dense step clusters
 * sit well inside it, stragglers outside. Each row finds its exact
 * 24-NN through the cell index; with @p pool the rows fan out on it,
 * with the same result at any pool size.
 */
double suggestEps(const Matrix &points, ThreadPool *pool = nullptr);

/** The min-samples sweep plus elbow choice (Figure 5). */
struct DbscanSweep
{
    std::vector<std::size_t> min_samples_values;
    std::vector<double> noise_curve;  ///< Noise ratio per setting.
    std::vector<int> cluster_counts;
    std::size_t elbow_min_samples = 0;
    DbscanResult best; ///< Clustering at the elbow.
};

/**
 * Sweep min_samples over [lo, hi] in the given stride (the paper
 * uses 5..180 step 25) at a fixed eps (0 = suggestEps()).
 *
 * eps and the eps-neighbourhood graph are resolved once before the
 * sweep, and every min-samples setting clusters that shared graph
 * independently into a preassigned slot, so when @p pool is given
 * the graph build and the settings fan out across its workers with
 * output bit-identical to the serial path. An empty range (lo > hi),
 * lo == 0, stride == 0 or a hi within one stride of SIZE_MAX is
 * fatal.
 */
DbscanSweep dbscanSweep(const Matrix &points, double eps = 0.0,
                        std::size_t lo = 5, std::size_t hi = 180,
                        std::size_t stride = 25,
                        ThreadPool *pool = nullptr);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_DBSCAN_HH
