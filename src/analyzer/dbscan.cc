#include "analyzer/dbscan.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** Bits per adjacency word; row blocks are one word tall. */
constexpr std::size_t kWordBits = 64;

/** suggestEps()'s neighbour rank (the 24-NN radius). */
constexpr std::size_t kSuggestRank = 24;

/**
 * suggestEps() splits the pairs into at most this many tasks, each
 * with its own heaps, to bound the heap memory on wide pools.
 */
constexpr std::size_t kMaxSuggestTasks = 8;

std::size_t
wordsFor(std::size_t bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

/** Tasks to split one pass into: a task per worker, 1 when serial. */
std::size_t
poolTasks(ThreadPool *pool)
{
    return pool != nullptr && !pool->inlineMode() ? pool->workers()
                                                  : 1;
}

/**
 * Cut [0, count) into @p parts contiguous runs of similar
 * upper-triangle work, item i weighing count - i (its pairs with
 * the items after it). Returns each run's start, then count; runs
 * may be empty.
 */
std::vector<std::size_t>
triangleRuns(std::size_t count, std::size_t parts)
{
    std::vector<std::size_t> starts(parts + 1, count);
    starts[0] = 0;
    const double total = 0.5 * static_cast<double>(count) *
        static_cast<double>(count + 1);
    double before = 0.0;
    for (std::size_t i = 0, t = 1; i < count && t < parts; ++i) {
        if (before >= total * static_cast<double>(t) /
                          static_cast<double>(parts))
            starts[t++] = i;
        before += static_cast<double>(count - i);
    }
    return starts;
}

/**
 * The eps-neighbourhood graph as a dense bitset adjacency: bit j of
 * row i is set iff squaredDistanceN(i, j) <= eps^2. The diagonal is
 * measured like any other pair, so degree(i) is exactly the size of
 * point i's eps-neighbourhood (itself included). Costs rows^2 / 8
 * bytes.
 */
struct EpsGraph
{
    std::size_t rows = 0;
    std::size_t words = 0;            ///< Words per row.
    std::vector<std::uint64_t> bits;  ///< rows x words, row-major.
    std::vector<std::size_t> degree;  ///< Popcount of each row.

    std::uint64_t *row(std::size_t i) { return &bits[i * words]; }
    const std::uint64_t *row(std::size_t i) const
    {
        return &bits[i * words];
    }
};

/** Transpose a 64x64 bit tile: bit c of a[r] <-> bit r of a[c]. */
void
transpose64(std::uint64_t a[kWordBits])
{
    std::uint64_t mask = 0x00000000ffffffffULL;
    for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (std::size_t k = 0; k < kWordBits;
             k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

/**
 * Build the graph, measuring each unordered pair once. Rows go in
 * 64-row blocks (block b owns rows 64b.. and column word b), and
 * runs of blocks fan out on @p pool in two passes: block b first
 * measures its rows' upper triangle (j >= i) and mirrors its own
 * diagonal tile, then fills its words c < b by transposing tile
 * (c, b), which no second-pass task writes. squaredDistanceN is
 * exactly symmetric, so the mirror equals a direct measurement and
 * the graph is the same at any pool size.
 */
EpsGraph
buildEpsGraph(const Matrix &points, double eps2, ThreadPool *pool)
{
    EpsGraph g;
    g.rows = points.rows();
    g.words = wordsFor(g.rows);
    g.bits.assign(g.rows * g.words, 0);
    g.degree.assign(g.rows, 0);
    const std::size_t dim = points.cols();
    const double *data = g.rows == 0 ? nullptr : points.rowPtr(0);
    const auto blockRows = [&](std::size_t b) {
        return std::min(kWordBits, g.rows - b * kWordBits);
    };

    auto upper = [&](std::size_t b) {
        const std::size_t first = b * kWordBits;
        const std::size_t count = blockRows(b);
        std::uint64_t tile[kWordBits] = {};
        for (std::size_t r = 0; r < count; ++r) {
            const std::size_t i = first + r;
            const double *pi = data + i * dim;
            std::uint64_t *row = g.row(i);
            for (std::size_t w = b; w < g.words; ++w) {
                const std::size_t end =
                    std::min(g.rows, (w + 1) * kWordBits);
                std::uint64_t word = 0;
                for (std::size_t j = std::max(i, w * kWordBits);
                     j < end; ++j) {
                    const double d2 =
                        squaredDistanceN(pi, data + j * dim, dim);
                    if (d2 <= eps2)
                        word |= std::uint64_t{1} << (j % kWordBits);
                }
                row[w] = word;
            }
            tile[r] = row[b];
        }
        transpose64(tile);
        for (std::size_t r = 0; r < count; ++r)
            g.row(first + r)[b] |= tile[r];
    };

    auto lower = [&](std::size_t b) {
        const std::size_t first = b * kWordBits;
        const std::size_t count = blockRows(b);
        for (std::size_t c = 0; c < b; ++c) {
            std::uint64_t tile[kWordBits];
            for (std::size_t r = 0; r < kWordBits; ++r)
                tile[r] = g.row(c * kWordBits + r)[b];
            transpose64(tile);
            for (std::size_t r = 0; r < count; ++r)
                g.row(first + r)[c] = tile[r];
        }
        for (std::size_t r = 0; r < count; ++r) {
            const std::uint64_t *row = g.row(first + r);
            std::size_t degree = 0;
            for (std::size_t w = 0; w < g.words; ++w)
                degree += static_cast<std::size_t>(
                    std::popcount(row[w]));
            g.degree[first + r] = degree;
        }
    };

    const std::vector<std::size_t> runs =
        triangleRuns(g.words, poolTasks(pool));
    const auto overRuns = [&](const auto &pass) {
        runtime::poolMap(pool, runs.size() - 1, [&](std::size_t t) {
            for (std::size_t b = runs[t]; b < runs[t + 1]; ++b)
                pass(b);
        }, "analyze.dbscan.graph");
    };
    overRuns(upper);
    overRuns(lower);
    return g;
}

/**
 * DBSCAN over a prebuilt graph. The frontier is a FIFO of points in
 * first-reach order: a core point's row is bit-scanned in ascending
 * index order (the order of a classic all-points neighbourhood
 * query) against the points no cluster owns yet, and each reached
 * point is labelled at push time — unvisited points join the
 * frontier, noise points become border members. Every point is
 * pushed at most once, yet the expansion order, labels and cluster
 * ids match the classic duplicate-tolerant queue exactly.
 */
DbscanResult
clusterGraph(const EpsGraph &g, double eps, std::size_t min_samples)
{
    const std::size_t rows = g.rows;
    DbscanResult result;
    result.eps = eps;
    result.min_samples = min_samples;

    constexpr int kUnvisited = -2;
    result.labels.assign(rows, kUnvisited);
    // Points not yet in any cluster (unvisited or noise).
    std::vector<std::uint64_t> open(g.words, ~std::uint64_t{0});
    if (rows % kWordBits != 0)
        open.back() = (std::uint64_t{1} << (rows % kWordBits)) - 1;
    const auto claim = [&](std::size_t p, int cluster) {
        result.labels[p] = cluster;
        open[p / kWordBits] &= ~(std::uint64_t{1} << (p % kWordBits));
    };

    std::vector<std::size_t> frontier;
    frontier.reserve(rows);
    int next_cluster = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        if (result.labels[i] != kUnvisited)
            continue;
        if (g.degree[i] < min_samples) {
            result.labels[i] = kDbscanNoise;
            continue;
        }
        // Grow a new cluster from this core point.
        const int cluster = next_cluster++;
        claim(i, cluster);
        frontier.assign(1, i);
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const std::size_t p = frontier[head];
            if (g.degree[p] < min_samples)
                continue; // border point: reached, not expanded
            const std::uint64_t *row = g.row(p);
            for (std::size_t w = 0; w < g.words; ++w) {
                for (std::uint64_t reach = row[w] & open[w];
                     reach != 0; reach &= reach - 1) {
                    const std::size_t q = w * kWordBits +
                        static_cast<std::size_t>(
                            std::countr_zero(reach));
                    const bool was_noise =
                        result.labels[q] == kDbscanNoise;
                    claim(q, cluster);
                    if (!was_noise)
                        frontier.push_back(q);
                }
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

/**
 * Bounded max-heaps holding the k smallest squared distances offered
 * for each row in [first, rows): one task's share of suggestEps().
 */
class NearestHeaps
{
  public:
    NearestHeaps(std::size_t first, std::size_t rows, std::size_t k)
        : first_row(first), rank(k), values((rows - first) * k),
          sizes(rows - first, 0)
    {
    }

    void
    offer(std::size_t row, double d2)
    {
        double *heap = &values[(row - first_row) * rank];
        std::size_t &size = sizes[row - first_row];
        if (size < rank) {
            heap[size++] = d2;
            std::push_heap(heap, heap + size);
        } else if (d2 < heap[0]) {
            std::pop_heap(heap, heap + rank);
            heap[rank - 1] = d2;
            std::push_heap(heap, heap + rank);
        }
    }

    /** Append @p row's heap contents to @p out (rows >= first). */
    void
    collect(std::size_t row, std::vector<double> &out) const
    {
        if (row < first_row)
            return;
        const double *heap = &values[(row - first_row) * rank];
        out.insert(out.end(), heap, heap + sizes[row - first_row]);
    }

  private:
    std::size_t first_row;
    std::size_t rank;
    std::vector<double> values;
    std::vector<std::size_t> sizes;
};

} // namespace

double
suggestEps(const Matrix &points, ThreadPool *pool)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    // Use a 24-NN radius: wide enough that steady-state training
    // steps (which dominate every run) form a dense core across
    // the whole min-samples sweep, as in the paper's Figure 5.
    const std::size_t k = std::min(kSuggestRank, rows - 1);

    // Each task measures the pairs (i, j > i) of a contiguous run
    // of rows i, cut so the runs hold similar pair counts, and
    // offers every distance to both endpoints' heaps in its own
    // NearestHeaps. The k smallest of a row's multiset survive in
    // the union of the per-task heaps whatever the split, so the
    // answer is the same at any pool size.
    const std::size_t tasks =
        std::min(poolTasks(pool), kMaxSuggestTasks);
    const std::vector<std::size_t> starts = triangleRuns(rows, tasks);
    std::vector<NearestHeaps> heaps;
    heaps.reserve(tasks);
    for (std::size_t t = 0; t < tasks; ++t)
        heaps.emplace_back(starts[t], rows, k);
    const double *data = points.rowPtr(0);
    runtime::poolMap(pool, tasks, [&](std::size_t t) {
        for (std::size_t i = starts[t]; i < starts[t + 1]; ++i) {
            const double *pi = data + i * dim;
            for (std::size_t j = i + 1; j < rows; ++j) {
                const double d2 =
                    squaredDistanceN(pi, data + j * dim, dim);
                heaps[t].offer(i, d2);
                heaps[t].offer(j, d2);
            }
        }
    }, "analyze.dbscan.suggest_eps");

    // sqrt is monotone, so the root of the k-th smallest squared
    // distance is the k-th smallest distance, bit for bit.
    std::vector<double> kth_distances(rows);
    std::vector<double> merged;
    for (std::size_t i = 0; i < rows; ++i) {
        merged.clear();
        for (const NearestHeaps &h : heaps)
            h.collect(i, merged);
        std::nth_element(merged.begin(), merged.begin() +
                         static_cast<std::ptrdiff_t>(k - 1),
                         merged.end());
        kth_distances[i] = std::sqrt(merged[k - 1]);
    }
    std::sort(kth_distances.begin(), kth_distances.end());
    const std::size_t p90 = (kth_distances.size() * 9) / 10;
    const double eps = 1.5 *
        kth_distances[std::min(p90, kth_distances.size() - 1)];
    return eps > 0 ? eps : 1.0;
}

double
suggestEps(const std::vector<FeatureVector> &points)
{
    return suggestEps(Matrix::fromRows(points));
}

DbscanResult
dbscanCluster(const Matrix &points, double eps,
              std::size_t min_samples, ThreadPool *pool)
{
    if (eps <= 0)
        fatal("dbscanCluster: eps must be positive");
    if (min_samples == 0)
        fatal("dbscanCluster: min_samples must be positive");
    return clusterGraph(buildEpsGraph(points, eps * eps, pool), eps,
                        min_samples);
}

DbscanResult
dbscanCluster(const std::vector<FeatureVector> &points, double eps,
              std::size_t min_samples)
{
    return dbscanCluster(Matrix::fromRows(points), eps,
                         min_samples);
}

DbscanSweep
dbscanSweep(const Matrix &points, double eps, std::size_t lo,
            std::size_t hi, std::size_t stride, ThreadPool *pool)
{
    // The bound on hi keeps `m += stride` below from wrapping.
    if (stride == 0 || lo == 0 || lo > hi ||
        hi > std::numeric_limits<std::size_t>::max() - stride)
        fatal("dbscanSweep: invalid min-samples range");
    // Resolve eps and build the graph once, before any fan-out:
    // every setting clusters the same read-only neighbourhoods.
    if (eps <= 0)
        eps = suggestEps(points, pool);
    const EpsGraph graph = buildEpsGraph(points, eps * eps, pool);

    std::vector<std::size_t> settings;
    for (std::size_t m = lo; m <= hi; m += stride)
        settings.push_back(m);

    DbscanSweep sweep;
    sweep.min_samples_values.resize(settings.size());
    sweep.noise_curve.resize(settings.size());
    sweep.cluster_counts.resize(settings.size());
    std::vector<DbscanResult> all(settings.size());
    std::vector<double> xs(settings.size());

    // Settings are independent and write preassigned slots, so the
    // parallel sweep is bit-identical to the serial one.
    auto run_m = [&](std::size_t i) {
        all[i] = clusterGraph(graph, eps, settings[i]);
        sweep.min_samples_values[i] = settings[i];
        sweep.noise_curve[i] = all[i].noise_ratio;
        sweep.cluster_counts[i] = all[i].clusters;
        xs[i] = static_cast<double>(settings[i]);
    };
    runtime::poolMap(pool, settings.size(), run_m,
                     "analyze.dbscan.min_samples");

    const std::size_t idx = elbowIndex(xs, sweep.noise_curve);
    sweep.elbow_min_samples = sweep.min_samples_values[idx];
    sweep.best = all[idx];
    return sweep;
}

DbscanSweep
dbscanSweep(const std::vector<FeatureVector> &points, double eps,
            std::size_t lo, std::size_t hi, std::size_t stride,
            ThreadPool *pool)
{
    return dbscanSweep(Matrix::fromRows(points), eps, lo, hi,
                       stride, pool);
}

} // namespace tpupoint
