#include "analyzer/dbscan.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** Bits per adjacency word. */
constexpr std::size_t kWordBits = 64;

/** suggestEps()'s neighbour rank (the 24-NN radius). */
constexpr std::size_t kSuggestRank = 24;

/** Leading columns the cell index buckets on. */
constexpr std::size_t kIndexedCols = 4;

/** Grid levels: level L cuts each indexed column into 2^L bins. */
constexpr unsigned kGridLevels = 15;

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
 * Run @p row_fn(i) for every row, the rows cut into one contiguous
 * run per pool task. Every row owns its output, so the result is the
 * same at any pool size.
 */
template <typename RowFn>
void
forRowRuns(ThreadPool *pool, std::size_t rows, const char *label,
           const RowFn &row_fn)
{
    const std::size_t tasks = std::min(poolTasks(pool), rows);
    runtime::poolMap(pool, tasks, [&](std::size_t t) {
        for (std::size_t i = rows * t / tasks;
             i < rows * (t + 1) / tasks; ++i)
            row_fn(i);
    }, label);
}

/**
 * The rows bucketed on a grid over the leading min(4, cols) columns,
 * each occupied cell keeping its members' per-column min/max box.
 * Rows with a non-finite indexed coordinate share one extra cell
 * whose box is unbounded, so no bound ever prunes it.
 *
 * The grid is square over the widest indexed column's range. Its
 * level is the finest of 0..kGridLevels whose occupied cells number
 * at most 4 sqrt(rows): the width only moves speed, never an
 * answer, because every pruning test below is a lower bound.
 */
class CellIndex
{
  public:
    explicit CellIndex(const Matrix &points);

    std::size_t cells() const { return starts.size() - 1; }
    std::size_t cellOf(std::size_t row) const { return cell_of[row]; }

    /** Cell @p c's rows, ascending. */
    std::span<const std::size_t> rowsOf(std::size_t c) const
    {
        return {members.data() + starts[c], starts[c + 1] - starts[c]};
    }

    /**
     * A lower bound on squaredDistanceN(p, q, cols) for every row q
     * of cell @p c: squaredDistanceN itself over the indexed columns,
     * from @p p to p clamped into the cell's box. Each clamped
     * difference is at most the matching |p - q| difference (rounded
     * subtraction is monotone), the kernel sums those leading terms
     * in the same order and code as the full distance, and every
     * later term is non-negative, so the bound never exceeds the
     * computed distance.
     */
    double pointBound(const double *p, std::size_t c) const;

    /**
     * Every cell paired with its box bound from cell @p c, ascending
     * (ties by cell id). The box bound is a lower bound on
     * squaredDistanceN(p, q, cols) for every row p of @p c and q of
     * the other cell: the kernel over the gaps between the two boxes
     * (zero where they overlap), by pointBound()'s argument.
     */
    std::span<const std::pair<double, std::size_t>>
    byBound(std::size_t c) const
    {
        return {by_bound.data() + c * cells(), cells()};
    }

  private:
    double boxBound(std::size_t a, std::size_t b) const;

    std::size_t dims = 0;  ///< Indexed columns.
    std::vector<std::size_t> cell_of;
    std::vector<std::size_t> starts;   ///< cells() + 1 offsets.
    std::vector<std::size_t> members;  ///< Rows, cell by cell.
    std::vector<double> lo;            ///< cells() x dims.
    std::vector<double> hi;            ///< cells() x dims.
    /// cells() x cells(): byBound() of each cell in turn.
    std::vector<std::pair<double, std::size_t>> by_bound;
};

CellIndex::CellIndex(const Matrix &points)
    : dims(std::min(kIndexedCols, points.cols())),
      cell_of(points.rows())
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::size_t rows = points.rows();
    const auto finiteRow = [&](std::size_t i) {
        const double *p = points.rowPtr(i);
        return std::all_of(p, p + dims,
                           [](double x) { return std::isfinite(x); });
    };
    std::vector<double> low(dims, kInf), high(dims, -kInf);
    for (std::size_t i = 0; i < rows; ++i) {
        if (!finiteRow(i))
            continue;
        for (std::size_t c = 0; c < dims; ++c) {
            low[c] = std::min(low[c], points.rowPtr(i)[c]);
            high[c] = std::max(high[c], points.rowPtr(i)[c]);
        }
    }
    double range = 0.0;
    for (std::size_t c = 0; c < dims; ++c)
        range = std::max(range, high[c] - low[c]);
    const bool gridded = std::isfinite(range) && range > 0.0;

    // Key each finite row by its finest-level bins, interleaved bit
    // by bit from the top, so a level-L cell is a key prefix and the
    // sorted keys group every level's cells contiguously. Non-finite
    // rows take a key no finite row can have (those use <= 60 bits).
    constexpr double kBins = static_cast<double>(1u << kGridLevels);
    constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        std::uint64_t key = kUnbounded;
        if (finiteRow(i)) {
            std::uint64_t bins[kIndexedCols] = {};
            for (std::size_t c = 0; c < dims && gridded; ++c)
                bins[c] = static_cast<std::uint64_t>(std::min(
                    std::floor((points.rowPtr(i)[c] - low[c]) / range *
                               kBins),
                    kBins - 1));
            key = 0;
            for (unsigned bit = kGridLevels; bit-- > 0;)
                for (std::size_t c = 0; c < dims; ++c)
                    key = key << 1 | (bins[c] >> bit & 1);
        }
        keyed[i] = {key, i};
    }
    std::sort(keyed.begin(), keyed.end());

    const auto shiftFor = [&](unsigned level) {
        return static_cast<unsigned>(dims) * (kGridLevels - level);
    };
    const auto occupied = [&](unsigned level) {
        const unsigned shift = shiftFor(level);
        std::size_t count = 0;
        for (std::size_t r = 0; r < rows; ++r)
            count += r == 0 || (keyed[r].first >> shift) !=
                (keyed[r - 1].first >> shift);
        return count;
    };
    const auto cap = static_cast<std::size_t>(
        4.0 * std::sqrt(static_cast<double>(rows)));
    unsigned level = 0;
    while (gridded && level < kGridLevels &&
           occupied(level + 1) <= cap)
        ++level;

    const unsigned shift = shiftFor(level);
    starts.push_back(0);
    for (std::size_t r = 0; r < rows; ++r) {
        if (r > 0 && (keyed[r].first >> shift) !=
                         (keyed[r - 1].first >> shift))
            starts.push_back(r);
        members.push_back(keyed[r].second);
        cell_of[keyed[r].second] = starts.size() - 1;
    }
    if (rows > 0)
        starts.push_back(rows);
    lo.assign(cells() * dims, kInf);
    hi.assign(cells() * dims, -kInf);
    for (std::size_t c = 0; c < cells(); ++c) {
        for (const std::size_t row : rowsOf(c)) {
            for (std::size_t d = 0; d < dims; ++d) {
                const double x = points.rowPtr(row)[d];
                lo[c * dims + d] = std::min(lo[c * dims + d], x);
                hi[c * dims + d] = std::max(hi[c * dims + d], x);
            }
        }
    }
    if (rows > 0 && keyed.back().first == kUnbounded) {
        std::fill(lo.end() - static_cast<std::ptrdiff_t>(dims),
                  lo.end(), -kInf);
        std::fill(hi.end() - static_cast<std::ptrdiff_t>(dims),
                  hi.end(), kInf);
    }
    by_bound.reserve(cells() * cells());
    for (std::size_t a = 0; a < cells(); ++a) {
        for (std::size_t b = 0; b < cells(); ++b)
            by_bound.emplace_back(boxBound(a, b), b);
        std::sort(by_bound.end() - static_cast<std::ptrdiff_t>(cells()),
                  by_bound.end());
    }
}

double
CellIndex::pointBound(const double *p, std::size_t c) const
{
    double clamped[kIndexedCols];
    for (std::size_t d = 0; d < dims; ++d)
        clamped[d] = std::clamp(p[d], lo[c * dims + d],
                                hi[c * dims + d]);
    return squaredDistanceN(p, clamped, dims);
}

double
CellIndex::boxBound(std::size_t a, std::size_t b) const
{
    double gap[kIndexedCols];
    const double zero[kIndexedCols] = {};
    for (std::size_t d = 0; d < dims; ++d)
        gap[d] = std::max({lo[b * dims + d] - hi[a * dims + d],
                           lo[a * dims + d] - hi[b * dims + d], 0.0});
    return squaredDistanceN(gap, zero, dims);
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

/**
 * Build the graph from the cell index: each row measures only the
 * rows of cells whose bound is within eps^2 and sets bits in its own
 * adjacency row, so rows fan out on @p pool with no merge. Pruned
 * cells hold only rows farther than eps (the bounds are lower
 * bounds), and squaredDistanceN is exactly symmetric, so the graph
 * is the all-pairs graph bit for bit at any pool size.
 */
EpsGraph
buildEpsGraph(const Matrix &points, const CellIndex &index,
              double eps2, ThreadPool *pool)
{
    EpsGraph g;
    g.rows = points.rows();
    g.words = wordsFor(g.rows);
    g.bits.assign(g.rows * g.words, 0);
    g.degree.assign(g.rows, 0);
    const std::size_t dim = points.cols();

    forRowRuns(pool, g.rows, "analyze.dbscan.graph",
               [&](std::size_t i) {
        const double *pi = points.rowPtr(i);
        std::uint64_t *row = g.row(i);
        for (const auto &[box_bound, c] : index.byBound(index.cellOf(i))) {
            if (box_bound > eps2)
                break;
            if (index.pointBound(pi, c) > eps2)
                continue;
            for (const std::size_t j : index.rowsOf(c)) {
                if (squaredDistanceN(pi, points.rowPtr(j), dim) <= eps2)
                    row[j / kWordBits] |= std::uint64_t{1}
                        << (j % kWordBits);
            }
        }
        std::size_t degree = 0;
        for (std::size_t w = 0; w < g.words; ++w)
            degree += static_cast<std::size_t>(std::popcount(row[w]));
        g.degree[i] = degree;
    });
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
 * suggestEps() over a built index: each row finds its exact
 * k-nearest squared distance (itself excluded) in a bounded max-heap,
 * visiting cells in ascending box-to-box bound from its own and
 * skipping a cell once the heap is full and the cell's bound exceeds
 * its k-th distance. A skipped cell holds only farther rows, so the
 * k-th distance is exact and, row by row, the same at any pool size.
 */
double
suggestEps(const Matrix &points, const CellIndex &index,
           ThreadPool *pool)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    // Use a 24-NN radius: wide enough that steady-state training
    // steps (which dominate every run) form a dense core across
    // the whole min-samples sweep, as in the paper's Figure 5.
    const std::size_t k = std::min(kSuggestRank, rows - 1);

    std::vector<double> kth_distances(rows);
    forRowRuns(pool, rows, "analyze.dbscan.suggest_eps",
               [&](std::size_t i) {
        const double *pi = points.rowPtr(i);
        double heap[kSuggestRank] = {};
        std::size_t size = 0;
        for (const auto &[box_bound, c] : index.byBound(index.cellOf(i))) {
            if (size == k && box_bound > heap[0])
                break;
            if (size == k && index.pointBound(pi, c) > heap[0])
                continue;
            for (const std::size_t j : index.rowsOf(c)) {
                if (j == i)
                    continue;
                const double d2 =
                    squaredDistanceN(pi, points.rowPtr(j), dim);
                if (size < k) {
                    heap[size++] = d2;
                    std::push_heap(heap, heap + size);
                } else if (d2 < heap[0]) {
                    std::pop_heap(heap, heap + k);
                    heap[k - 1] = d2;
                    std::push_heap(heap, heap + k);
                }
            }
        }
        // sqrt is monotone, so the root of the k-th smallest squared
        // distance is the k-th smallest distance, bit for bit.
        kth_distances[i] = std::sqrt(heap[0]);
    });

    std::sort(kth_distances.begin(), kth_distances.end());
    const std::size_t p90 = (kth_distances.size() * 9) / 10;
    const double eps = 1.5 *
        kth_distances[std::min(p90, kth_distances.size() - 1)];
    return eps > 0 ? eps : 1.0;
}

} // namespace

double
suggestEps(const Matrix &points, ThreadPool *pool)
{
    return suggestEps(points, CellIndex(points), pool);
}

DbscanResult
dbscanCluster(const Matrix &points, double eps,
              std::size_t min_samples, ThreadPool *pool)
{
    if (eps <= 0)
        fatal("dbscanCluster: eps must be positive");
    if (min_samples == 0)
        fatal("dbscanCluster: min_samples must be positive");
    return clusterGraph(
        buildEpsGraph(points, CellIndex(points), eps * eps, pool),
        eps, min_samples);
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
    const CellIndex index(points);
    if (eps <= 0)
        eps = suggestEps(points, index, pool);
    const EpsGraph graph =
        buildEpsGraph(points, index, eps * eps, pool);

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

} // namespace tpupoint
