/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * exponential-bucket histograms for the toolchain's own telemetry.
 * The hot-path contract is the one production metric libraries
 * offer: instruments are registered once (under a lock) and then
 * held by pointer/reference, so recording is a single relaxed
 * atomic operation with no lock and no lookup. Everything here
 * measures the *tools* (events spooled, retries performed, jobs
 * completed) — nothing feeds back into simulated time, so metrics
 * can never perturb a run's determinism.
 */

#ifndef TPUPOINT_OBS_METRICS_HH
#define TPUPOINT_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tpupoint {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n to the counter (relaxed; hot-path safe). */
    void
    add(std::uint64_t n = 1)
    {
        total.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current value. */
    std::uint64_t
    value() const
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Reset to zero (tests and per-run dumps). */
    void reset() { total.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> total{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        current.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return current.load(std::memory_order_relaxed);
    }

    void reset() { current.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> current{0};
};

/** Histogram bucketing: fixed exponential boundaries. */
struct HistogramOptions
{
    /** Upper bound of the first bucket. */
    std::uint64_t first_bound = 1;

    /** Ratio between consecutive bucket bounds (>= 2). */
    std::uint64_t growth = 2;

    /** Finite buckets; one implicit overflow bucket follows. */
    std::size_t buckets = 20;
};

/** Point-in-time copy of one histogram. */
struct HistogramData
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> bucket_counts; ///< +1 overflow.
};

/**
 * Fixed-exponential-bucket histogram. Bucket i counts observations
 * v <= first_bound * growth^i; the final (overflow) bucket counts
 * everything larger. observe() is lock-free: one bounded scan over
 * precomputed bounds plus three atomic adds, the last of which
 * (the observation count) is the release that publishes the other
 * two to acquiring readers.
 */
class Histogram
{
  public:
    explicit Histogram(const HistogramOptions &options = {});

    /** Record one observation. */
    void observe(std::uint64_t value);

    /**
     * Observations recorded. Acquire-paired with observe()'s
     * final release increment: read count() first and the
     * subsequent sum()/bucketCount() reads cover at least those
     * observations — no torn count-without-sum snapshots.
     */
    std::uint64_t
    count() const
    {
        return observations.load(std::memory_order_acquire);
    }

    /** Sum of all observations. */
    std::uint64_t
    sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Inclusive upper bounds, one per finite bucket. */
    const std::vector<std::uint64_t> &bounds() const
    {
        return upper_bounds;
    }

    /** Count in bucket @p index (bounds().size() = overflow). */
    std::uint64_t bucketCount(std::size_t index) const;

    /** Index of the bucket @p value falls into. */
    std::size_t bucketIndex(std::uint64_t value) const;

    /** Copy of the current count, sum and buckets. */
    HistogramData data() const;

    /** Reset all buckets (tests and per-run dumps). */
    void reset();

  private:
    std::vector<std::uint64_t> upper_bounds;
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> observations{0};
    std::atomic<std::uint64_t> total{0};
};

/** Point-in-time copy of every instrument, for tests and dumps. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;

    using HistogramData = obs::HistogramData;
    std::map<std::string, HistogramData> histograms;

    /**
     * Counter value, or @p fallback when the counter was never
     * registered — the common test/bench shape ("how many sessions
     * were shed?" where the answer may legitimately be "the
     * counter never fired").
     */
    std::uint64_t
    counterOr(const std::string &name,
              std::uint64_t fallback = 0) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? fallback : it->second;
    }

    /** Gauge value, or @p fallback when never registered. */
    std::int64_t
    gaugeOr(const std::string &name,
            std::int64_t fallback = 0) const
    {
        const auto it = gauges.find(name);
        return it == gauges.end() ? fallback : it->second;
    }
};

/**
 * Approximate quantile from bucketed data: the inclusive upper
 * bound of the bucket holding the @p q-th observation (q in 0..1 —
 * 0.99 for a p99). Bucketed data can only bound the true quantile,
 * so this reports the conservative (upper) edge; an observation
 * landing in the overflow bucket reports the last finite bound,
 * a *lower* bound on the truth. Zero observations report 0.
 * q outside [0, 1] (including NaN) clamps: non-positive and NaN
 * behave as q=0 (the first occupied bucket's bound), q >= 1 as the
 * last occupied bucket's bound.
 */
double histogramQuantile(const HistogramData &data, double q);

/**
 * Registry names are flat strings; the serve path labels
 * per-session instruments by appending "{key=value}" to the base
 * name ("analyzer.ingest_bytes_per_sec{session=run1}"). This
 * splits that convention back apart for exposition formats that
 * carry labels natively. Labels are comma-separated, '=' splits
 * key from value, values are raw (a session name containing ','
 * or '=' does not round-trip — the spool naming contract). A name
 * without '{' has no labels.
 */
struct ParsedMetricName
{
    std::string base;
    std::vector<std::pair<std::string, std::string>> labels;
};
ParsedMetricName parseMetricName(std::string_view name);

/** OpenMetrics label-value escaping (exposed for tests). */
std::string escapeLabelValue(std::string_view value);

/**
 * The registry. Instruments are created on first use and live for
 * the process; the returned references stay valid forever, which is
 * what makes the cache-the-pointer hot-path pattern safe.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &global();

    /** Get or create the named counter. */
    Counter &counter(std::string_view name);

    /** Get or create the named gauge. */
    Gauge &gauge(std::string_view name);

    /**
     * Get or create the named histogram. Options apply only on
     * creation; later calls return the existing instrument.
     */
    Histogram &histogram(std::string_view name,
                         const HistogramOptions &options = {});

    /** Copy every instrument's current value. */
    MetricsSnapshot snapshot() const;

    /** Zero every instrument (registrations survive). */
    void reset();

    /**
     * Dump as JSON: {"counters":{...},"gauges":{...},
     * "histograms":{name:{count,sum,buckets:[{le,count}...]}}}.
     * Field order is stable (name-sorted) for golden tests.
     */
    void writeJson(std::ostream &out, bool pretty = false) const;

    /** Dump as "name value" lines, counters then gauges then
     * histogram summaries. */
    void writeText(std::ostream &out) const;

    /**
     * The named histogram, or nullptr when it was never registered
     * (never creates one).
     */
    const Histogram *findHistogram(std::string_view name) const;

    /**
     * Render every instrument as OpenMetrics text into @p out,
     * replacing its contents (its capacity is reused), straight
     * from the instruments under the registration lock: no
     * snapshot. Conventions: metric names sanitized to
     * [a-zA-Z0-9_:] (dots become underscores), counters suffixed
     * `_total`, histograms expanded to cumulative
     * `_bucket{le="..."}` samples (closing with le="+Inf") plus
     * `_sum` and `_count`, label values escaped per the spec
     * ('\' -> '\\', '"' -> '\"', newline -> '\n'), one `# TYPE`
     * line per metric family, and a final `# EOF` terminator.
     * Counters, then gauges, then histograms, each name-sorted, so
     * the output is golden-pinnable.
     */
    void writeOpenMetrics(std::string &out) const;

  private:
    /**
     * One instrument with its exposition name parts, sanitized and
     * escaped once at registration.
     */
    template <typename Instrument> struct Entry
    {
        std::unique_ptr<Instrument> instrument;
        std::string family; ///< Sanitized base name.
        std::string labels; ///< `{key="value",...}`, or empty.
    };
    template <typename Instrument>
    using EntryMap =
        std::map<std::string, Entry<Instrument>, std::less<>>;

    template <typename Instrument, typename... Args>
    static Instrument &getOrCreate(EntryMap<Instrument> &entries,
                                   std::string_view name,
                                   Args &&...args);

    mutable std::mutex registration;
    EntryMap<Counter> counters;
    EntryMap<Gauge> gauges;
    EntryMap<Histogram> histograms;
};

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_METRICS_HH
