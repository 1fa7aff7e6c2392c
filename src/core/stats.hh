/**
 * @file
 * Streaming statistics accumulators used throughout the profiler and
 * the platform model: scalar summaries (Welford), fixed-bin
 * histograms, and exponentially weighted moving averages.
 */

#ifndef TPUPOINT_CORE_STATS_HH
#define TPUPOINT_CORE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tpupoint {

/**
 * Streaming scalar summary: count/sum/min/max plus numerically stable
 * mean and variance via Welford's algorithm.
 */
class Summary
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Merge another summary into this one (parallel Welford). */
    void merge(const Summary &other);

    /** Number of samples seen. */
    std::uint64_t count() const { return n; }

    /** Sum of all samples. */
    double sum() const { return total; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n ? running_mean : 0.0; }

    /** Population variance; 0 when fewer than 2 samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample; 0 when empty. */
    double min() const { return n ? smallest : 0.0; }

    /** Largest sample; 0 when empty. */
    double max() const { return n ? largest : 0.0; }

    /** Discard all samples. */
    void reset();

  private:
    std::uint64_t n = 0;
    double total = 0.0;
    double running_mean = 0.0;
    double m2 = 0.0;
    double smallest = 0.0;
    double largest = 0.0;
};

/**
 * Fixed-width histogram over [lo, hi) with out-of-range samples
 * folded into the first/last bin.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first bin.
     * @param hi Upper edge of the last bin; must exceed lo.
     * @param bins Number of bins; must be positive.
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Record one sample. */
    void add(double x);

    /** Count in one bin. */
    std::uint64_t binCount(std::size_t bin) const;

    /** Number of bins. */
    std::size_t bins() const { return counts.size(); }

    /** Total number of samples. */
    std::uint64_t total() const { return total_count; }

    /** Approximate quantile (0..1) by linear bin interpolation. */
    double quantile(double q) const;

    /** Lower edge of bin @p bin. */
    double binLow(std::size_t bin) const;

  private:
    double low;
    double high;
    double width;
    std::vector<std::uint64_t> counts;
    std::uint64_t total_count = 0;
};

/**
 * Exponentially weighted moving average, used by the optimizer's
 * online step-time tracker.
 */
class Ewma
{
  public:
    /** @param alpha Smoothing factor in (0, 1]. */
    explicit Ewma(double alpha);

    /** Record one sample. */
    void add(double x);

    /** Current smoothed value; 0 before the first sample. */
    double value() const { return primed ? current : 0.0; }

    /** Whether at least one sample has arrived. */
    bool hasValue() const { return primed; }

  private:
    double smoothing;
    double current = 0.0;
    bool primed = false;
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_STATS_HH
