#include "core/stats.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

void
Summary::add(double x)
{
    if (n == 0) {
        smallest = x;
        largest = x;
    } else {
        smallest = std::min(smallest, x);
        largest = std::max(largest, x);
    }
    ++n;
    total += x;
    const double delta = x - running_mean;
    running_mean += delta / static_cast<double>(n);
    m2 += delta * (x - running_mean);
}

void
Summary::merge(const Summary &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double delta = other.running_mean - running_mean;
    const std::uint64_t combined = n + other.n;
    m2 += other.m2 + delta * delta *
        (static_cast<double>(n) * static_cast<double>(other.n)) /
        static_cast<double>(combined);
    running_mean += delta * static_cast<double>(other.n) /
        static_cast<double>(combined);
    total += other.total;
    smallest = std::min(smallest, other.smallest);
    largest = std::max(largest, other.largest);
    n = combined;
}

double
Summary::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
Summary::reset()
{
    *this = Summary();
}

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : low(lo), high(hi),
      width((hi - lo) / static_cast<double>(num_bins ? num_bins : 1)),
      counts(num_bins, 0)
{
    if (num_bins == 0)
        fatal("Histogram requires at least one bin");
    if (!(hi > lo))
        fatal("Histogram range must satisfy hi > lo");
}

void
Histogram::add(double x)
{
    std::size_t bin;
    if (x < low) {
        bin = 0;
    } else if (x >= high) {
        bin = counts.size() - 1;
    } else {
        bin = static_cast<std::size_t>((x - low) / width);
        bin = std::min(bin, counts.size() - 1);
    }
    ++counts[bin];
    ++total_count;
}

std::uint64_t
Histogram::binCount(std::size_t bin) const
{
    if (bin >= counts.size())
        panic("Histogram::binCount: bin out of range");
    return counts[bin];
}

double
Histogram::quantile(double q) const
{
    if (total_count == 0)
        return low;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_count);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double next = cumulative +
            static_cast<double>(counts[i]);
        if (next >= target) {
            const double within = counts[i]
                ? (target - cumulative) /
                    static_cast<double>(counts[i])
                : 0.0;
            return binLow(i) + within * width;
        }
        cumulative = next;
    }
    return high;
}

double
Histogram::binLow(std::size_t bin) const
{
    return low + width * static_cast<double>(bin);
}

Ewma::Ewma(double alpha) : smoothing(alpha)
{
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("Ewma smoothing factor must be in (0, 1]");
}

void
Ewma::add(double x)
{
    if (!primed) {
        current = x;
        primed = true;
    } else {
        current = smoothing * x + (1.0 - smoothing) * current;
    }
}

} // namespace tpupoint
