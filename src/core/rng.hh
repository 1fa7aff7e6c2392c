/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component of TPUPoint's platform model draws from
 * a seeded xoshiro256** stream so that whole experiments replay
 * bit-for-bit. SplitMix64 expands a single user seed into stream
 * state, and child streams can be forked for independent components.
 */

#ifndef TPUPOINT_CORE_RNG_HH
#define TPUPOINT_CORE_RNG_HH

#include <array>
#include <cstdint>

namespace tpupoint {

/**
 * SplitMix64: a tiny, high-quality 64-bit mixer used for seeding.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** PRNG. Fast, 256-bit state, passes BigCrush; the
 * workhorse generator for all simulated variability.
 */
class Rng
{
  public:
    /** Construct from a single seed (expanded with SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x7450506f696e74ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Standard normal via Marsaglia polar method. */
    double nextGaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Log-normal sample whose *underlying* normal has the given mu
     * and sigma; used for long-tailed host op durations.
     */
    double logNormal(double mu, double sigma);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /** Exponential with the given rate (lambda). */
    double exponential(double rate);

  private:
    std::array<std::uint64_t, 4> state;
    bool have_spare_gaussian = false;
    double spare_gaussian = 0.0;
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_RNG_HH
