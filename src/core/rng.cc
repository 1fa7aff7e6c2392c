#include "core/rng.hh"

#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

namespace {

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 mixer(seed);
    for (auto &word : state)
        word = mixer.next();
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

double
Rng::nextDouble()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded called with bound 0");
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = nextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = nextU64();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextGaussian()
{
    if (have_spare_gaussian) {
        have_spare_gaussian = false;
        return spare_gaussian;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_gaussian = v * factor;
    have_spare_gaussian = true;
    return u * factor;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * nextGaussian());
}

bool
Rng::bernoulli(double p)
{
    return nextDouble() < p;
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        panic("Rng::exponential requires a positive rate");
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -std::log(u) / rate;
}

} // namespace tpupoint
