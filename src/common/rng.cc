#include "common/rng.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/mathutil.hh"

namespace fcdram {

std::uint64_t
hashString(std::string_view text, std::uint64_t seed)
{
    std::uint64_t hash = splitMix64(seed);
    for (const char c : text) {
        hash = hashCombine(
            hash, splitMix64(static_cast<unsigned char>(c)));
    }
    return hash;
}

double
gaussianFromHash(std::uint64_t key)
{
    const double g = normalQuantile(uniformFromHash(key));
    assert(std::abs(g) <= kHashNormalBound);
    return g;
}

std::uint64_t
binomialFromHash(std::uint64_t n, double p, std::uint64_t key)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    if (n < 64) {
        std::uint64_t count = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            count += uniformFromHash(hashCombine(key, i)) < p ? 1 : 0;
        return count;
    }
    // Normal approximation, rounded to the nearest count; adequate for
    // the 10,000-trial success-rate sampling the characterization uses.
    const double mean = static_cast<double>(n) * p;
    const double sigma = std::sqrt(mean * (1.0 - p));
    const double sample = std::round(mean + sigma * gaussianFromHash(key));
    return static_cast<std::uint64_t>(
        std::clamp(sample, 0.0, static_cast<double>(n)));
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_) {
        x = splitMix64(x);
        word = x;
    }
    // xoshiro must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace fcdram
