/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Everything in the simulator that looks random (process variation,
 * per-trial sensing noise, random data patterns) must be reproducible
 * from explicit seeds so that experiments and tests are deterministic.
 * We use SplitMix64 for seeding/hashing and xoshiro256** as the bulk
 * generator, both public-domain algorithms.
 */

#ifndef FCDRAM_COMMON_RNG_HH
#define FCDRAM_COMMON_RNG_HH

#include <cstdint>
#include <string_view>

namespace fcdram {

/**
 * SplitMix64 mixing step. Useful both as a seed expander and as a
 * cheap stateless hash for deterministic per-cell variation values.
 * Inline, like hashCombine and uniformFromHash: every drawn cell of
 * a word-parallel op calls them several times.
 *
 * @param x Input state/key.
 * @return Mixed 64-bit value.
 */
inline std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit keys into one (order-sensitive). */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitMix64(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2) +
                           splitMix64(b)));
}

/**
 * Deterministic 64-bit hash of a byte string (a hashCombine fold
 * seeded by @p seed). Process- and platform-independent, unlike
 * std::hash; used for content keys (expression column names, ticket
 * content hashes).
 */
std::uint64_t hashString(std::string_view text,
                         std::uint64_t seed = 0x5EEDULL);

/**
 * Uniform [0, 1) value derived from a (well-mixed) 64-bit hash key.
 * Stateless: the same key always yields the same value, so draws are
 * independent of evaluation order.
 */
inline double
uniformFromHash(std::uint64_t key)
{
    // The +0.5 offset keeps the value strictly above 0; the top
    // 53 bits of the key select the lattice point.
    double u = (static_cast<double>(key >> 11) + 0.5) * 0x1.0p-53;
    // (2^53 - 1) + 0.5 rounds up to 2^53, which would map to exactly
    // 1.0 and blow up the normal quantile; clamp to the largest
    // sub-1.0 lattice point instead.
    if (u >= 1.0)
        u = 1.0 - 0x1.0p-53;
    return u;
}

/**
 * Standard-normal deviate derived from a 64-bit hash key (uniform
 * through the normal quantile). Stateless and order-independent.
 */
double gaussianFromHash(std::uint64_t key);

/**
 * Binomial(n, p) sample derived from a (well-mixed) 64-bit hash key:
 * n keyed trials for n < 64, else a rounded normal approximation.
 */
std::uint64_t binomialFromHash(std::uint64_t n, double p,
                               std::uint64_t key);

/**
 * Hard bound on |gaussianFromHash|: the 53-bit uniform the quantile
 * sees lies in [2^-54, 1 - 2^-53], whose quantiles are within about
 * +-8.37; 9.0 adds slack for the rational approximation. Margins
 * larger than bound * sigma therefore decide *deterministically*,
 * which the word-parallel executor exploits to skip per-cell draws
 * without changing any outcome (tested in tests/test_wordparallel.cc,
 * CounterNoise.HashNormalBoundHolds).
 */
inline constexpr double kHashNormalBound = 9.0;

/**
 * Per-row sub-stream of an operation's counter-mode noise: folding it
 * with a column (cellNoiseKeyAt) yields the cell's draw key. Bulk
 * consumers hoist this out of their column loops.
 */
inline std::uint64_t
cellNoiseRowStream(std::uint64_t opStream, std::uint64_t row)
{
    return hashCombine(opStream, row);
}

/** Complete a row sub-stream into one cell's noise key. */
inline std::uint64_t
cellNoiseKeyAt(std::uint64_t rowStream, std::uint64_t col)
{
    return hashCombine(rowStream, col);
}

/**
 * Counter-mode noise key of one cell draw: a pure function of the
 * operation sub-stream and the cell coordinates, so per-cell sampling
 * is order-independent and vectorization-safe. Sub-streams are derived
 * as hashCombine(trialSeed, opEpoch) by the executor.
 */
inline std::uint64_t
cellNoiseKey(std::uint64_t opStream, std::uint64_t row,
             std::uint64_t col)
{
    return cellNoiseKeyAt(cellNoiseRowStream(opStream, row), col);
}

/**
 * xoshiro256** pseudo random generator with helpers for the
 * distributions the analog models need.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t below(std::uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

  private:
    std::uint64_t s_[4];
};

} // namespace fcdram

#endif // FCDRAM_COMMON_RNG_HH
