#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/rng.hh"

namespace fcdram {
namespace {

TEST(SplitMix64, IsDeterministic)
{
    EXPECT_EQ(splitMix64(42), splitMix64(42));
    EXPECT_NE(splitMix64(42), splitMix64(43));
}

TEST(SplitMix64, MixesSequentialKeys)
{
    // Sequential keys must not produce sequential outputs.
    const auto a = splitMix64(1);
    const auto b = splitMix64(2);
    EXPECT_GT(a > b ? a - b : b - a, 1000ULL);
}

TEST(HashCombine, OrderSensitive)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(HashCombine, Deterministic)
{
    EXPECT_EQ(hashCombine(7, 9), hashCombine(7, 9));
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(5);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.below(8)] = true;
    for (const bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(19);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(BinomialFromHash, SmallNExact)
{
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto k = binomialFromHash(10, 0.5, hashCombine(29, i));
        EXPECT_LE(k, 10u);
    }
}

TEST(BinomialFromHash, EdgeProbabilities)
{
    EXPECT_EQ(binomialFromHash(100, 0.0, hashCombine(31, 0)), 0u);
    EXPECT_EQ(binomialFromHash(100, 1.0, hashCombine(31, 1)), 100u);
}

TEST(BinomialFromHash, LargeNMean)
{
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        sum += static_cast<double>(binomialFromHash(
            10000, 0.3, hashCombine(37, static_cast<std::uint64_t>(i))));
    }
    EXPECT_NEAR(sum / n, 3000.0, 15.0);
}

TEST(BinomialFromHash, LargeNClamped)
{
    for (std::uint64_t i = 0; i < 2000; ++i)
        EXPECT_LE(binomialFromHash(10000, 0.9999, hashCombine(41, i)),
                  10000u);
}

TEST(BinomialFromHash, SameKeySameValue)
{
    // Both branches: keyed Bernoulli trials and the normal draw.
    for (const std::uint64_t n : {10u, 10000u}) {
        for (std::uint64_t i = 0; i < 100; ++i) {
            const std::uint64_t key = hashCombine(43, i);
            EXPECT_EQ(binomialFromHash(n, 0.3, key),
                      binomialFromHash(n, 0.3, key))
                << "n=" << n;
        }
    }
}

/** Mean and variance of binomialFromHash(n, p) over consecutive keys. */
std::pair<double, double>
binomialMoments(std::uint64_t n, double p, int draws)
{
    double sum = 0.0;
    double sumSq = 0.0;
    for (int i = 0; i < draws; ++i) {
        const auto k = static_cast<double>(binomialFromHash(
            n, p, hashCombine(47, static_cast<std::uint64_t>(i))));
        sum += k;
        sumSq += k * k;
    }
    const double mean = sum / draws;
    return {mean, sumSq / draws - mean * mean};
}

TEST(BinomialFromHash, MeanNearNp)
{
    // n < 64 counts keyed Bernoulli trials; larger n is normal.
    EXPECT_NEAR(binomialMoments(20, 0.3, 20000).first, 6.0, 0.1);
    EXPECT_NEAR(binomialMoments(10000, 0.9, 20000).first, 9000.0, 1.0);
}

TEST(BinomialFromHash, VarianceNearNpq)
{
    // Binomial variance n p (1 - p): 4.2 and 900.
    EXPECT_NEAR(binomialMoments(20, 0.3, 20000).second, 4.2, 0.25);
    EXPECT_NEAR(binomialMoments(10000, 0.9, 20000).second, 900.0, 45.0);
}

} // namespace
} // namespace fcdram
