/**
 * @file
 * Scalar-vs-word-parallel executor equivalence.
 *
 * The word-parallel executor (packed rail rows, sparse analog lanes,
 * deterministic-margin short circuits) must be bit-identical to the
 * cell-at-a-time scalar reference at pinned seeds, because both draw
 * counter-based noise keyed by (trial stream, op epoch, row, col)
 * rather than from a sequential generator. These tests drive every
 * analog mechanism (NOT, N-input logic, RowClone, in-subarray MAJ,
 * Frac initialization, interrupted restore, multi-row writes) across
 * the manufacturer profiles and compare the full analog state of the
 * chip plus every readback. The SIMD kernels the word-parallel hot
 * paths dispatch to are checked bit-exact against their scalar
 * reference on randomized inputs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bender/bender.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "fcdram/ops.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

/** Every cell voltage of a chip, flattened for exact comparison. */
std::vector<Volt>
voltageDump(const Chip &chip)
{
    const GeometryConfig &geometry = chip.geometry();
    std::vector<Volt> dump;
    dump.reserve(static_cast<std::size_t>(geometry.numBanks) *
                 static_cast<std::size_t>(geometry.rowsPerBank()) *
                 static_cast<std::size_t>(geometry.columns));
    for (BankId bank = 0;
         bank < static_cast<BankId>(geometry.numBanks); ++bank) {
        const Bank &bank_ref = chip.bank(bank);
        for (RowId row = 0;
             row < static_cast<RowId>(geometry.rowsPerBank()); ++row) {
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                dump.push_back(bank_ref.cellVolt(row, col));
            }
        }
    }
    return dump;
}

/**
 * Drive one chip through every mechanism the executor models and
 * return all readbacks. The command sequence is identical for both
 * modes; all randomness comes from the pinned chip/session seeds.
 */
std::vector<BitVector>
exerciseChip(Chip &chip, ExecMode mode)
{
    DramBender bender(chip, /*sessionSeed=*/7, mode);
    Ops ops(bender);
    const GeometryConfig &geometry = chip.geometry();
    const auto columns = static_cast<std::size_t>(geometry.columns);
    std::vector<BitVector> reads;

    // Seed a few rows with random data.
    Rng rng(0xDA7A);
    std::vector<BitVector> patterns;
    for (int i = 0; i < 6; ++i) {
        BitVector pattern(columns);
        pattern.randomize(rng);
        patterns.push_back(pattern);
    }
    for (int sa = 0; sa < 3; ++sa) {
        for (RowId local = 0; local < 2; ++local) {
            bender.writeRow(
                0, composeRow(geometry, static_cast<SubarrayId>(sa),
                              local),
                patterns[static_cast<std::size_t>(sa * 2) + local]);
        }
    }

    // Cross-subarray NOT (restored source, violated destination).
    const RowId not_src = composeRow(geometry, 1, 0);
    const RowId not_dst = composeRow(geometry, 2, 0);
    ops.executeNot(0, not_src, not_dst);
    reads.push_back(bender.readRow(0, not_dst));

    // Cross-subarray N-input logic (unrestored charge share).
    const Program logic =
        ops.buildDoubleAct(0, composeRow(geometry, 1, 1),
                           composeRow(geometry, 2, 1));
    bender.execute(logic);
    reads.push_back(bender.readRow(0, composeRow(geometry, 2, 1)));

    // Same-subarray RowClone.
    ops.executeRowClone(0, composeRow(geometry, 0, 0),
                        composeRow(geometry, 0, 1));
    reads.push_back(bender.readRow(0, composeRow(geometry, 0, 1)));

    // Frac initialization (interrupted restore -> analog lane).
    const RowId frac_row = composeRow(geometry, 1, 3);
    ops.fracInit(0, frac_row, {});

    // In-subarray MAJ with the Frac tiebreaker.
    std::vector<BitVector> operands(patterns.begin(),
                                    patterns.begin() + 3);
    const auto maj = ops.executeMaj(0, composeRow(geometry, 1, 0),
                                    composeRow(geometry, 1, 5),
                                    operands);
    if (maj.has_value())
        reads.push_back(*maj);

    // Multi-row write through a glitched neighbor activation.
    ProgramBuilder builder = bender.newProgram();
    builder.act(0, composeRow(geometry, 1, 0), 0.0)
        .pre(0, kViolatedGapTargetNs)
        .act(0, composeRow(geometry, 2, 0), kViolatedGapTargetNs)
        .writeNominal(0, composeRow(geometry, 2, 0), patterns[5])
        .preNominal(0);
    bender.execute(builder.build());
    reads.push_back(bender.readRow(0, composeRow(geometry, 2, 0)));

    // Partial restore of an off-rail cell (Frac progression).
    ProgramBuilder partial = bender.newProgram();
    partial.act(0, frac_row, 0.0).pre(0, 6.0).pre(0, 40.0);
    bender.execute(partial.build());
    reads.push_back(bender.readRow(0, frac_row));

    return reads;
}

/** The designs the paper characterizes, one per capability class. */
std::vector<ChipProfile>
profilesUnderTest()
{
    return {
        ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666),
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133),
        ChipProfile::make(Manufacturer::Samsung, 4, 'F', 8, 2666),
        ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666),
    };
}

TEST(WordParallelExecutor, BitIdenticalToScalarReferenceAllProfiles)
{
    for (const ChipProfile &profile : profilesUnderTest()) {
        Chip fast_chip(profile, GeometryConfig::tiny(), 1);
        Chip scalar_chip(profile, GeometryConfig::tiny(), 1);
        const auto fast_reads =
            exerciseChip(fast_chip, ExecMode::WordParallel);
        const auto scalar_reads =
            exerciseChip(scalar_chip, ExecMode::ScalarReference);

        ASSERT_EQ(fast_reads.size(), scalar_reads.size())
            << profile.label();
        for (std::size_t i = 0; i < fast_reads.size(); ++i) {
            EXPECT_EQ(fast_reads[i], scalar_reads[i])
                << profile.label() << " readback " << i;
        }
        EXPECT_EQ(voltageDump(fast_chip), voltageDump(scalar_chip))
            << profile.label() << ": analog state diverged";
    }
}

TEST(WordParallelExecutor, BitIdenticalOnIdealProfile)
{
    // The noiseless profile exercises the deterministic-margin fast
    // paths (everything lands outside the noise bound).
    Chip fast_chip(test::idealProfile(), test::tinyGeometry(), 1);
    Chip scalar_chip(test::idealProfile(), test::tinyGeometry(), 1);
    const auto fast_reads =
        exerciseChip(fast_chip, ExecMode::WordParallel);
    const auto scalar_reads =
        exerciseChip(scalar_chip, ExecMode::ScalarReference);
    ASSERT_EQ(fast_reads.size(), scalar_reads.size());
    for (std::size_t i = 0; i < fast_reads.size(); ++i)
        EXPECT_EQ(fast_reads[i], scalar_reads[i]) << "readback " << i;
    EXPECT_EQ(voltageDump(fast_chip), voltageDump(scalar_chip));
}

TEST(WordParallelExecutor, RepeatedRunsAreDeterministic)
{
    // Counter-based noise: the same pinned seeds give the same
    // results on every run, independent of mode.
    const ChipProfile profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666);
    Chip a(profile, GeometryConfig::tiny(), 9);
    Chip b(profile, GeometryConfig::tiny(), 9);
    EXPECT_EQ(exerciseChip(a, ExecMode::WordParallel),
              exerciseChip(b, ExecMode::WordParallel));
    EXPECT_EQ(voltageDump(a), voltageDump(b));
}

TEST(CounterNoise, DrawsAreOrderIndependent)
{
    // A draw is a pure function of its key: evaluating cells in any
    // order (or skipping some entirely, as the word-parallel path
    // does) cannot perturb the others.
    const std::uint64_t stream = hashCombine(123, 456);
    std::vector<double> forward;
    for (RowId row = 0; row < 8; ++row) {
        for (ColId col = 0; col < 64; ++col)
            forward.push_back(
                gaussianFromHash(cellNoiseKey(stream, row, col)));
    }
    std::vector<double> reversed;
    for (RowId row = 8; row-- > 0;) {
        for (ColId col = 64; col-- > 0;) {
            reversed.push_back(
                gaussianFromHash(cellNoiseKey(stream, row, col)));
        }
    }
    for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(forward[i],
                  reversed[forward.size() - 1 - i]);
    }
}

TEST(CounterNoise, HashNormalBoundHolds)
{
    // The deterministic-margin short circuit is only sound if no key
    // can produce a deviate beyond the bound. Probe the lattice
    // extremes plus a sweep.
    const std::uint64_t extremes[] = {
        0,
        ~std::uint64_t{0},
        std::uint64_t{1} << 11,
        (~std::uint64_t{0}) << 11,
        (~std::uint64_t{0}) >> 1,
    };
    for (const std::uint64_t key : extremes) {
        EXPECT_LE(std::abs(gaussianFromHash(key)), kHashNormalBound)
            << key;
        EXPECT_GT(uniformFromHash(key), 0.0);
        EXPECT_LT(uniformFromHash(key), 1.0);
    }
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t key = rng.next();
        EXPECT_LE(std::abs(gaussianFromHash(key)), kHashNormalBound);
    }
}

TEST(SimdKernels, ClassifyMarginsMatchesScalar)
{
    const simd::Kernels &scalar = simd::scalarKernels();
    const simd::Kernels &active = simd::activeKernels();
    if (active.classifyMarginsByClass == scalar.classifyMarginsByClass)
        GTEST_SKIP() << "active kernel set is scalar ("
                     << active.name << ")";

    Rng rng(0x51D3);
    for (int iteration = 0; iteration < 50; ++iteration) {
        const std::size_t n = 1 + rng.next() % 300;
        std::vector<std::uint8_t> classes(n);
        for (auto &c : classes)
            c = static_cast<std::uint8_t>(rng.next() % 3);
        double margins3[3];
        for (double &m : margins3)
            m = (rng.uniform() - 0.5) * 0.4;
        const double bound = rng.uniform() * 0.12;

        const std::size_t words = (n + 63) / 64;
        std::vector<std::uint64_t> det_a(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> det_b(words, ~std::uint64_t{0});
        std::vector<std::uint32_t> amb_a(n), amb_b(n);
        std::size_t count_a = 0, count_b = 0;

        scalar.classifyMarginsByClass(classes.data(), n, margins3,
                                      bound, det_a.data(),
                                      amb_a.data(), &count_a);
        active.classifyMarginsByClass(classes.data(), n, margins3,
                                      bound, det_b.data(),
                                      amb_b.data(), &count_b);

        EXPECT_EQ(det_a, det_b) << "iteration " << iteration;
        ASSERT_EQ(count_a, count_b) << "iteration " << iteration;
        for (std::size_t i = 0; i < count_a; ++i)
            EXPECT_EQ(amb_a[i], amb_b[i]) << "iteration " << iteration;
    }
}

TEST(SimdKernels, BlendTowardRailMatchesScalar)
{
    const simd::Kernels &scalar = simd::scalarKernels();
    const simd::Kernels &active = simd::activeKernels();
    if (active.blendTowardRail == scalar.blendTowardRail)
        GTEST_SKIP() << "active kernel set is scalar ("
                     << active.name << ")";

    Rng rng(0xB73D);
    for (int iteration = 0; iteration < 50; ++iteration) {
        const std::size_t n = 1 + rng.next() % 500;
        std::vector<float> values(n);
        for (auto &v : values)
            v = static_cast<float>(rng.uniform() * kVdd);
        std::vector<float> a = values, b = values;
        const double progress = rng.uniform();
        const double band = rng.uniform() * 0.05;

        scalar.blendTowardRail(a.data(), n, progress, band);
        active.blendTowardRail(b.data(), n, progress, band);
        EXPECT_EQ(a, b) << "iteration " << iteration;
    }
}

} // namespace
} // namespace fcdram
