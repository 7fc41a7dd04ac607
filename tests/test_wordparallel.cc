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
#include <set>
#include <string>
#include <utility>
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
    bender.execute(ops.buildRowClone(0, composeRow(geometry, 0, 0),
                                     composeRow(geometry, 0, 1)));
    reads.push_back(bender.readRow(0, composeRow(geometry, 0, 1)));

    // Frac initialization (interrupted restore -> analog lane).
    const RowId frac_row = composeRow(geometry, 1, 3);
    ops.fracInit(0, frac_row, {});

    // In-subarray MAJ with the Frac tiebreaker.
    std::vector<BitVector> operands(patterns.begin(),
                                    patterns.begin() + 3);
    const auto maj = test::runMaj(bender, 0, composeRow(geometry, 1, 0),
                                  composeRow(geometry, 1, 5), operands);
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

/**
 * Several words per row ending in a partial tail word (200 = 3 * 64 +
 * 8 columns), with 512-row subarrays so the decoder reaches its 16:16
 * and 16:32 neighbor shapes and its 32-row SiMRA groups.
 */
GeometryConfig
multiWordGeometry()
{
    GeometryConfig geometry = GeometryConfig::tiny();
    geometry.rowsPerSubarray = 512;
    geometry.columns = 200;
    return geometry;
}

/** Global ids of @p locals in @p subarray. */
std::vector<RowId>
globalRows(const GeometryConfig &geometry, SubarrayId subarray,
           const std::vector<RowId> &locals)
{
    std::vector<RowId> rows;
    for (const RowId local : locals)
        rows.push_back(composeRow(geometry, subarray, local));
    return rows;
}

/** Readbacks of one run plus the activation shapes it exercised. */
struct ShapeRun
{
    std::vector<BitVector> reads;
    std::vector<std::string> shapes;
};

/**
 * Drive every activation shape the chip's decoder offers: NOT on each
 * NRF:NRL shape up to 32 destinations (sequential on Samsung), N:N
 * logic with all four ops for each N, RowClone onto each SiMRA group
 * and MAJ over it, and multi-row writes. Every other NOT and each
 * RowClone first turns a destination into a Frac lane row. Ops rotate
 * over neighbor pairs of both parities and orders.
 */
ShapeRun
exerciseShapes(Chip &chip, ExecMode mode)
{
    DramBender bender(chip, /*sessionSeed=*/11, mode);
    Ops ops(bender);
    const GeometryConfig &geometry = chip.geometry();
    const RowDecoder &decoder = chip.decoder();
    const auto columns = static_cast<std::size_t>(geometry.columns);
    constexpr std::pair<SubarrayId, SubarrayId> kNeighborPairs[] = {
        {1, 2}, {2, 1}, {0, 1}, {3, 2}};
    std::size_t pick = 0;
    Rng rng(0x5A9E);
    ShapeRun run;
    const auto fill_random = [&](const std::vector<RowId> &rows) {
        for (const RowId row : rows) {
            BitVector bits(columns);
            bits.randomize(rng);
            bender.writeRow(0, row, bits);
        }
    };
    const auto read_all = [&](const std::vector<RowId> &rows) {
        for (const RowId row : rows)
            run.reads.push_back(bender.readRow(0, row));
    };

    for (int nrf = 1; nrf <= 16; nrf *= 2) {
        for (const int nrl : {nrf, 2 * nrf}) {
            const auto pairs = findActivationPairs(
                chip, nrf, nrl, 1,
                0x4E07 + static_cast<std::uint64_t>(nrf * 64 + nrl));
            if (pairs.empty())
                continue;
            const auto [rf, rl] = pairs.front();
            const auto [src_sa, dst_sa] = kNeighborPairs[pick++ % 4];
            const ActivationSets sets =
                decoder.neighborActivation(rf, rl);
            const auto first = globalRows(geometry, src_sa,
                                          sets.firstRows);
            const auto second = globalRows(geometry, dst_sa,
                                           sets.secondRows);
            fill_random(first);
            fill_random(second);
            const RowId dst = composeRow(geometry, dst_sa, rl);
            const bool frac =
                pick % 2 == 0 && ops.fracInit(0, dst, second);
            ops.executeNot(0, composeRow(geometry, src_sa, rf), dst);
            read_all(first);
            read_all(second);
            run.shapes.push_back(
                std::string(frac ? "Frac " : "") +
                (sets.sequential ? "NOT seq " : "NOT ") +
                std::to_string(nrf) + ":" + std::to_string(nrl));
        }
    }

    for (int n = 1; n <= chip.profile().maxLogicInputs(); n *= 2) {
        const auto pairs = findActivationPairs(
            chip, n, n, 1, 0x10C1 + static_cast<std::uint64_t>(n));
        if (pairs.empty())
            continue;
        const auto [rf, rl] = pairs.front();
        const ActivationSets sets = decoder.neighborActivation(rf, rl);
        for (const BoolOp op : {BoolOp::And, BoolOp::Nand, BoolOp::Or,
                                BoolOp::Nor}) {
            const auto [ref_sa, com_sa] = kNeighborPairs[pick++ % 4];
            const auto ref = globalRows(geometry, ref_sa,
                                        sets.firstRows);
            const auto com = globalRows(geometry, com_sa,
                                        sets.secondRows);
            if (!ops.initReference(0, op, ref))
                continue;
            fill_random(com);
            ops.executeLogic(0, composeRow(geometry, ref_sa, rf),
                             composeRow(geometry, com_sa, rl), ref, com);
            read_all(ref);
            read_all(com);
            run.shapes.push_back("logic " + std::to_string(n) + ":" +
                                 std::to_string(n));
        }

        // Multi-row write through the same unrestored activation,
        // one compute row a Frac lane row.
        const auto [ref_sa, com_sa] = kNeighborPairs[pick++ % 4];
        const auto ref = globalRows(geometry, ref_sa, sets.firstRows);
        const auto com = globalRows(geometry, com_sa, sets.secondRows);
        fill_random(ref);
        fill_random(com);
        ops.fracInit(0, com.back(), com);
        BitVector data(columns);
        data.randomize(rng);
        ProgramBuilder builder = bender.newProgram();
        builder.act(0, composeRow(geometry, ref_sa, rf), 0.0)
            .pre(0, kViolatedGapTargetNs)
            .act(0, composeRow(geometry, com_sa, rl),
                 kViolatedGapTargetNs)
            .writeNominal(0, composeRow(geometry, com_sa, rl), data)
            .preNominal(0);
        bender.execute(builder.build());
        read_all(ref);
        read_all(com);
        run.shapes.push_back("write " + std::to_string(n) + ":" +
                             std::to_string(n));
    }

    for (int k = 2; k <= decoder.maxSameSubarrayRows(); k *= 2) {
        const auto pairs = findSimraPairs(
            chip, k, 1, 0x51A4 + static_cast<std::uint64_t>(k));
        if (pairs.empty())
            continue;
        const auto [rf, rl] = pairs.front();
        const auto sa = static_cast<SubarrayId>(pick++ % 4);
        const auto group = globalRows(
            geometry, sa, decoder.sameSubarrayActivation(rf, rl));
        const RowId src = composeRow(geometry, sa, rf);
        fill_random(group);
        const bool frac = ops.fracInit(
            0, group.front() == src ? group.back() : group.front(),
            group).has_value();
        bender.execute(
            ops.buildRowClone(0, src, composeRow(geometry, sa, rl)));
        read_all(group);
        run.shapes.push_back(std::string(frac ? "Frac " : "") +
                             "RowClone " + std::to_string(k));
        // MAJ3 with balancing constants, and the widest MAJ.
        std::vector<int> operand_counts;
        if (k >= 4)
            operand_counts.push_back(3);
        if (k - 1 > 3)
            operand_counts.push_back(k - 1);
        for (const int m : operand_counts) {
            std::vector<BitVector> operands;
            for (int i = 0; i < m; ++i) {
                BitVector bits(columns);
                bits.randomize(rng);
                operands.push_back(bits);
            }
            const auto maj = test::runMaj(
                bender, 0, src, composeRow(geometry, sa, rl), operands);
            if (!maj.has_value())
                continue;
            run.reads.push_back(*maj);
            read_all(group);
            run.shapes.push_back("MAJ" + std::to_string(m) + " " +
                                 std::to_string(k));
        }
    }
    return run;
}

TEST(WordParallelExecutor, BitIdenticalOnEveryActivationShape)
{
    std::vector<ChipProfile> profiles = profilesUnderTest();
    profiles.push_back(test::idealProfileN2N());
    std::set<std::string> covered;
    for (const ChipProfile &profile : profiles) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            Chip fast_chip(profile, multiWordGeometry(), seed);
            Chip scalar_chip(profile, multiWordGeometry(), seed);
            const ShapeRun fast =
                exerciseShapes(fast_chip, ExecMode::WordParallel);
            const ShapeRun scalar =
                exerciseShapes(scalar_chip, ExecMode::ScalarReference);
            const std::string where =
                profile.label() + " seed " + std::to_string(seed);
            ASSERT_EQ(fast.shapes, scalar.shapes) << where;
            ASSERT_EQ(fast.reads.size(), scalar.reads.size()) << where;
            for (std::size_t i = 0; i < fast.reads.size(); ++i) {
                EXPECT_EQ(fast.reads[i], scalar.reads[i])
                    << where << " readback " << i;
            }
            EXPECT_EQ(voltageDump(fast_chip), voltageDump(scalar_chip))
                << where << ": analog state diverged";
            covered.insert(fast.shapes.begin(), fast.shapes.end());
        }
    }
    // The decoder shapes the comparison must have reached somewhere.
    for (const char *shape :
         {"NOT 1:1", "NOT 16:16", "Frac NOT 16:32",
          "NOT seq 1:1", "logic 2:2", "logic 16:16", "write 16:16",
          "Frac RowClone 2", "Frac RowClone 32", "MAJ3 4",
          "MAJ31 32"}) {
        EXPECT_TRUE(covered.count(shape) != 0) << shape;
    }
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
    if (active.classifyMargins == scalar.classifyMargins)
        GTEST_SKIP() << "active kernel set is scalar ("
                     << active.name << ")";

    Rng rng(0x51D3);
    for (int iteration = 0; iteration < 50; ++iteration) {
        const std::size_t n = 1 + rng.next() % 300;
        const double bound = rng.uniform() * 0.12;
        // Mostly spread margins, plus some exactly on +-bound.
        std::vector<double> margins(n);
        for (double &m : margins) {
            const std::uint64_t pick = rng.next() % 8;
            m = pick == 0   ? bound
                : pick == 1 ? -bound
                            : (rng.uniform() - 0.5) * 0.4;
        }

        const std::size_t words = (n + 63) / 64;
        std::vector<std::uint64_t> det_a(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> det_b(words, ~std::uint64_t{0});
        std::vector<std::uint32_t> amb_a(n), amb_b(n);
        std::size_t count_a = 0, count_b = 0;

        scalar.classifyMargins(margins.data(), n, bound, det_a.data(),
                               amb_a.data(), &count_a);
        active.classifyMargins(margins.data(), n, bound, det_b.data(),
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
