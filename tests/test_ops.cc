#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "dram/openbitline.hh"
#include "fcdram/golden.hh"
#include "fcdram/ops.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

/** Functional fixture on an ideal (noiseless) chip. */
class OpsFixture : public ::testing::Test
{
  protected:
    OpsFixture()
        : chip_(test::idealProfile(), test::tinyGeometry(), 1),
          bender_(chip_, 7), ops_(bender_)
    {
    }

    const GeometryConfig &geometry() const { return chip_.geometry(); }

    BitVector randomRow(std::uint64_t seed) const
    {
        BitVector v(static_cast<std::size_t>(geometry().columns));
        Rng rng(seed);
        v.randomize(rng);
        return v;
    }

    Chip chip_;
    DramBender bender_;
    Ops ops_;
};

TEST_F(OpsFixture, ExecuteNotReturnsDestinations)
{
    const auto pairs = findActivationPairs(chip_, 1, 1, 1, 3);
    ASSERT_FALSE(pairs.empty());
    const RowId src = composeRow(geometry(), 0, pairs.front().first);
    const RowId dst = composeRow(geometry(), 1, pairs.front().second);
    const BitVector pattern = randomRow(5);
    bender_.writeRow(0, src, pattern);
    bender_.writeRow(0, dst, pattern);
    const auto destinations = ops_.executeNot(0, src, dst);
    ASSERT_EQ(destinations.size(), 1u);
    EXPECT_EQ(destinations.front(), dst);
    const BitVector readback = bender_.readRow(0, dst);
    for (const ColId col : sharedColumns(geometry(), 0, 1))
        EXPECT_NE(readback.get(col), pattern.get(col));
}

TEST_F(OpsFixture, ExecuteRowCloneCopies)
{
    const RowId src = composeRow(geometry(), 2, 8);
    const RowId dst = composeRow(geometry(), 2, 9);
    const BitVector pattern = randomRow(6);
    bender_.writeRow(0, src, pattern);
    bender_.writeRow(0, dst, ~pattern);
    EXPECT_TRUE(ops_.executeRowClone(0, src, dst));
    EXPECT_EQ(bender_.readRow(0, dst), pattern);
}

TEST_F(OpsFixture, FracInitLandsNearHalfVdd)
{
    const RowId row = composeRow(geometry(), 0, 12);
    const auto helper = ops_.fracInit(0, row, {});
    ASSERT_TRUE(helper.has_value());
    const RowAddress address = decomposeRow(geometry(), row);
    const Bank &bank = chip_.bank(0);
    for (ColId col = 0; col < static_cast<ColId>(geometry().columns);
         ++col) {
        EXPECT_NEAR(bank.subarray(address.subarray)
                        .cells()
                        .volt(address.localRow, col),
                    kVddHalf, 0.05);
    }
}

TEST_F(OpsFixture, FracInitAvoidsExcludedHelpers)
{
    const RowId row = composeRow(geometry(), 0, 12);
    // Exclude the natural helpers; fracInit must pick another one.
    const std::vector<RowId> avoid = {
        composeRow(geometry(), 0, 13), composeRow(geometry(), 0, 14)};
    const auto helper = ops_.fracInit(0, row, avoid);
    ASSERT_TRUE(helper.has_value());
    EXPECT_NE(*helper, avoid[0]);
    EXPECT_NE(*helper, avoid[1]);
}

TEST_F(OpsFixture, InitReferenceWritesConstantsAndFrac)
{
    // Use a 2:2 activation pair's reference rows.
    const auto pairs = findActivationPairs(chip_, 2, 2, 1, 11);
    ASSERT_FALSE(pairs.empty());
    const ActivationSets sets = chip_.decoder().neighborActivation(
        pairs.front().first, pairs.front().second);
    std::vector<RowId> ref_rows;
    for (const RowId local : sets.firstRows)
        ref_rows.push_back(composeRow(geometry(), 0, local));
    ASSERT_TRUE(ops_.initReference(0, BoolOp::And, ref_rows));
    // First N-1 rows all-1s; the last near VDD/2.
    EXPECT_TRUE(bender_.readRow(0, ref_rows.front()).all(true));
    const RowAddress frac = decomposeRow(geometry(), ref_rows.back());
    EXPECT_NEAR(chip_.bank(0)
                    .subarray(frac.subarray)
                    .cells()
                    .volt(frac.localRow, 0),
                kVddHalf, 0.05);
}

TEST_F(OpsFixture, ExecuteMajComputesMaj3AndMaj5)
{
    // The SiMRA primitives: MAJ3 on a 4-row group, MAJ5 on an 8-row
    // group (with one balanced constant pair padding the remainder).
    for (const int rows : {4, 8}) {
        const auto pairs = findSimraPairs(chip_, rows, 1, 11);
        ASSERT_FALSE(pairs.empty()) << rows << "-row group";
        const RowId rf =
            composeRow(geometry(), 1, pairs.front().first);
        const RowId rl =
            composeRow(geometry(), 1, pairs.front().second);
        const int m = rows == 4 ? 3 : 5;
        std::vector<BitVector> operands;
        for (int i = 0; i < m; ++i) {
            operands.push_back(
                randomRow(static_cast<std::uint64_t>(40 + i)));
        }
        const auto result = ops_.executeMaj(0, rf, rl, operands);
        ASSERT_TRUE(result.has_value()) << rows << "-row group";
        EXPECT_EQ(*result, goldenMaj(operands)) << "MAJ" << m;
    }
}

TEST_F(OpsFixture, ExecuteMajRejectsEvenOperandCount)
{
    // An even operand count would leave a stale row voting in the
    // majority; the precondition is a hard error, not a debug-only
    // assert.
    const auto pairs = findSimraPairs(chip_, 4, 1, 11);
    ASSERT_FALSE(pairs.empty());
    const RowId rf = composeRow(geometry(), 1, pairs.front().first);
    const RowId rl = composeRow(geometry(), 1, pairs.front().second);
    EXPECT_THROW(ops_.executeMaj(0, rf, rl, {}),
                 std::invalid_argument);
    EXPECT_THROW(
        ops_.executeMaj(0, rf, rl, {randomRow(1), randomRow(2)}),
        std::invalid_argument);
}

TEST(FindSimraPairs, GroupsMatchRequestedSize)
{
    const Chip chip(test::idealProfile(), test::tinyGeometry(), 1);
    EXPECT_EQ(chip.decoder().maxSameSubarrayRows(), 8);
    for (const int rows : {2, 4, 8}) {
        const auto pairs = findSimraPairs(chip, rows, 3, 13);
        ASSERT_FALSE(pairs.empty()) << rows;
        for (const auto &[rf, rl] : pairs) {
            EXPECT_EQ(chip.decoder()
                          .sameSubarrayActivation(rf, rl)
                          .size(),
                      static_cast<std::size_t>(rows));
        }
    }
    // Beyond the decoder cap: no groups.
    EXPECT_TRUE(findSimraPairs(chip, 16, 3, 13).empty());
}

TEST(FindActivationPairs, HonorsRequestedShape)
{
    const Chip chip(test::idealProfileN2N(), test::tinyGeometry(), 1);
    for (const auto &[nrf, nrl] :
         std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {4, 4},
                                          {2, 4}}) {
        const auto pairs = findActivationPairs(chip, nrf, nrl, 3, 17);
        ASSERT_FALSE(pairs.empty())
            << nrf << ":" << nrl << " pair not found";
        for (const auto &[rf, rl] : pairs) {
            const ActivationSets sets =
                chip.decoder().neighborActivation(rf, rl);
            EXPECT_EQ(sets.nrf(), nrf);
            EXPECT_EQ(sets.nrl(), nrl);
        }
    }
}

/** End-to-end logic ops across widths on the ideal chip. */
class LogicOpParam
    : public ::testing::TestWithParam<std::tuple<BoolOp, int>>
{
};

TEST_P(LogicOpParam, ComputesCorrectLogic)
{
    const auto [op, n] = GetParam();
    Chip chip(test::idealProfile(), test::tinyGeometry(), 5);
    DramBender bender(chip, 9);
    Ops ops(bender);
    const GeometryConfig &geometry = chip.geometry();

    const auto pairs = findActivationPairs(chip, n, n, 1, 23);
    ASSERT_FALSE(pairs.empty());
    const ActivationSets sets = chip.decoder().neighborActivation(
        pairs.front().first, pairs.front().second);
    std::vector<RowId> ref_rows;
    std::vector<RowId> com_rows;
    for (const RowId local : sets.firstRows)
        ref_rows.push_back(composeRow(geometry, 0, local));
    for (const RowId local : sets.secondRows)
        com_rows.push_back(composeRow(geometry, 1, local));

    std::vector<BitVector> operands;
    Rng rng(31);
    for (int i = 0; i < n; ++i) {
        BitVector operand(static_cast<std::size_t>(geometry.columns));
        operand.randomize(rng);
        operands.push_back(operand);
    }

    ASSERT_TRUE(ops.initReference(0, op, ref_rows));
    for (std::size_t i = 0; i < com_rows.size(); ++i)
        bender.writeRow(0, com_rows[i], operands[i]);
    const LogicOpResult result = ops.executeLogic(
        0, composeRow(geometry, 0, pairs.front().first),
        composeRow(geometry, 1, pairs.front().second), ref_rows,
        com_rows);

    const bool and_family = op == BoolOp::And || op == BoolOp::Nand;
    const BitVector expected_com =
        and_family ? goldenAnd(operands) : goldenOr(operands);
    const BitVector expected_ref = ~expected_com;
    for (const ColId col : result.columns) {
        EXPECT_EQ(result.computeResult.get(col), expected_com.get(col))
            << "compute col " << col;
        EXPECT_EQ(result.referenceResult.get(col),
                  expected_ref.get(col))
            << "reference col " << col;
    }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndWidths, LogicOpParam,
    ::testing::Combine(::testing::Values(BoolOp::And, BoolOp::Nand,
                                         BoolOp::Or, BoolOp::Nor),
                       ::testing::Values(2, 4)));

} // namespace
} // namespace fcdram
