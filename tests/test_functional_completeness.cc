#include <gtest/gtest.h>

#include "dram/openbitline.hh"
#include "fcdram/golden.hh"
#include "fcdram/ops.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

/**
 * End-to-end demonstration of the paper's title claim: NAND alone is
 * functionally complete, so any Boolean function can be computed with
 * the in-DRAM operations (host-assisted data movement between steps,
 * as a PuD runtime would orchestrate).
 */
class FunctionalCompleteness : public ::testing::Test
{
  protected:
    FunctionalCompleteness()
        : chip_(test::idealProfile(), test::tinyGeometry(), 3),
          bender_(chip_, 11), ops_(bender_)
    {
        const auto pairs = findActivationPairs(chip_, 2, 2, 1, 13);
        EXPECT_FALSE(pairs.empty());
        refAnchor_ = composeRow(chip_.geometry(), 0, pairs[0].first);
        comAnchor_ = composeRow(chip_.geometry(), 1, pairs[0].second);
        const ActivationSets sets = chip_.decoder().neighborActivation(
            pairs[0].first, pairs[0].second);
        for (const RowId local : sets.firstRows)
            refRows_.push_back(composeRow(chip_.geometry(), 0, local));
        for (const RowId local : sets.secondRows)
            comRows_.push_back(composeRow(chip_.geometry(), 1, local));
        sharedCols_ = sharedColumns(chip_.geometry(), 0, 1);
    }

    /** One in-DRAM 2-input NAND over the shared columns. */
    BitVector dramNand(const BitVector &a, const BitVector &b)
    {
        EXPECT_TRUE(ops_.initReference(0, BoolOp::Nand, refRows_));
        bender_.writeRow(0, comRows_[0], a);
        bender_.writeRow(0, comRows_[1], b);
        const LogicOpResult result = ops_.executeLogic(
            0, refAnchor_, comAnchor_, refRows_, comRows_);
        return result.referenceResult;
    }

    /** Compare two vectors on the shared columns only. */
    void expectSharedEqual(const BitVector &actual,
                           const BitVector &expected)
    {
        for (const ColId col : sharedCols_)
            EXPECT_EQ(actual.get(col), expected.get(col))
                << "col " << col;
    }

    BitVector randomRow(std::uint64_t seed) const
    {
        BitVector v(static_cast<std::size_t>(chip_.geometry().columns));
        Rng rng(seed);
        v.randomize(rng);
        return v;
    }

    Chip chip_;
    DramBender bender_;
    Ops ops_;
    RowId refAnchor_ = 0;
    RowId comAnchor_ = 0;
    std::vector<RowId> refRows_;
    std::vector<RowId> comRows_;
    std::vector<ColId> sharedCols_;
};

TEST_F(FunctionalCompleteness, NandIsCorrect)
{
    const BitVector a = randomRow(1);
    const BitVector b = randomRow(2);
    expectSharedEqual(dramNand(a, b), goldenNand({a, b}));
}

TEST_F(FunctionalCompleteness, NotFromNand)
{
    // NOT(a) == NAND(a, a).
    const BitVector a = randomRow(3);
    expectSharedEqual(dramNand(a, a), goldenNot(a));
}

TEST_F(FunctionalCompleteness, AndFromTwoNands)
{
    // AND(a, b) == NAND(NAND(a,b), NAND(a,b)).
    const BitVector a = randomRow(4);
    const BitVector b = randomRow(5);
    const BitVector stage1 = dramNand(a, b);
    expectSharedEqual(dramNand(stage1, stage1), goldenAnd({a, b}));
}

TEST_F(FunctionalCompleteness, OrFromThreeNands)
{
    // OR(a, b) == NAND(NAND(a,a), NAND(b,b)).
    const BitVector a = randomRow(6);
    const BitVector b = randomRow(7);
    const BitVector not_a = dramNand(a, a);
    const BitVector not_b = dramNand(b, b);
    expectSharedEqual(dramNand(not_a, not_b), goldenOr({a, b}));
}

TEST_F(FunctionalCompleteness, XorFromFourNands)
{
    // XOR(a, b) == NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b))).
    const BitVector a = randomRow(8);
    const BitVector b = randomRow(9);
    const BitVector ab = dramNand(a, b);
    const BitVector left = dramNand(a, ab);
    const BitVector right = dramNand(b, ab);
    const BitVector result = dramNand(left, right);
    expectSharedEqual(result, a ^ b);
}

TEST_F(FunctionalCompleteness, FullAdderSumAndCarry)
{
    // One bit-sliced full adder: sum = a^b^cin, carry = MAJ3 via
    // AND/OR composition — nine in-DRAM NAND evaluations total.
    const BitVector a = randomRow(10);
    const BitVector b = randomRow(11);
    const BitVector cin = randomRow(12);

    auto dram_xor = [&](const BitVector &x, const BitVector &y) {
        const BitVector xy = dramNand(x, y);
        return dramNand(dramNand(x, xy), dramNand(y, xy));
    };
    const BitVector sum = dram_xor(dram_xor(a, b), cin);

    // carry = NAND(NAND(a,b), NAND(cin, XOR(a,b))).
    const BitVector ab_nand = dramNand(a, b);
    const BitVector axb = dram_xor(a, b);
    const BitVector carry = dramNand(ab_nand, dramNand(cin, axb));

    const BitVector expected_sum = a ^ b ^ cin;
    const BitVector expected_carry =
        goldenOr({goldenAnd({a, b}), goldenAnd({cin, a ^ b})});
    expectSharedEqual(sum, expected_sum);
    expectSharedEqual(carry, expected_carry);
}

TEST_F(FunctionalCompleteness, WideNandMatchesGolden)
{
    // The many-input operations compose the same way: a 4-input NAND
    // plus an inversion yields a 4-input AND.
    Chip chip(test::idealProfile(), test::tinyGeometry(), 17);
    DramBender bender(chip, 19);
    Ops ops(bender);
    const auto pairs = findActivationPairs(chip, 4, 4, 1, 23);
    ASSERT_FALSE(pairs.empty());
    const ActivationSets sets = chip.decoder().neighborActivation(
        pairs[0].first, pairs[0].second);
    std::vector<RowId> ref_rows;
    std::vector<RowId> com_rows;
    for (const RowId local : sets.firstRows)
        ref_rows.push_back(composeRow(chip.geometry(), 0, local));
    for (const RowId local : sets.secondRows)
        com_rows.push_back(composeRow(chip.geometry(), 1, local));

    std::vector<BitVector> operands;
    Rng rng(29);
    for (int i = 0; i < 4; ++i) {
        BitVector operand(
            static_cast<std::size_t>(chip.geometry().columns));
        operand.randomize(rng);
        operands.push_back(operand);
    }
    ASSERT_TRUE(ops.initReference(0, BoolOp::Nand, ref_rows));
    for (std::size_t i = 0; i < com_rows.size(); ++i)
        bender.writeRow(0, com_rows[i], operands[i]);
    const LogicOpResult result = ops.executeLogic(
        0, composeRow(chip.geometry(), 0, pairs[0].first),
        composeRow(chip.geometry(), 1, pairs[0].second), ref_rows,
        com_rows);
    const BitVector expected = goldenNand(operands);
    for (const ColId col : result.columns)
        EXPECT_EQ(result.referenceResult.get(col), expected.get(col));
}

} // namespace
} // namespace fcdram
