#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "analog/coupling.hh"
#include "analog/drive.hh"
#include "analog/latchwindow.hh"
#include "analog/successmodel.hh"
#include "analog/temperature.hh"
#include "common/rng.hh"
#include "dram/address.hh"
#include "dram/openbitline.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

ChipProfile
defaultProfile()
{
    return ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
}

TEST(ExpectedOutput, TruthTables)
{
    EXPECT_TRUE(SuccessModel::expectedOutput(BoolOp::And, 4, 4));
    EXPECT_FALSE(SuccessModel::expectedOutput(BoolOp::And, 4, 3));
    EXPECT_TRUE(SuccessModel::expectedOutput(BoolOp::Or, 4, 1));
    EXPECT_FALSE(SuccessModel::expectedOutput(BoolOp::Or, 4, 0));
    EXPECT_FALSE(SuccessModel::expectedOutput(BoolOp::Nand, 4, 4));
    EXPECT_TRUE(SuccessModel::expectedOutput(BoolOp::Nand, 4, 0));
    EXPECT_TRUE(SuccessModel::expectedOutput(BoolOp::Nor, 4, 0));
    EXPECT_FALSE(SuccessModel::expectedOutput(BoolOp::Nor, 4, 2));
    EXPECT_TRUE(SuccessModel::expectedOutput(BoolOp::Maj3, 3, 2));
    EXPECT_FALSE(SuccessModel::expectedOutput(BoolOp::Maj3, 3, 1));
}

TEST(SuccessModel, NotMarginDecreasesWithRows)
{
    const SuccessModel model(defaultProfile(), 1);
    NotContext ctx;
    double prev = 1e9;
    for (const int total : {2, 4, 8, 16, 32, 48}) {
        ctx.totalActivatedRows = total;
        const double margin = model.notMargin(ctx);
        EXPECT_LT(margin, prev);
        prev = margin;
    }
}

TEST(SuccessModel, NotMarginPositiveForSinglePair)
{
    const SuccessModel model(defaultProfile(), 1);
    NotContext ctx;
    ctx.totalActivatedRows = 2;
    EXPECT_GT(model.notMargin(ctx), 0.1);
}

TEST(SuccessModel, NotMarginNegativeAtMaxLoad)
{
    const SuccessModel model(defaultProfile(), 1);
    NotContext ctx;
    ctx.totalActivatedRows = 48;
    EXPECT_LT(model.notMargin(ctx), 0.0);
}

TEST(SuccessModel, RegionOrderingMatchesObservation6)
{
    // Far sources with Close destinations are the worst corner;
    // Middle sources with Far destinations the best (Obs. 6).
    const SuccessModel model(defaultProfile(), 1);
    NotContext worst;
    worst.totalActivatedRows = 4;
    worst.srcRegion = Region::Far;
    worst.dstRegion = Region::Close;
    NotContext best = worst;
    best.srcRegion = Region::Middle;
    best.dstRegion = Region::Far;
    EXPECT_GT(model.notMargin(best), model.notMargin(worst) + 0.1);
}

TEST(SuccessModel, TemperatureReducesMarginSlightly)
{
    const SuccessModel model(defaultProfile(), 1);
    NotContext cold;
    cold.totalActivatedRows = 2;
    NotContext hot = cold;
    hot.cond.temperature = 95.0;
    const double delta = model.notMargin(cold) - model.notMargin(hot);
    EXPECT_GT(delta, 0.0);
    EXPECT_LT(delta, 0.01);
}

TEST(SuccessModel, CouplingReducesMargin)
{
    const SuccessModel model(defaultProfile(), 1);
    NotContext fixed;
    fixed.totalActivatedRows = 2;
    fixed.cond.couplingFraction = 0.0;
    NotContext random = fixed;
    random.cond.couplingFraction = 0.5;
    EXPECT_GT(model.notMargin(fixed), model.notMargin(random));
}

TEST(SuccessModel, RowCloneLoadsActivatedRowsPlusTwo)
{
    // The restored source drives k activated rows as a load of k + 2
    // rows; rebuild that margin from the drive and penalty terms.
    const ChipProfile profile = defaultProfile();
    const AnalogParams &analog = profile.analog;
    const SuccessModel model(profile, 1);
    const OpConditions cond;
    for (const int k : {1, 2}) {
        RowCloneContext ctx;
        ctx.activatedRows = k;
        const Volt expected =
            analog.marginScale * notDriveMargin(analog, k + 2) -
            couplingPenalty(analog, cond.couplingFraction) -
            temperaturePenalty(analog, cond.temperature) -
            latchWindowPenalty(analog, profile.speed);
        EXPECT_NEAR(model.rowCloneMargin(ctx), expected, 1e-12) << k;
        // A load off by one row would move the margin far past that.
        EXPECT_GT(analog.marginScale *
                      (notDriveMargin(analog, k + 2) -
                       notDriveMargin(analog, k + 3)),
                  1e-6)
            << k;
    }
}

TEST(SuccessModel, LogicWorstCasesAtBoundary)
{
    // Obs. 14: AND margins are smallest at all-1s / one-0 inputs; OR
    // margins at no-1s / one-1.
    const SuccessModel model(defaultProfile(), 1);
    LogicContext ctx;
    ctx.numInputs = 16;
    ctx.op = BoolOp::And;
    ctx.numOnes = 16;
    const double and_all1 = model.logicMargin(ctx);
    ctx.numOnes = 15;
    const double and_one0 = model.logicMargin(ctx);
    ctx.numOnes = 0;
    const double and_all0 = model.logicMargin(ctx);
    EXPECT_GT(and_all0, and_all1 + 0.2);
    EXPECT_GT(and_all0, and_one0 + 0.2);

    ctx.op = BoolOp::Or;
    ctx.numOnes = 0;
    const double or_all0 = model.logicMargin(ctx);
    ctx.numOnes = 1;
    const double or_one1 = model.logicMargin(ctx);
    ctx.numOnes = 16;
    const double or_all1 = model.logicMargin(ctx);
    EXPECT_GT(or_all1, or_all0 + 0.2);
    EXPECT_GT(or_all1, or_one1 + 0.2);
}

TEST(SuccessModel, OrBeatsAndAtTwoInputs)
{
    // Obs. 12 at the margin level: the critical 2-input patterns.
    const SuccessModel model(defaultProfile(), 1);
    LogicContext and_ctx;
    and_ctx.op = BoolOp::And;
    and_ctx.numInputs = 2;
    and_ctx.numOnes = 1;
    LogicContext or_ctx = and_ctx;
    or_ctx.op = BoolOp::Or;
    EXPECT_GT(model.logicMargin(or_ctx), model.logicMargin(and_ctx));
}

TEST(SuccessModel, NandTracksAndClosely)
{
    const SuccessModel model(defaultProfile(), 1);
    LogicContext ctx;
    ctx.numInputs = 4;
    ctx.numOnes = 3;
    ctx.op = BoolOp::And;
    const double and_margin = model.logicMargin(ctx);
    ctx.op = BoolOp::Nand;
    const double nand_margin = model.logicMargin(ctx);
    EXPECT_NEAR(and_margin - nand_margin,
                defaultProfile().analog.invertedSidePenalty, 1e-12);
}

TEST(SuccessModel, StructuralFailGrowsWithLoad)
{
    const SuccessModel model(defaultProfile(), 1);
    EXPECT_LT(model.structuralFailFraction(1),
              model.structuralFailFraction(8));
    EXPECT_LT(model.structuralFailFraction(8),
              model.structuralFailFraction(24));
    EXPECT_NEAR(model.structuralFailFraction(1),
                defaultProfile().analog.structuralFailPerPair, 1e-12);
}

TEST(SuccessModel, CellProbabilityHandlesStructFail)
{
    const SuccessModel model(defaultProfile(), 1);
    EXPECT_DOUBLE_EQ(model.cellSuccessProbability(1.0, 0.0, true), 0.5);
    EXPECT_GT(model.cellSuccessProbability(0.2, 0.0, false), 0.99);
    EXPECT_LT(model.cellSuccessProbability(-0.2, 0.0, false), 0.01);
}

TEST(SuccessModel, StaticOffsetsCombineCellAndSa)
{
    const SuccessModel model(defaultProfile(), 1);
    const double off = model.staticOffset(0, 5, 6, 1);
    EXPECT_DOUBLE_EQ(off, model.variation().cellOffset(0, 5, 6) +
                              model.variation().saOffset(0, 1, 6));
}

/**
 * Check one ColumnVariation of @p sub's rows against the per-cell
 * accessors, exactly; counts the structural-fail flags seen.
 */
void
expectExactStatics(const SuccessModel &model, BankId bank,
                   SubarrayId sub,
                   const std::function<StripeId(ColId)> &stripeOf,
                   int load, int (&flagCounts)[2])
{
    const GeometryConfig geometry = GeometryConfig::standard();
    const std::vector<ColId> columns = allColumns(geometry);
    const VariationMap &variation = model.variation();
    const ColumnVariation statics(model, bank, columns, stripeOf, load);
    ASSERT_EQ(statics.columns().size(), columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const auto &column = statics.columns()[i];
        ASSERT_EQ(column.col, columns[i]);
        ASSERT_EQ(column.stripe, stripeOf(column.col));
        EXPECT_EQ(column.saOffset,
                  variation.saOffset(bank, column.stripe, column.col));
        EXPECT_EQ(column.structFail,
                  model.structuralFail(bank, column.stripe, column.col,
                                       load));
        ++flagCounts[column.structFail ? 1 : 0];
    }
    for (const RowId local : {0u, 257u, 511u}) {
        const RowId row = composeRow(geometry, sub, local);
        const std::uint64_t prefix = variation.cellKeyPrefix(bank, row);
        std::size_t visited = 0;
        statics.forEachCell(row, [&](const auto &column, Volt offset) {
            const Volt expected =
                model.staticOffset(bank, row, column.col, column.stripe);
            EXPECT_EQ(variation.cellOffsetFromKey(
                          hashCombine(prefix, column.col)) +
                          column.saOffset,
                      expected);
            EXPECT_EQ(offset, expected);
            EXPECT_EQ(&column, &statics.columns()[visited]);
            ++visited;
        });
        EXPECT_EQ(visited, columns.size());
    }
}

/**
 * ColumnVariation computes the SA half of the static variation once
 * per column; combined with a row's cell offsets it must reproduce
 * the per-cell accessors bit for bit.
 */
TEST(ColumnVariation, MatchesPerCellAccessorsExactly)
{
    int flagCounts[2] = {0, 0};
    for (const ChipProfile &profile : test::manufacturerProfiles()) {
        for (const std::uint64_t seed : {1ULL, 0x11D7ULL, 0xC0FFEEULL}) {
            const SuccessModel model(profile, seed);
            for (BankId bank = 0; bank < 2; ++bank) {
                for (const SubarrayId sub : {0, 3, 7}) {
                    // Per-column stripes cover both parities; the
                    // single-stripe forms are the shared stripes of
                    // cross-subarray pairs.
                    const std::function<StripeId(ColId)> stripings[] = {
                        [sub](ColId col) { return stripeFor(sub, col); },
                        [sub](ColId) { return StripeId(sub); },
                        [sub](ColId) { return StripeId(sub + 1); }};
                    for (const auto &stripeOf : stripings) {
                        for (int load = 1; load <= 16; ++load)
                            expectExactStatics(model, bank, sub,
                                               stripeOf, load,
                                               flagCounts);
                    }
                }
            }
        }
    }
    // Both flag values occur, so the comparison is not vacuous.
    EXPECT_GT(flagCounts[0], 0);
    EXPECT_GT(flagCounts[1], 0);
}

TEST(SuccessModel, SampleTrialMatchesProbability)
{
    const SuccessModel model(defaultProfile(), 1);
    const std::uint64_t seed = 3;
    const double margin = 0.05;
    const double offset = 0.01;
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t key =
            hashCombine(seed, static_cast<std::uint64_t>(i));
        hits += model.sampleTrialAt(margin, offset, false, key) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n,
                model.cellSuccessProbability(margin, offset, false),
                0.01);
}

TEST(SuccessModel, IdealProfileIsDeterministic)
{
    const SuccessModel model(test::idealProfile(), 1);
    NotContext ctx;
    ctx.totalActivatedRows = 32;
    EXPECT_GT(model.cellSuccessProbability(model.notMargin(ctx), 0.0,
                                           false),
              0.999999);
}

TEST(SuccessModel, SequentialSkipsLatchPenalty)
{
    // A Samsung-style profile at an awkward speed grade must not pay
    // the quantized-gap penalty (its mechanism is not glitch-based).
    auto samsung = ChipProfile::make(Manufacturer::Samsung, 8, 'A', 8,
                                     3200);
    const SuccessModel model(samsung, 1);
    NotContext ctx;
    ctx.totalActivatedRows = 2;
    auto sk = defaultProfile();
    sk.speed = SpeedGrade(3200);
    const SuccessModel sk_model(sk, 1);
    // Same drive margins except for scaling and the latch penalty.
    EXPECT_GT(model.notMargin(ctx) / samsung.analog.marginScale,
              sk_model.notMargin(ctx) / sk.analog.marginScale);
}

/** Property sweep: logic margins per (op, N). */
class LogicMarginProperty
    : public ::testing::TestWithParam<std::tuple<BoolOp, int>>
{
};

TEST_P(LogicMarginProperty, MidPatternsBeatWorstCases)
{
    const auto [op, n] = GetParam();
    const SuccessModel model(defaultProfile(), 1);
    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    const bool and_family = op == BoolOp::And || op == BoolOp::Nand;
    // Mid-pattern (half ones) margin dominates the boundary pattern.
    ctx.numOnes = n / 2;
    const double mid = model.logicMargin(ctx);
    ctx.numOnes = and_family ? n : 0;
    const double boundary = model.logicMargin(ctx);
    if (n > 2) {
        EXPECT_GT(mid, boundary);
    }
}

TEST_P(LogicMarginProperty, MarginFiniteAndBounded)
{
    const auto [op, n] = GetParam();
    const SuccessModel model(defaultProfile(), 1);
    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    for (int ones = 0; ones <= n; ++ones) {
        ctx.numOnes = ones;
        const double margin = model.logicMargin(ctx);
        EXPECT_GT(margin, -2.0);
        EXPECT_LT(margin, 2.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndWidths, LogicMarginProperty,
    ::testing::Combine(::testing::Values(BoolOp::And, BoolOp::Nand,
                                         BoolOp::Or, BoolOp::Nor),
                       ::testing::Values(2, 4, 8, 16)));

} // namespace
} // namespace fcdram
