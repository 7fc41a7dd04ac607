#include <gtest/gtest.h>

#include <cmath>

#include "analog/chargesharing.hh"
#include "analog/coupling.hh"
#include "analog/drive.hh"
#include "analog/latchwindow.hh"
#include "analog/rowhammer.hh"
#include "analog/senseamp.hh"
#include "analog/temperature.hh"
#include "analog/variation.hh"
#include "common/rng.hh"

namespace fcdram {
namespace {

AnalogParams
params()
{
    return AnalogParams{};
}

TEST(ChargeSharing, SingleFullCell)
{
    // One VDD cell against Cbl = 2 Ccell precharged at VDD/2:
    // (1.2 + 2*0.6) / 3 = 0.8.
    EXPECT_NEAR(sharedBitlineVoltage({kVdd}, params()), 0.8, 1e-12);
}

TEST(ChargeSharing, EmptyCellListGivesPrecharge)
{
    EXPECT_NEAR(sharedBitlineVoltage({}, params()), kVddHalf, 1e-12);
}

TEST(ChargeSharing, BalancedCellsStayAtMid)
{
    EXPECT_NEAR(sharedBitlineVoltage({kVdd, kGnd}, params()), kVddHalf,
                1e-12);
}

TEST(ChargeSharing, ReferenceVoltageAndFamily)
{
    // 2-input AND: (1.2 + 0.6 + 2*0.6) / 4 = 0.75.
    EXPECT_NEAR(idealReferenceVoltage(2, kVdd, params()), 0.75, 1e-12);
    // 16-input AND: (15*1.2 + 0.6 + 1.2) / 18 = 1.1.
    EXPECT_NEAR(idealReferenceVoltage(16, kVdd, params()), 1.1, 1e-12);
}

TEST(ChargeSharing, ReferenceVoltageOrFamily)
{
    // 2-input OR: (0 + 0.6 + 1.2) / 4 = 0.45.
    EXPECT_NEAR(idealReferenceVoltage(2, kGnd, params()), 0.45, 1e-12);
}

TEST(ChargeSharing, ComputeVoltageScalesWithOnes)
{
    const AnalogParams analog = params();
    double prev = -1.0;
    for (int ones = 0; ones <= 8; ++ones) {
        const double v = idealComputeVoltage(8, ones, analog);
        EXPECT_GT(v, prev);
        prev = v;
    }
    EXPECT_NEAR(idealComputeVoltage(2, 1, analog), 0.6, 1e-12);
}

TEST(ChargeSharing, AndReferenceSeparatesWorstCases)
{
    // The AND reference must sit between the all-1s compute level and
    // the one-0 compute level for every N (Section 6.1.2).
    const AnalogParams analog = params();
    for (int n = 2; n <= 16; n *= 2) {
        const double v_ref = idealReferenceVoltage(n, kVdd, analog);
        EXPECT_GT(idealComputeVoltage(n, n, analog), v_ref);
        EXPECT_LT(idealComputeVoltage(n, n - 1, analog), v_ref);
    }
}

TEST(ChargeSharing, OrReferenceSeparatesWorstCases)
{
    const AnalogParams analog = params();
    for (int n = 2; n <= 16; n *= 2) {
        const double v_ref = idealReferenceVoltage(n, kGnd, analog);
        EXPECT_LT(idealComputeVoltage(n, 0, analog), v_ref);
        EXPECT_GT(idealComputeVoltage(n, 1, analog), v_ref);
    }
}

TEST(SenseAmp, ProbabilityMonotoneInMargin)
{
    const SenseAmpModel model(params());
    EXPECT_LT(model.successProbability(-0.1),
              model.successProbability(0.0));
    EXPECT_LT(model.successProbability(0.0),
              model.successProbability(0.1));
    EXPECT_NEAR(model.successProbability(0.0), 0.5, 1e-12);
}

TEST(SenseAmp, SampleMatchesProbability)
{
    const SenseAmpModel model(params());
    const std::uint64_t seed = 3;
    const double margin = 0.03;
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t key =
            hashCombine(seed, static_cast<std::uint64_t>(i));
        hits += model.sampleAt(margin, key) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n,
                model.successProbability(margin), 0.01);
}

TEST(SenseAmp, CommonModePenaltySymmetric)
{
    const SenseAmpModel model(params());
    EXPECT_NEAR(model.commonModePenalty(0.8, 0.8),
                model.commonModePenalty(0.4, 0.4), 1e-12);
    EXPECT_NEAR(model.commonModePenalty(0.6, 0.6), 0.0, 1e-12);
}

TEST(Drive, MarginShrinksPerRow)
{
    const AnalogParams analog = params();
    const double m2 = notDriveMargin(analog, 2);
    const double m3 = notDriveMargin(analog, 3);
    EXPECT_NEAR(m2 - m3, analog.drivePerRow, 1e-12);
    EXPECT_NEAR(m2, analog.driveMargin0, 1e-12);
}

TEST(Drive, LargeLoadsGoNegative)
{
    EXPECT_LT(notDriveMargin(params(), 48), 0.0);
}

TEST(Coupling, PenaltyProportional)
{
    const AnalogParams analog = params();
    EXPECT_DOUBLE_EQ(couplingPenalty(analog, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(couplingPenalty(analog, 1.0), analog.couplingDelta);
}

TEST(Coupling, DisagreementFractionPatterns)
{
    BitVector uniform(16, true);
    EXPECT_DOUBLE_EQ(disagreementFraction(uniform), 0.0);
    BitVector checker(16);
    for (std::size_t i = 0; i < 16; i += 2)
        checker.set(i, true);
    EXPECT_DOUBLE_EQ(disagreementFraction(checker), 1.0);
}

TEST(Coupling, PerColumnPenalty)
{
    const AnalogParams analog = params();
    BitVector row(3);
    row.set(1, true); // 010
    EXPECT_DOUBLE_EQ(couplingPenaltyAt(analog, row, 1),
                     analog.couplingDelta);
    BitVector flat(3, true);
    EXPECT_DOUBLE_EQ(couplingPenaltyAt(analog, flat, 1), 0.0);
}

TEST(Temperature, BaselineIsFree)
{
    EXPECT_DOUBLE_EQ(temperaturePenalty(params(), 50.0), 0.0);
}

TEST(Temperature, SmallLinearPenalty)
{
    const AnalogParams analog = params();
    const double p95 = temperaturePenalty(analog, 95.0);
    EXPECT_GT(p95, 0.0);
    EXPECT_LT(p95, 0.01); // The paper finds the effect small.
    EXPECT_NEAR(p95, 45.0 * analog.tempCoeff, 1e-12);
}

TEST(LatchWindow, ParabolaAroundOptimum)
{
    const AnalogParams analog = params();
    EXPECT_DOUBLE_EQ(latchWindowPenalty(analog, analog.latchWindowOptNs),
                     0.0);
    EXPECT_GT(latchWindowPenalty(analog, analog.latchWindowOptNs + 0.4),
              latchWindowPenalty(analog, analog.latchWindowOptNs + 0.1));
    EXPECT_NEAR(
        latchWindowPenalty(analog, analog.latchWindowOptNs - 0.4),
        latchWindowPenalty(analog, analog.latchWindowOptNs + 0.4),
        1e-12);
}

TEST(LatchWindow, SpeedGradeOrdering)
{
    // 2400 MT/s lands farthest from the optimum (Obs. 8/18).
    const AnalogParams analog = params();
    const double p2133 = latchWindowPenalty(analog, SpeedGrade(2133));
    const double p2400 = latchWindowPenalty(analog, SpeedGrade(2400));
    const double p2666 = latchWindowPenalty(analog, SpeedGrade(2666));
    EXPECT_GT(p2400, p2133);
    EXPECT_GT(p2400, p2666);
}

TEST(RowHammer, NoFlipsBelowThreshold)
{
    const RowHammerParams params;
    EXPECT_DOUBLE_EQ(
        hammerFlipProbability(params, params.hammerThreshold, 1.0), 0.0);
}

TEST(RowHammer, ProbabilityGrowsAndSaturates)
{
    const RowHammerParams params;
    const double p1 = hammerFlipProbability(
        params, params.hammerThreshold + 10000, 1.0);
    const double p2 = hammerFlipProbability(
        params, params.hammerThreshold + 20000, 1.0);
    EXPECT_GT(p2, p1);
    EXPECT_LE(hammerFlipProbability(params, 100000000, 1.0),
              params.maxFlipProbability);
}

TEST(RowHammer, VulnerabilityScales)
{
    const RowHammerParams params;
    const auto count = params.hammerThreshold + 10000;
    EXPECT_GT(hammerFlipProbability(params, count, 1.0),
              hammerFlipProbability(params, count, 0.1));
    EXPECT_DOUBLE_EQ(hammerFlipProbability(params, count, 0.0), 0.0);
}

TEST(Variation, Deterministic)
{
    const VariationMap a(42, params());
    const VariationMap b(42, params());
    EXPECT_DOUBLE_EQ(a.cellOffset(0, 10, 20), b.cellOffset(0, 10, 20));
    EXPECT_DOUBLE_EQ(a.saOffset(1, 2, 3), b.saOffset(1, 2, 3));
}

TEST(Variation, DistinctSeedsDiffer)
{
    const VariationMap a(1, params());
    const VariationMap b(2, params());
    EXPECT_NE(a.cellOffset(0, 0, 0), b.cellOffset(0, 0, 0));
}

TEST(Variation, OffsetMomentsMatchSigma)
{
    const AnalogParams analog = params();
    const VariationMap map(7, analog);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = map.cellOffset(0, i % 512, i / 512);
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.002);
    EXPECT_NEAR(std::sqrt(sq / n), analog.cellOffsetSigma, 0.003);
}

TEST(Variation, StructuralFailMonotoneInLoad)
{
    const VariationMap map(9, params());
    int fails_low = 0;
    int fails_high = 0;
    for (int col = 0; col < 5000; ++col) {
        const bool low = map.structuralFailUnder(0, 0, col, 0.01);
        const bool high = map.structuralFailUnder(0, 0, col, 0.10);
        // A SA failing at low load must also fail at high load.
        EXPECT_TRUE(!low || high);
        fails_low += low ? 1 : 0;
        fails_high += high ? 1 : 0;
    }
    EXPECT_NEAR(fails_low / 5000.0, 0.01, 0.006);
    EXPECT_NEAR(fails_high / 5000.0, 0.10, 0.02);
}

TEST(Variation, HammerVulnerabilityInUnitRange)
{
    const VariationMap map(11, params());
    for (int i = 0; i < 100; ++i) {
        const double v = map.hammerVulnerability(0, i, i);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

} // namespace
} // namespace fcdram
