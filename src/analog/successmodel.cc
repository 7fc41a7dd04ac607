#include "analog/successmodel.hh"

#include <cassert>
#include <cmath>
#include <map>
#include <utility>

#include "analog/chargesharing.hh"
#include "analog/coupling.hh"
#include "analog/drive.hh"
#include "analog/latchwindow.hh"
#include "analog/temperature.hh"
#include "common/mathutil.hh"
#include "common/rng.hh"

namespace fcdram {

SuccessModel::SuccessModel(const ChipProfile &profile,
                           std::uint64_t chipSeed)
    : profile_(profile),
      variation_(chipSeed, profile.analog),
      senseAmp_(profile.analog)
{
}

bool
SuccessModel::expectedOutput(BoolOp op, int numInputs, int numOnes)
{
    switch (op) {
      case BoolOp::And: return numOnes == numInputs;
      case BoolOp::Nand: return numOnes != numInputs;
      case BoolOp::Or: return numOnes > 0;
      case BoolOp::Nor: return numOnes == 0;
      case BoolOp::Maj3:
      case BoolOp::Maj5: return 2 * numOnes > numInputs;
      case BoolOp::Not: return numOnes == 0;
    }
    return false;
}

Volt
SuccessModel::environmentPenalty(Ns glitchGapNs, Celsius temperature,
                                 double couplingFraction,
                                 bool sequential) const
{
    const AnalogParams &analog = profile_.analog;
    Volt penalty = couplingPenalty(analog, couplingFraction) +
                   temperaturePenalty(analog, temperature);
    // The sequential (Samsung-style) two-row activation does not rely
    // on the decoder latch glitch, so the quantized-gap penalty only
    // applies to simultaneous activation designs.
    if (!sequential && !profile_.decoder.sequentialNeighborOnly) {
        if (glitchGapNs >= 0.0)
            penalty += latchWindowPenalty(analog, glitchGapNs);
        else
            penalty += latchWindowPenalty(analog, profile_.speed);
    }
    return penalty;
}

Volt
SuccessModel::comparisonMargin(Volt vA, Volt vB,
                               const ComparisonContext &ctx) const
{
    const AnalogParams &analog = profile_.analog;
    Volt margin = analog.marginScale * std::abs(vA - vB);
    margin -= senseAmp_.commonModePenalty(vA, vB);
    // Calibrated sensing asymmetry: comparisons biased to a high
    // common mode (the AND-family reference configuration)
    // consistently underperform low-common-mode ones (Obs. 12).
    const Volt common_mode = 0.5 * (vA + vB);
    if (common_mode > kVddHalf) {
        margin -= analog.andFamilyPenalty * 4.0 /
                  static_cast<double>(ctx.cellsPerSide + 2);
    } else {
        margin += analog.orFamilyBonus * 4.0 /
                  static_cast<double>(ctx.cellsPerSide + 2);
    }
    margin += analog.logicBias;
    if (ctx.invertedSide)
        margin -= analog.invertedSidePenalty;
    margin += ctx.regionMargin;
    margin -= environmentPenalty(ctx.glitchGapNs, ctx.temperature,
                                 ctx.couplingFraction,
                                 ctx.sequential || !ctx.glitched);
    return margin;
}

Volt
SuccessModel::driveMarginMech(int totalActivatedRows,
                              const ComparisonContext &ctx) const
{
    assert(totalActivatedRows >= 2);
    const AnalogParams &analog = profile_.analog;
    Volt margin = analog.marginScale *
                  notDriveMargin(analog, totalActivatedRows);
    if (ctx.invertedSide)
        margin -= analog.invertedSidePenalty;
    margin += ctx.regionMargin;
    margin -= environmentPenalty(ctx.glitchGapNs, ctx.temperature,
                                 ctx.couplingFraction,
                                 ctx.sequential || !ctx.glitched);
    return margin;
}

Volt
SuccessModel::notMargin(const NotContext &ctx) const
{
    const AnalogParams &analog = profile_.analog;
    ComparisonContext mech;
    mech.cellsPerSide = (ctx.totalActivatedRows + 1) / 2;
    mech.regionMargin =
        analog.srcRegionMargin[static_cast<int>(ctx.srcRegion)] +
        analog.dstRegionMargin[static_cast<int>(ctx.dstRegion)];
    mech.couplingFraction = ctx.cond.couplingFraction;
    mech.temperature = ctx.cond.temperature;
    return driveMarginMech(ctx.totalActivatedRows, mech);
}

Volt
SuccessModel::logicMargin(const LogicContext &ctx) const
{
    assert(ctx.numInputs >= 2);
    assert(ctx.numOnes >= 0 && ctx.numOnes <= ctx.numInputs);
    const AnalogParams &analog = profile_.analog;

    const bool and_family =
        ctx.op == BoolOp::And || ctx.op == BoolOp::Nand;
    const Volt constant = and_family ? kVdd : kGnd;
    const Volt v_ref =
        idealReferenceVoltage(ctx.numInputs, constant, analog);
    const Volt v_com =
        idealComputeVoltage(ctx.numInputs, ctx.numOnes, analog);

    ComparisonContext mech;
    mech.cellsPerSide = ctx.numInputs;
    mech.regionMargin =
        analog.srcRegionMargin[static_cast<int>(ctx.comRegion)] +
        analog.dstRegionMargin[static_cast<int>(ctx.refRegion)];
    mech.couplingFraction = ctx.cond.couplingFraction;
    mech.temperature = ctx.cond.temperature;
    mech.invertedSide = isInvertedOp(ctx.op);
    return comparisonMargin(v_ref, v_com, mech);
}

Volt
SuccessModel::majMargin(const MajContext &ctx) const
{
    assert(ctx.activatedRows >= 2);
    assert(ctx.numOnes + ctx.neutralCells <= ctx.activatedRows);
    const AnalogParams &analog = profile_.analog;
    const Volt v_shared = idealMajVoltage(
        ctx.activatedRows, ctx.numOnes, ctx.neutralCells, analog);
    ComparisonContext mech;
    mech.cellsPerSide = ctx.activatedRows;
    mech.couplingFraction = ctx.cond.couplingFraction;
    mech.temperature = ctx.cond.temperature;
    return comparisonMargin(v_shared, kVddHalf, mech);
}

double
SuccessModel::structuralFailFraction(int rowPairLoad) const
{
    assert(rowPairLoad >= 1);
    const double p = profile_.analog.structuralFailPerPair;
    return 1.0 - std::pow(1.0 - p, static_cast<double>(rowPairLoad));
}

bool
SuccessModel::structuralFail(BankId bank, StripeId stripe, ColId col,
                             int rowPairLoad) const
{
    return variation_.structuralFailUnder(
        bank, stripe, col, structuralFailFraction(rowPairLoad));
}

Volt
SuccessModel::staticOffset(BankId bank, RowId row, ColId col,
                           StripeId stripe) const
{
    return variation_.cellOffset(bank, row, col) +
           variation_.saOffset(bank, stripe, col);
}

double
SuccessModel::cellSuccessProbability(Volt margin, Volt staticOff,
                                     bool structFail) const
{
    if (structFail)
        return 0.5;
    return senseAmp_.successProbability(margin - staticOff);
}

bool
SuccessModel::sampleTrialAt(Volt margin, Volt staticOff,
                            bool structFail,
                            std::uint64_t noiseKey) const
{
    if (structFail)
        return uniformFromHash(noiseKey) < 0.5;
    return senseAmp_.sampleAt(margin - staticOff, noiseKey);
}

ColumnVariation::ColumnVariation(
    const SuccessModel &model, BankId bank,
    const std::vector<ColId> &columns,
    const std::function<StripeId(ColId)> &stripeOf, int rowPairLoad)
    : variation_(&model.variation()), bank_(bank)
{
    const double fail_fraction =
        model.structuralFailFraction(rowPairLoad);
    // A call's columns span one or two stripes: fold each stripe's
    // (SA, fail) key prefixes once.
    std::map<StripeId, std::pair<std::uint64_t, std::uint64_t>> prefixes;
    columns_.reserve(columns.size());
    for (const ColId col : columns) {
        Column column;
        column.col = col;
        column.stripe = stripeOf(col);
        const auto [it, added] = prefixes.try_emplace(column.stripe);
        if (added) {
            it->second = {variation_->saKeyPrefix(bank, column.stripe),
                          variation_->failKeyPrefix(bank, column.stripe)};
        }
        const auto &[sa_prefix, fail_prefix] = it->second;
        column.saOffset =
            variation_->saOffsetFromKey(hashCombine(sa_prefix, col));
        column.structFail = variation_->structuralFailFromKey(
            hashCombine(fail_prefix, col), fail_fraction);
        columns_.push_back(column);
    }
}

} // namespace fcdram
