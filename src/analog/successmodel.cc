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

namespace {

/**
 * The sense-amplifier mechanism's inputs, which the four op margins
 * fill from their contexts.
 */
struct ComparisonContext
{
    /** Cells charge-sharing per terminal (comparison only). */
    int cellsPerSide = 1;

    /** Violated PRE->ACT gap (ns); negative: the speed grade's. */
    Ns glitchGapNs = -1.0;

    /** Additive region margin (sum of src- and dst-side terms, V). */
    Volt regionMargin = 0.0;

    OpConditions cond;

    /** The cell reads the inverted (reference) side (comparison only). */
    bool invertedSide = false;
};

/** Coupling + temperature + (conditional) latch-window penalty. */
Volt
environmentPenalty(const ChipProfile &profile,
                   const ComparisonContext &ctx)
{
    const AnalogParams &analog = profile.analog;
    Volt penalty = couplingPenalty(analog, ctx.cond.couplingFraction) +
                   temperaturePenalty(analog, ctx.cond.temperature);
    // The sequential (Samsung-style) two-row activation does not rely
    // on the decoder latch glitch, so the quantized-gap penalty only
    // applies to simultaneous activation designs.
    if (!profile.decoder.sequentialNeighborOnly) {
        if (ctx.glitchGapNs >= 0.0)
            penalty += latchWindowPenalty(analog, ctx.glitchGapNs);
        else
            penalty += latchWindowPenalty(analog, profile.speed);
    }
    return penalty;
}

/**
 * Correctness margin (V) of a comparison between terminal voltages
 * @p vA and @p vB: |vA - vB| scaled, minus all penalties.
 */
Volt
comparisonMargin(const ChipProfile &profile,
                 const SenseAmpModel &senseAmp, Volt vA, Volt vB,
                 const ComparisonContext &ctx)
{
    const AnalogParams &analog = profile.analog;
    Volt margin = analog.marginScale * std::abs(vA - vB);
    margin -= senseAmp.commonModePenalty(vA, vB);
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
    margin -= environmentPenalty(profile, ctx);
    return margin;
}

/**
 * Drive (restore) margin (V) of an overdrive into
 * @p totalActivatedRows rows.
 */
Volt
driveMarginMech(const ChipProfile &profile, int totalActivatedRows,
                const ComparisonContext &ctx)
{
    assert(totalActivatedRows >= 2);
    const AnalogParams &analog = profile.analog;
    Volt margin = analog.marginScale *
                  notDriveMargin(analog, totalActivatedRows);
    margin += ctx.regionMargin;
    margin -= environmentPenalty(profile, ctx);
    return margin;
}

} // namespace

Volt
SuccessModel::notMargin(const NotContext &ctx) const
{
    const AnalogParams &analog = profile_.analog;
    ComparisonContext mech;
    mech.glitchGapNs = ctx.glitchGapNs;
    mech.regionMargin =
        analog.srcRegionMargin[static_cast<int>(ctx.srcRegion)] +
        analog.dstRegionMargin[static_cast<int>(ctx.dstRegion)];
    mech.cond = ctx.cond;
    return driveMarginMech(profile_, ctx.totalActivatedRows, mech);
}

Volt
SuccessModel::rowCloneMargin(const RowCloneContext &ctx) const
{
    ComparisonContext mech;
    mech.glitchGapNs = ctx.glitchGapNs;
    mech.cond = ctx.cond;
    return driveMarginMech(profile_, ctx.activatedRows + 2, mech);
}

Volt
SuccessModel::logicMargin(const LogicContext &ctx) const
{
    const AnalogParams &analog = profile_.analog;
    Volt v_ref = 0.0;
    Volt v_com = 0.0;
    if (ctx.sensed) {
        v_ref = ctx.sensed->first;
        v_com = ctx.sensed->second;
    } else {
        assert(ctx.numInputs >= 2);
        assert(ctx.numOnes >= 0 && ctx.numOnes <= ctx.numInputs);
        const bool and_family =
            ctx.op == BoolOp::And || ctx.op == BoolOp::Nand;
        v_ref = idealReferenceVoltage(ctx.numInputs,
                                      and_family ? kVdd : kGnd, analog);
        v_com = idealComputeVoltage(ctx.numInputs, ctx.numOnes, analog);
    }
    ComparisonContext mech;
    mech.cellsPerSide = ctx.numInputs;
    mech.glitchGapNs = ctx.glitchGapNs;
    mech.regionMargin =
        analog.srcRegionMargin[static_cast<int>(ctx.comRegion)] +
        analog.dstRegionMargin[static_cast<int>(ctx.refRegion)];
    mech.cond = ctx.cond;
    mech.invertedSide = isInvertedOp(ctx.op);
    return comparisonMargin(profile_, senseAmp_, v_ref, v_com, mech);
}

Volt
SuccessModel::majMargin(const MajContext &ctx) const
{
    assert(ctx.activatedRows >= 2);
    Volt v_shared = 0.0;
    if (ctx.sensed) {
        v_shared = *ctx.sensed;
    } else {
        assert(ctx.numOnes + ctx.neutralCells <= ctx.activatedRows);
        v_shared = idealMajVoltage(ctx.activatedRows, ctx.numOnes,
                                   ctx.neutralCells, profile_.analog);
    }
    ComparisonContext mech;
    mech.cellsPerSide = ctx.activatedRows;
    mech.glitchGapNs = ctx.glitchGapNs;
    mech.cond = ctx.cond;
    return comparisonMargin(profile_, senseAmp_, v_shared, kVddHalf,
                            mech);
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
