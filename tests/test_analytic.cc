#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dram/address.hh"
#include "dram/openbitline.hh"
#include "fcdram/analytic.hh"
#include "fcdram/golden.hh"
#include "fcdram/ops.hh"
#include "fcdram/session.hh"
#include "pud/allocator.hh"
#include "stats/summary.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

ChipProfile
noisyProfile()
{
    return ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
}

TEST(Analytic, ProbabilitiesInUnitInterval)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
    const auto pairs = findActivationPairs(chip, 2, 2, 2, 5);
    ASSERT_FALSE(pairs.empty());
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    for (const BoolOp op :
         {BoolOp::And, BoolOp::Or, BoolOp::Nand, BoolOp::Nor}) {
        const auto samples = analyzer.logicSamples(
            0, op, ref, com, OpConditions(), PatternClass::Random);
        ASSERT_FALSE(samples.empty());
        for (const auto &sample : samples) {
            EXPECT_GE(sample.probability, 0.0);
            EXPECT_LE(sample.probability, 1.0);
        }
    }
}

TEST(Analytic, NotSampleCountMatchesGeometry)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
    const auto pairs = findActivationPairs(chip, 2, 2, 1, 7);
    ASSERT_FALSE(pairs.empty());
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    const auto samples =
        analyzer.notSamples(0, src, dst, OpConditions());
    // 2 destination rows x half the columns.
    EXPECT_EQ(samples.size(),
              2u * static_cast<std::size_t>(chip.geometry().columns) /
                  2u);
}

TEST(Analytic, IdealChipGivesCertainty)
{
    const Chip chip(test::idealProfile(), test::tinyGeometry(), 3);
    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analyzer(chip, config);
    const auto pairs = findActivationPairs(chip, 1, 1, 1, 7);
    ASSERT_FALSE(pairs.empty());
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    const auto samples = analyzer.notSamples(0, src, dst, {});
    ASSERT_FALSE(samples.empty());
    const std::uint64_t key = analyzer.drawKey(0, BoolOp::Not, src, dst);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_GT(analyzer.toPercent(samples[i].probability,
                                     hashCombine(key, i)),
                  99.999);
    }
}

TEST(Analytic, BinomialSamplingAddsTexture)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticConfig config;
    config.trials = 100;
    AnalyticAnalyzer analyzer(chip, config);
    // A probability strictly inside (0,1) must show sampling noise.
    SampleSet values;
    for (std::uint64_t i = 0; i < 50; ++i)
        values.add(analyzer.toPercent(0.9, hashCombine(1, i)));
    EXPECT_GT(values.max() - values.min(), 0.5);
    EXPECT_NEAR(values.mean(), 90.0, 3.0);
}

TEST(Analytic, TemperatureLowersProbabilities)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analyzer(chip, config);
    const auto pairs = findActivationPairs(chip, 4, 4, 1, 7);
    ASSERT_FALSE(pairs.empty());
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    OpConditions hot;
    hot.temperature = 95.0;
    const auto cold_samples =
        analyzer.notSamples(0, src, dst, OpConditions());
    const auto hot_samples = analyzer.notSamples(0, src, dst, hot);
    ASSERT_EQ(cold_samples.size(), hot_samples.size());
    double cold_mean = 0.0;
    double hot_mean = 0.0;
    for (std::size_t i = 0; i < cold_samples.size(); ++i) {
        cold_mean += cold_samples[i].probability;
        hot_mean += hot_samples[i].probability;
    }
    EXPECT_GT(cold_mean, hot_mean);
    // But only slightly (Obs. 7).
    EXPECT_LT((cold_mean - hot_mean) / cold_samples.size(), 0.02);
}

TEST(Analytic, FixedOnesMatchesWeightedExtremes)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analyzer(chip, config);
    const auto pairs = findActivationPairs(chip, 4, 4, 1, 9);
    ASSERT_FALSE(pairs.empty());
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    // AND with all-ones operands is the worst case (Obs. 14).
    const auto worst = analyzer.logicSamples(
        0, BoolOp::And, ref, com, {}, PatternClass::FixedOnes, 4);
    const auto best = analyzer.logicSamples(
        0, BoolOp::And, ref, com, {}, PatternClass::FixedOnes, 0);
    ASSERT_EQ(worst.size(), best.size());
    for (std::size_t i = 0; i < worst.size(); ++i)
        EXPECT_LE(worst[i].probability, best[i].probability);
}

// ---- Per-cell oracles -------------------------------------------------
//
// Test-local references of the analyzer's and the allocator's cell
// loops in their per-cell formulation: every cell asks the model for
// its own staticOffset() and structuralFail(), with no hoisting. The
// production loops must match them bit for bit.

/** Binomial(n, 1/2) weights, in the analyzer's arithmetic order. */
std::vector<double>
referenceBinomialWeights(int n)
{
    std::vector<double> weights(static_cast<std::size_t>(n) + 1, 0.0);
    double binom = 1.0;
    const double scale = std::pow(0.5, n);
    for (int k = 0; k <= n; ++k) {
        weights[static_cast<std::size_t>(k)] = binom * scale;
        binom = binom * static_cast<double>(n - k) /
                static_cast<double>(k + 1);
    }
    return weights;
}

/** Weights of a fixed ones-count, else the pattern's binomial. */
std::vector<double>
referenceWeights(PatternClass pattern, int n, int fixedOnes)
{
    if (fixedOnes >= 0) {
        std::vector<double> weights(static_cast<std::size_t>(n) + 1,
                                    0.0);
        weights[static_cast<std::size_t>(fixedOnes)] = 1.0;
        return weights;
    }
    if (pattern == PatternClass::FixedOnes)
        return std::vector<double>(static_cast<std::size_t>(n) + 1, 0.0);
    return referenceBinomialWeights(n);
}

/** Weighted per-cell success probability from per-cell accessors. */
double
referenceCellProbability(const SuccessModel &model, BankId bank,
                         RowId global, ColId col, StripeId stripe,
                         int load, const std::vector<double> &weights,
                         const std::vector<Volt> &margins)
{
    const Volt offset = model.staticOffset(bank, global, col, stripe);
    const bool fail = model.structuralFail(bank, stripe, col, load);
    double p = 0.0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        if (weights[k] == 0.0)
            continue;
        p += weights[k] *
             model.cellSuccessProbability(margins[k], offset, fail);
    }
    return p;
}

std::vector<CellSample>
referenceNotSamples(const Chip &chip, BankId bank, RowId srcGlobal,
                    RowId dstGlobal, const OpConditions &cond)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress src = decomposeRow(geometry, srcGlobal);
    const RowAddress dst = decomposeRow(geometry, dstGlobal);
    const ActivationSets sets =
        chip.decoder().neighborActivation(src.localRow, dst.localRow);
    std::vector<CellSample> samples;
    if (!sets.simultaneous && !sets.sequential)
        return samples;
    const SuccessModel &model = chip.model();
    const Bank &bank_ref = chip.bank(bank);
    const StripeId stripe = sharedStripe(src.subarray, dst.subarray);
    const int total = sets.nrf() + sets.nrl();
    NotContext ctx;
    ctx.totalActivatedRows = total;
    ctx.srcRegion = bank_ref.subarray(src.subarray)
                        .regionFor(src.localRow, stripe);
    ctx.cond = cond;
    for (const RowId local : sets.secondRows) {
        ctx.dstRegion =
            bank_ref.subarray(dst.subarray).regionFor(local, stripe);
        const Volt margin = model.notMargin(ctx);
        const RowId global = composeRow(geometry, dst.subarray, local);
        for (const ColId col :
             sharedColumns(geometry, src.subarray, dst.subarray)) {
            CellSample sample;
            sample.rowLocal = local;
            sample.col = col;
            sample.ownRegion = ctx.dstRegion;
            sample.otherRegion = ctx.srcRegion;
            sample.probability = model.cellSuccessProbability(
                margin, model.staticOffset(bank, global, col, stripe),
                model.structuralFail(bank, stripe, col,
                                     (total + 1) / 2));
            samples.push_back(sample);
        }
    }
    return samples;
}

std::vector<CellSample>
referenceLogicSamples(const Chip &chip, BankId bank, BoolOp op,
                      RowId refGlobal, RowId comGlobal,
                      const OpConditions &cond, PatternClass pattern,
                      int fixedOnes)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress ref = decomposeRow(geometry, refGlobal);
    const RowAddress com = decomposeRow(geometry, comGlobal);
    const ActivationSets sets =
        chip.decoder().neighborActivation(ref.localRow, com.localRow);
    std::vector<CellSample> samples;
    if (!sets.simultaneous || sets.nrf() != sets.nrl())
        return samples;
    const int n = sets.nrl();
    const SuccessModel &model = chip.model();
    const Bank &bank_ref = chip.bank(bank);
    const Subarray &ref_sub = bank_ref.subarray(ref.subarray);
    const Subarray &com_sub = bank_ref.subarray(com.subarray);
    const StripeId stripe = sharedStripe(ref.subarray, com.subarray);
    const std::vector<double> weights =
        referenceWeights(pattern, n, fixedOnes);
    const bool measure_ref = isInvertedOp(op);
    const Region ref_rep = ref_sub.regionFor(ref.localRow, stripe);
    const Region com_rep = com_sub.regionFor(com.localRow, stripe);
    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    ctx.cond = cond;
    if (pattern != PatternClass::Random)
        ctx.cond.couplingFraction = 0.0;
    for (const RowId local :
         measure_ref ? sets.firstRows : sets.secondRows) {
        const Region own =
            (measure_ref ? ref_sub : com_sub).regionFor(local, stripe);
        ctx.refRegion = measure_ref ? own : ref_rep;
        ctx.comRegion = measure_ref ? com_rep : own;
        std::vector<Volt> margins;
        for (int k = 0; k <= n; ++k) {
            ctx.numOnes = k;
            margins.push_back(model.logicMargin(ctx));
        }
        const RowId global = composeRow(
            geometry, measure_ref ? ref.subarray : com.subarray, local);
        for (const ColId col :
             sharedColumns(geometry, ref.subarray, com.subarray)) {
            CellSample sample;
            sample.rowLocal = local;
            sample.col = col;
            sample.ownRegion = own;
            sample.otherRegion = measure_ref ? com_rep : ref_rep;
            sample.probability = referenceCellProbability(
                model, bank, global, col, stripe, n, weights, margins);
            samples.push_back(sample);
        }
    }
    return samples;
}

std::vector<CellSample>
referenceMajSamples(const Chip &chip, BankId bank, RowId rfGlobal,
                    RowId rlGlobal, int operandCells, int neutralCells,
                    const OpConditions &cond, int fixedOnes)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress rf = decomposeRow(geometry, rfGlobal);
    const RowAddress rl = decomposeRow(geometry, rlGlobal);
    const auto set =
        chip.decoder().sameSubarrayActivation(rf.localRow, rl.localRow);
    const int n = static_cast<int>(set.size());
    std::vector<CellSample> samples;
    if (n < 2 || operandCells + neutralCells > n)
        return samples;
    const SuccessModel &model = chip.model();
    const std::vector<double> weights =
        referenceWeights(PatternClass::Random, operandCells, fixedOnes);
    MajContext ctx;
    ctx.activatedRows = n;
    ctx.neutralCells = neutralCells;
    ctx.cond = cond;
    std::vector<Volt> margins;
    for (int k = 0; k < static_cast<int>(weights.size()); ++k) {
        ctx.numOnes = k + (n - operandCells - neutralCells) / 2;
        margins.push_back(model.majMargin(ctx));
    }
    for (const RowId local : set) {
        const RowId global = composeRow(geometry, rf.subarray, local);
        for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
             ++col) {
            const StripeId stripe = stripeFor(rf.subarray, col);
            CellSample sample;
            sample.rowLocal = local;
            sample.col = col;
            sample.ownRegion = chip.bank(bank)
                                   .subarray(rf.subarray)
                                   .regionFor(local, stripe);
            sample.otherRegion = sample.ownRegion;
            sample.probability = referenceCellProbability(
                model, bank, global, col, stripe, (n + 1) / 2, weights,
                margins);
            samples.push_back(sample);
        }
    }
    return samples;
}

using pud::MarginCase;

std::vector<double>
referenceLogicProbabilities(const Chip &chip, BankId bank, BoolOp op,
                            RowId refGlobal, RowId comGlobal,
                            Celsius temperature, MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress ref = decomposeRow(geometry, refGlobal);
    const RowAddress com = decomposeRow(geometry, comGlobal);
    const ActivationSets sets =
        chip.decoder().neighborActivation(ref.localRow, com.localRow);
    if (!sets.simultaneous || sets.nrf() != sets.nrl())
        return {};
    const int n = sets.nrl();
    const SuccessModel &model = chip.model();
    const Bank &bank_ref = chip.bank(bank);
    const StripeId stripe = sharedStripe(ref.subarray, com.subarray);
    const bool measure_ref = isInvertedOp(op);
    const RowId measured =
        (measure_ref ? sets.firstRows : sets.secondRows).front();
    const SubarrayId row_sa = measure_ref ? ref.subarray : com.subarray;
    const Region own =
        bank_ref.subarray(row_sa).regionFor(measured, stripe);
    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    ctx.cond.temperature = temperature;
    ctx.refRegion = measure_ref ? own
                                : bank_ref.subarray(ref.subarray)
                                      .regionFor(ref.localRow, stripe);
    ctx.comRegion = measure_ref ? bank_ref.subarray(com.subarray)
                                      .regionFor(com.localRow, stripe)
                                : own;
    Volt margin = 0.0;
    for (int k = 0; k <= n; ++k) {
        ctx.numOnes = k;
        const Volt candidate = model.logicMargin(ctx);
        if (k == 0)
            margin = candidate;
        else if (marginCase == MarginCase::Worst)
            margin = std::min(margin, candidate);
        else
            margin = std::max(margin, candidate);
    }
    std::vector<double> probabilities(
        static_cast<std::size_t>(geometry.columns), -1.0);
    const RowId global = composeRow(geometry, row_sa, measured);
    for (const ColId col :
         sharedColumns(geometry, ref.subarray, com.subarray)) {
        probabilities[col] = model.cellSuccessProbability(
            margin, model.staticOffset(bank, global, col, stripe),
            model.structuralFail(bank, stripe, col, n));
    }
    return probabilities;
}

/** Per-column probabilities of one row at stripeFor(subarray, col). */
std::vector<double>
referenceRowProbabilities(const Chip &chip, BankId bank, RowId global,
                          Volt margin, int load)
{
    const GeometryConfig &geometry = chip.geometry();
    const SubarrayId subarray = decomposeRow(geometry, global).subarray;
    const SuccessModel &model = chip.model();
    std::vector<double> probabilities;
    for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
         ++col) {
        const StripeId stripe = stripeFor(subarray, col);
        probabilities.push_back(model.cellSuccessProbability(
            margin, model.staticOffset(bank, global, col, stripe),
            model.structuralFail(bank, stripe, col, load)));
    }
    return probabilities;
}

std::vector<double>
referenceRowCloneProbabilities(const Chip &chip, BankId bank,
                               RowId srcGlobal, RowId dstGlobal,
                               Celsius temperature,
                               MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const auto set = chip.decoder().sameSubarrayActivation(
        decomposeRow(geometry, srcGlobal).localRow,
        decomposeRow(geometry, dstGlobal).localRow);
    if (set.size() != 2)
        return {};
    const int total = 3;
    RowCloneContext ctx;
    ctx.activatedRows = 2;
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    ctx.cond.temperature = temperature;
    return referenceRowProbabilities(chip, bank, dstGlobal,
                                     chip.model().rowCloneMargin(ctx),
                                     (total + 1) / 2);
}

std::vector<double>
referenceMajProbabilities(const Chip &chip, BankId bank, RowId rfGlobal,
                          RowId rlGlobal, int activatedRows,
                          Celsius temperature, MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress rf = decomposeRow(geometry, rfGlobal);
    const auto set = chip.decoder().sameSubarrayActivation(
        rf.localRow, decomposeRow(geometry, rlGlobal).localRow);
    if (static_cast<int>(set.size()) != activatedRows ||
        activatedRows < 2)
        return {};
    const SuccessModel &model = chip.model();
    MajContext ctx;
    ctx.activatedRows = activatedRows;
    ctx.neutralCells = 1;
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    ctx.cond.temperature = temperature;
    Volt margin = 0.0;
    if (marginCase == MarginCase::Worst) {
        ctx.numOnes = activatedRows / 2;
        margin = model.majMargin(ctx);
    } else {
        for (int k = 0; k < activatedRows; ++k) {
            ctx.numOnes = k;
            const Volt candidate = model.majMargin(ctx);
            margin = k == 0 ? candidate : std::max(margin, candidate);
        }
    }
    return referenceRowProbabilities(
        chip, bank, composeRow(geometry, rf.subarray, set.front()),
        margin, (activatedRows + 1) / 2);
}

void
expectSameBits(double got, double want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << got << " vs " << want;
}

void
expectSameSamples(const std::vector<CellSample> &got,
                  const std::vector<CellSample> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rowLocal, want[i].rowLocal);
        EXPECT_EQ(got[i].col, want[i].col);
        EXPECT_EQ(got[i].ownRegion, want[i].ownRegion);
        EXPECT_EQ(got[i].otherRegion, want[i].otherRegion);
        expectSameBits(got[i].probability, want[i].probability);
    }
}

void
expectSameProbabilities(const std::vector<double> &got,
                        const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameBits(got[i], want[i]);
}

/** An activating (rf, rl) pair of global rows. */
struct OraclePair
{
    int rows; ///< NRL of a neighbor pair; group size of a SiMRA pair.
    RowId rf;
    RowId rl;
};

/** Cross-subarray pairs of every N:N and N:2N shape. */
std::vector<OraclePair>
neighborPairs(const Chip &chip)
{
    const GeometryConfig &geometry = chip.geometry();
    std::vector<OraclePair> pairs;
    for (const auto &[nrf, nrl] : std::vector<std::pair<int, int>>{
             {1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {1, 2}, {2, 4},
             {4, 8}}) {
        for (const auto &[rf, rl] :
             findActivationPairs(chip, nrf, nrl, 1, 5)) {
            // Both directions across a stripe: 0 -> 1 and 2 -> 1.
            pairs.push_back({nrl, composeRow(geometry, 0, rf),
                             composeRow(geometry, 1, rl)});
            pairs.push_back({nrl, composeRow(geometry, 2, rf),
                             composeRow(geometry, 1, rl)});
        }
    }
    return pairs;
}

/** Same-subarray SiMRA pairs of every group size. */
std::vector<OraclePair>
simraPairs(const Chip &chip)
{
    std::vector<OraclePair> pairs;
    for (const int rows : {2, 4, 8, 16}) {
        for (const auto &[rf, rl] : findSimraPairs(chip, rows, 1, 5)) {
            pairs.push_back({rows, composeRow(chip.geometry(), 1, rf),
                             composeRow(chip.geometry(), 1, rl)});
        }
    }
    return pairs;
}

/**
 * The four manufacturer profiles as calibrated, and again with a
 * structural-fail rate high enough that a tiny chip shows how the
 * fail flags depend on the row-pair load.
 */
std::vector<ChipProfile>
oracleProfiles()
{
    std::vector<ChipProfile> profiles = test::manufacturerProfiles();
    for (ChipProfile profile : test::manufacturerProfiles()) {
        profile.analog.structuralFailPerPair = 0.1;
        profiles.push_back(profile);
    }
    return profiles;
}

/** Conditions the oracles run under: the 50 C baseline and 95 C. */
std::vector<OpConditions>
oracleConditions()
{
    OpConditions hot;
    hot.temperature = 95.0;
    return {OpConditions(), hot};
}

TEST(AnalyticOracle, NotSamplesMatchPerCellReference)
{
    int compared = 0;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
        for (const OraclePair &pair : neighborPairs(chip)) {
            for (const OpConditions &cond : oracleConditions()) {
                const auto want =
                    referenceNotSamples(chip, 0, pair.rf, pair.rl, cond);
                expectSameSamples(
                    analyzer.notSamples(0, pair.rf, pair.rl, cond), want);
                compared += static_cast<int>(want.size());
            }
        }
    }
    EXPECT_GT(compared, 0);
}

TEST(AnalyticOracle, LogicSamplesMatchPerCellReference)
{
    int compared = 0;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
        for (const OraclePair &pair : neighborPairs(chip)) {
            for (const OpConditions &cond : oracleConditions()) {
                for (const BoolOp op : {BoolOp::And, BoolOp::Or,
                                        BoolOp::Nand, BoolOp::Nor}) {
                    for (const PatternClass pattern :
                         {PatternClass::Random, PatternClass::AllOnes,
                          PatternClass::AllZeros,
                          PatternClass::FixedOnes}) {
                        // -1 integrates over the pattern's weights;
                        // 0..N is the Fig. 16 ones-count sweep.
                        for (int ones = -1; ones <= pair.rows; ++ones) {
                            const auto want = referenceLogicSamples(
                                chip, 0, op, pair.rf, pair.rl, cond,
                                pattern, ones);
                            expectSameSamples(
                                analyzer.logicSamples(0, op, pair.rf,
                                                      pair.rl, cond,
                                                      pattern, ones),
                                want);
                            compared += static_cast<int>(want.size());
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 0);
}

TEST(AnalyticOracle, MajSamplesMatchPerCellReference)
{
    int compared = 0;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
        for (const OraclePair &pair : simraPairs(chip)) {
            for (const OpConditions &cond : oracleConditions()) {
                // MAJ3, MAJ5 and MAJ(rows - 1), one tiebreaker each.
                for (const int operands : {3, 5, pair.rows - 1}) {
                    for (int ones = -1; ones <= operands; ++ones) {
                        const auto want =
                            referenceMajSamples(chip, 0, pair.rf, pair.rl,
                                                operands, 1, cond, ones);
                        expectSameSamples(
                            analyzer.majSamples(0, pair.rf, pair.rl,
                                                operands, 1, cond, ones),
                            want);
                        compared += static_cast<int>(want.size());
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 0);
}

TEST(AnalyticOracle, AllocatorProbabilitiesMatchPerCellReference)
{
    // Entries compared per probability function; none may be vacuous.
    std::map<std::string, std::size_t> compared;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        for (const OpConditions &cond : oracleConditions()) {
            const Celsius temp = cond.temperature;
            for (const MarginCase margin_case :
                 {MarginCase::Worst, MarginCase::Best}) {
                for (const OraclePair &pair : neighborPairs(chip)) {
                    for (const BoolOp op : {BoolOp::And, BoolOp::Or,
                                            BoolOp::Nand,
                                            BoolOp::Nor}) {
                        const auto want = referenceLogicProbabilities(
                            chip, 0, op, pair.rf, pair.rl, temp,
                            margin_case);
                        expectSameProbabilities(
                            pud::logicSuccessProbabilities(
                                chip, 0, op, pair.rf, pair.rl, temp,
                                margin_case),
                            want);
                        compared["logic"] += want.size();
                    }
                    // NOT: the first destination row of the samples.
                    OpConditions not_cond;
                    not_cond.temperature = temp;
                    not_cond.couplingFraction =
                        margin_case == MarginCase::Worst ? 1.0 : 0.0;
                    const auto samples = referenceNotSamples(
                        chip, 0, pair.rf, pair.rl, not_cond);
                    std::vector<double> want;
                    if (!samples.empty()) {
                        want.assign(static_cast<std::size_t>(
                                        chip.geometry().columns),
                                    -1.0);
                        for (const CellSample &sample : samples) {
                            if (sample.rowLocal == samples.front().rowLocal)
                                want[sample.col] = sample.probability;
                        }
                    }
                    expectSameProbabilities(
                        pud::notSuccessProbabilities(
                            chip, 0, pair.rf, pair.rl, temp,
                            margin_case),
                        want);
                    compared["not"] += want.size();
                }
                for (const OraclePair &pair : simraPairs(chip)) {
                    const auto clone = referenceRowCloneProbabilities(
                        chip, 0, pair.rf, pair.rl, temp, margin_case);
                    expectSameProbabilities(
                        pud::rowCloneSuccessProbabilities(
                            chip, 0, pair.rf, pair.rl, temp,
                            margin_case),
                        clone);
                    const auto maj = referenceMajProbabilities(
                        chip, 0, pair.rf, pair.rl, pair.rows, temp,
                        margin_case);
                    expectSameProbabilities(
                        pud::majSuccessProbabilities(
                            chip, 0, pair.rf, pair.rl, pair.rows, temp,
                            margin_case),
                        maj);
                    compared["rowclone"] += clone.size();
                    compared["maj"] += maj.size();
                }
            }
        }
    }
    for (const char *kind : {"logic", "not", "rowclone", "maj"})
        EXPECT_GT(compared[kind], 0u) << kind;
}

// ---- Sweeps ------------------------------------------------------------
//
// A sweep evaluates several variants of one call in a single pass over
// its cells. Variant by variant, over the cells a keep mask accepts,
// it must equal the one-variant call bit for bit.

/**
 * Keep masks for a call of @p cells cells whose baseline
 * probabilities are @p base: none (keep all), the temperature
 * figures' >0.9 filter, and a fixed pattern that keeps two in three.
 */
std::vector<std::vector<bool>>
sweepKeepMasks(const std::vector<CellSample> &base)
{
    std::vector<bool> above(base.size());
    std::vector<bool> pattern(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        above[i] = base[i].probability > 0.9;
        pattern[i] = i % 3 != 1;
    }
    return {{}, above, pattern};
}

/** got[v] equals want[v]'s probabilities at the kept cells, in order. */
void
expectSweepMatches(const std::vector<std::vector<double>> &got,
                   const std::vector<std::vector<CellSample>> &want,
                   const std::vector<bool> &keep, std::size_t &compared)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_TRUE(keep.empty() || keep.size() == want[v].size());
        std::size_t kept = 0;
        for (std::size_t i = 0; i < want[v].size(); ++i) {
            if (!keep.empty() && !keep[i])
                continue;
            ASSERT_LT(kept, got[v].size()) << "variant " << v;
            expectSameBits(got[v][kept++], want[v][i].probability);
        }
        EXPECT_EQ(kept, got[v].size()) << "variant " << v;
        compared += kept;
    }
}

TEST(AnalyticSweep, NotSweepMatchesNotSamplesPerVariant)
{
    OpConditions warm;
    warm.temperature = 60.0;
    OpConditions hot;
    hot.temperature = 95.0;
    OpConditions quiet;
    quiet.couplingFraction = 0.0;
    // The first variant equals the baseline.
    const std::vector<OpConditions> variants = {OpConditions(), warm,
                                                hot, quiet};
    std::size_t compared = 0;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
        for (const OraclePair &pair : neighborPairs(chip)) {
            std::vector<std::vector<CellSample>> want;
            for (const OpConditions &cond : variants)
                want.push_back(analyzer.notSamples(0, pair.rf, pair.rl, cond));
            for (const std::vector<bool> &keep : sweepKeepMasks(want[0])) {
                expectSweepMatches(
                    analyzer.notSweep(0, pair.rf, pair.rl, variants, keep),
                    want, keep, compared);
            }
        }
    }
    EXPECT_GT(compared, 0u);
}

TEST(AnalyticSweep, LogicSweepMatchesLogicSamplesPerVariant)
{
    OpConditions warm;
    warm.temperature = 60.0;
    OpConditions hot;
    hot.temperature = 95.0;
    std::size_t compared = 0;
    for (const ChipProfile &profile : oracleProfiles()) {
        const Chip chip(profile, test::tinyGeometry(), 3);
        const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
        for (const OraclePair &pair : neighborPairs(chip)) {
            // The first variant equals the baseline; the rest vary the
            // temperature, the ones-count, or both.
            const std::vector<LogicVariant> variants = {
                {OpConditions(), -1}, {warm, -1},
                {hot, -1},            {OpConditions(), 0},
                {hot, pair.rows},     {OpConditions(), pair.rows / 2}};
            for (const BoolOp op : {BoolOp::And, BoolOp::Or,
                                    BoolOp::Nand, BoolOp::Nor}) {
                for (const PatternClass pattern :
                     {PatternClass::Random, PatternClass::AllOnes,
                      PatternClass::FixedOnes}) {
                    std::vector<std::vector<CellSample>> want;
                    for (const LogicVariant &variant : variants) {
                        want.push_back(analyzer.logicSamples(
                            0, op, pair.rf, pair.rl, variant.cond,
                            pattern, variant.fixedOnes));
                    }
                    for (const std::vector<bool> &keep :
                         sweepKeepMasks(want[0])) {
                        expectSweepMatches(
                            analyzer.logicSweep(0, op, pair.rf, pair.rl,
                                                pattern, variants, keep),
                            want, keep, compared);
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 0u);
}

TEST(AnalyticSweep, SweepsReturnOneVectorPerVariant)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    const AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
    const GeometryConfig &geometry = chip.geometry();
    // A pair that does not activate has no cells under any variant.
    RowId rf = kInvalidRow;
    RowId rl = kInvalidRow;
    const auto rows = static_cast<RowId>(geometry.rowsPerSubarray);
    for (RowId a = 0; a < rows && rf == kInvalidRow; ++a) {
        for (RowId b = 0; b < rows; ++b) {
            const ActivationSets sets =
                chip.decoder().neighborActivation(a, b);
            if (!sets.simultaneous && !sets.sequential) {
                rf = composeRow(geometry, 0, a);
                rl = composeRow(geometry, 1, b);
                break;
            }
        }
    }
    ASSERT_NE(rf, kInvalidRow);
    const auto logic =
        analyzer.logicSweep(0, BoolOp::And, rf, rl, PatternClass::Random,
                            {LogicVariant{}, LogicVariant{}});
    ASSERT_EQ(logic.size(), 2u);
    EXPECT_TRUE(logic[0].empty() && logic[1].empty());
    const auto no_cells =
        analyzer.notSweep(0, rf, rl, {OpConditions(), OpConditions()});
    ASSERT_EQ(no_cells.size(), 2u);
    EXPECT_TRUE(no_cells[0].empty() && no_cells[1].empty());
    // No variants, no vectors.
    EXPECT_TRUE(analyzer.notSweep(0, rf, rl, {}).empty());
}

/**
 * The key cross-engine test: Monte-Carlo success rates through the
 * full command-level executor agree with the closed-form engine.
 */
class EngineAgreement : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineAgreement, NotMcMatchesAnalytic)
{
    const int dest = GetParam();
    const ChipProfile profile = noisyProfile();
    Chip chip(profile, test::tinyGeometry(), 11);
    const auto pairs = findActivationPairs(chip, dest, dest, 2, 13);
    if (pairs.empty())
        GTEST_SKIP() << "no " << dest << ":" << dest << " pair";

    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analytic(chip, config);
    DramBender bender(chip, 17);
    SuccessRateAnalyzer mc(bender, 19);

    for (const auto &[rf, rl] : pairs) {
        const RowId src = composeRow(chip.geometry(), 0, rf);
        const RowId dst = composeRow(chip.geometry(), 1, rl);
        const auto samples =
            analytic.notSamples(0, src, dst, OpConditions());
        double analytic_mean = 0.0;
        for (const auto &sample : samples)
            analytic_mean += 100.0 * sample.probability;
        analytic_mean /= static_cast<double>(samples.size());

        NotTrialConfig trial;
        trial.srcGlobal = src;
        trial.dstGlobal = dst;
        trial.trials = 400;
        const NotTrialResult result = mc.runNot(trial);
        ASSERT_GT(result.cells.numCells(), 0u);
        EXPECT_NEAR(result.cells.averageSuccessPercent(), analytic_mean,
                    6.0)
            << "dest=" << dest;
    }
}

INSTANTIATE_TEST_SUITE_P(DestRows, EngineAgreement,
                         ::testing::Values(1, 2, 4));

TEST(EngineAgreementLogic, TwoInputAndMatches)
{
    const ChipProfile profile = noisyProfile();
    Chip chip(profile, test::tinyGeometry(), 23);
    const auto pairs = findActivationPairs(chip, 2, 2, 2, 29);
    ASSERT_FALSE(pairs.empty());

    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analytic(chip, config);
    DramBender bender(chip, 31);
    SuccessRateAnalyzer mc(bender, 37);

    for (const auto &[rf, rl] : pairs) {
        const RowId ref = composeRow(chip.geometry(), 0, rf);
        const RowId com = composeRow(chip.geometry(), 1, rl);
        const auto samples = analytic.logicSamples(
            0, BoolOp::And, ref, com, OpConditions(),
            PatternClass::Random);
        double analytic_mean = 0.0;
        for (const auto &sample : samples)
            analytic_mean += 100.0 * sample.probability;
        analytic_mean /= static_cast<double>(samples.size());

        LogicTrialConfig trial;
        trial.op = BoolOp::And;
        trial.refGlobal = ref;
        trial.comGlobal = com;
        trial.trials = 400;
        const LogicTrialResult result = mc.runLogic(trial);
        ASSERT_GT(result.computeCells.numCells(), 0u);
        EXPECT_NEAR(result.computeCells.averageSuccessPercent(),
                    analytic_mean, 8.0);
    }
}

TEST(EngineAgreementLogic, InvertedSidePenaltyFallsOnReferenceRows)
{
    // A 1 V inverted-side penalty on an otherwise ideal chip: the
    // analytic engine charges it to the reference rows, which read
    // NAND/NOR, so P(AND) = 1 and P(NAND) = 0. The executor must
    // agree in both modes: every shared column's compute row reads
    // the golden AND, and its reference row the wrong NAND value.
    ChipProfile profile = test::idealProfile();
    profile.analog.invertedSidePenalty = 1.0;
    const GeometryConfig geometry = test::tinyGeometry();
    const Chip pristine(profile, geometry, 5);
    const auto pairs = findQualifyingPairs(
        pristine, PairContext{0, 0}, PairQuery::square(2), 2000, 1, 41);
    ASSERT_FALSE(pairs.empty());
    const auto [ref_anchor, com_anchor] = pairs.front();
    const ActivationSets sets = pristine.decoder().neighborActivation(
        decomposeRow(geometry, ref_anchor).localRow,
        decomposeRow(geometry, com_anchor).localRow);
    std::vector<RowId> ref_rows;
    std::vector<RowId> com_rows;
    for (const RowId local : sets.firstRows)
        ref_rows.push_back(composeRow(geometry, 0, local));
    for (const RowId local : sets.secondRows)
        com_rows.push_back(composeRow(geometry, 1, local));

    AnalyticConfig config;
    config.sampleBinomial = false;
    const AnalyticAnalyzer analytic(pristine, config);
    for (const auto &[op, probability] :
         {std::pair{BoolOp::And, 1.0}, std::pair{BoolOp::Nand, 0.0}}) {
        const auto samples =
            analytic.logicSamples(0, op, ref_anchor, com_anchor,
                                  OpConditions(), PatternClass::Random);
        ASSERT_FALSE(samples.empty());
        for (const CellSample &sample : samples)
            EXPECT_NEAR(sample.probability, probability, 1e-12);
    }

    Rng rng(43);
    std::vector<BitVector> operands;
    for (std::size_t i = 0; i < com_rows.size(); ++i) {
        BitVector operand(static_cast<std::size_t>(geometry.columns));
        operand.randomize(rng);
        operands.push_back(operand);
    }
    const BitVector golden = goldenAnd(operands);
    for (const ExecMode mode :
         {ExecMode::WordParallel, ExecMode::ScalarReference}) {
        Chip chip(profile, geometry, 5);
        DramBender bender(chip, 47, mode);
        Ops ops(bender);
        ASSERT_TRUE(ops.initReference(0, BoolOp::And, ref_rows));
        for (std::size_t i = 0; i < com_rows.size(); ++i)
            bender.writeRow(0, com_rows[i], operands[i]);
        const LogicOpResult result = ops.executeLogic(
            0, ref_anchor, com_anchor, ref_rows, com_rows);
        ASSERT_FALSE(result.columns.empty());
        for (const ColId col : result.columns) {
            EXPECT_EQ(result.computeResult.get(col), golden.get(col))
                << "compute col " << col;
            EXPECT_EQ(result.referenceResult.get(col), golden.get(col))
                << "reference col " << col;
        }
    }
}

TEST(Analytic, MajSamplesCoverGroupAndStayInUnitInterval)
{
    const Chip chip(noisyProfile(), test::tinyGeometry(), 3);
    AnalyticAnalyzer analyzer(chip, AnalyticConfig{});
    const auto pairs = findSimraPairs(chip, 4, 1, 5);
    ASSERT_FALSE(pairs.empty());
    const RowId rf = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId rl = composeRow(chip.geometry(), 0, pairs[0].second);
    // MAJ3: 3 operand cells + 1 neutral on the 4-row group; all
    // columns of the subarray participate.
    const auto samples =
        analyzer.majSamples(0, rf, rl, 3, 1, OpConditions());
    EXPECT_EQ(samples.size(),
              4u * static_cast<std::size_t>(chip.geometry().columns));
    for (const auto &sample : samples) {
        EXPECT_GE(sample.probability, 0.0);
        EXPECT_LE(sample.probability, 1.0);
    }

    // The deciding single vote (2-vs-1 at full coupling) is the
    // hardest case; the all-agree case upper-bounds it.
    const auto decisive =
        analyzer.majSamples(0, rf, rl, 3, 1, OpConditions(), 2);
    const auto unanimous =
        analyzer.majSamples(0, rf, rl, 3, 1, OpConditions(), 3);
    ASSERT_EQ(decisive.size(), unanimous.size());
    double decisive_mean = 0.0;
    double unanimous_mean = 0.0;
    for (std::size_t i = 0; i < decisive.size(); ++i) {
        decisive_mean += decisive[i].probability;
        unanimous_mean += unanimous[i].probability;
    }
    EXPECT_GE(unanimous_mean, decisive_mean);
}

TEST(Analytic, MajSamplesExactOnIdealChip)
{
    const Chip chip(test::idealProfile(), test::tinyGeometry(), 3);
    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analyzer(chip, config);
    const auto pairs = findSimraPairs(chip, 8, 1, 5);
    ASSERT_FALSE(pairs.empty());
    const RowId rf = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId rl = composeRow(chip.geometry(), 0, pairs[0].second);
    // MAJ5 on the 8-row group: 5 operands, 1 neutral, 1 balanced
    // constant pair. Noiseless chip -> certain success.
    const auto samples =
        analyzer.majSamples(0, rf, rl, 5, 1, OpConditions());
    ASSERT_FALSE(samples.empty());
    for (const auto &sample : samples)
        EXPECT_NEAR(sample.probability, 1.0, 1e-9);
}

} // namespace
} // namespace fcdram
