#include "fcdram/analytic.hh"

#include <array>
#include <cassert>
#include <cmath>

#include "dram/address.hh"
#include "dram/openbitline.hh"

namespace fcdram {

AnalyticAnalyzer::AnalyticAnalyzer(const Chip &chip,
                                   const AnalyticConfig &config)
    : chip_(chip), config_(config)
{
}

std::uint64_t
AnalyticAnalyzer::drawKey(BankId bank, BoolOp op, RowId first,
                          RowId second, PatternClass pattern) const
{
    const std::uint64_t what = std::uint64_t{bank} << 16 |
                               static_cast<std::uint64_t>(op) << 8 |
                               static_cast<std::uint64_t>(pattern);
    return hashCombine(hashCombine(chip_.seed(), what),
                       std::uint64_t{first} << 32 | second);
}

double
AnalyticAnalyzer::toPercent(double probability, std::uint64_t key) const
{
    if (!config_.sampleBinomial)
        return 100.0 * probability;
    const auto trials = static_cast<std::uint64_t>(config_.trials);
    return 100.0 *
           static_cast<double>(binomialFromHash(trials, probability, key)) /
           static_cast<double>(trials);
}

std::vector<double>
AnalyticAnalyzer::onesWeights(PatternClass pattern, int n)
{
    std::vector<double> weights(static_cast<std::size_t>(n) + 1, 0.0);
    switch (pattern) {
      case PatternClass::Random:
      case PatternClass::AllOnes:
      case PatternClass::AllZeros: {
        // Per-column operand bits (Random) and uniformly drawn
        // all-1s/all-0s row assignments both make numOnes
        // Binomial(n, 1/2); the classes differ only in coupling.
        double binom = 1.0;
        const double scale = std::pow(0.5, n);
        for (int k = 0; k <= n; ++k) {
            weights[static_cast<std::size_t>(k)] = binom * scale;
            binom = binom * static_cast<double>(n - k) /
                    static_cast<double>(k + 1);
        }
        break;
      }
      case PatternClass::FixedOnes:
        // Caller supplies the ones count explicitly; not used here.
        break;
    }
    return weights;
}

std::vector<std::vector<double>>
AnalyticAnalyzer::notCells(BankId bank, RowId srcGlobal, RowId dstGlobal,
                           const std::vector<OpConditions> &variants,
                           const std::vector<bool> &keep,
                           std::vector<CellSample> *samples) const
{
    std::vector<std::vector<double>> swept(samples ? 0 : variants.size());
    const GeometryConfig &geometry = chip_.geometry();
    const RowAddress src = decomposeRow(geometry, srcGlobal);
    const RowAddress dst = decomposeRow(geometry, dstGlobal);
    const ActivationSets sets =
        chip_.decoder().neighborActivation(src.localRow, dst.localRow);
    if (!sets.simultaneous && !sets.sequential)
        return swept;

    const SuccessModel &model = chip_.model();
    const Bank &bank_ref = chip_.bank(bank);
    const Subarray &src_sub = bank_ref.subarray(src.subarray);
    const Subarray &dst_sub = bank_ref.subarray(dst.subarray);
    const StripeId stripe = sharedStripe(src.subarray, dst.subarray);
    const auto columns =
        sharedColumns(geometry, src.subarray, dst.subarray);
    const int total = sets.nrf() + sets.nrl();
    const int pair_load = (total + 1) / 2;
    const std::size_t cells = sets.secondRows.size() * columns.size();
    assert(keep.empty() || keep.size() == cells);

    NotContext ctx;
    ctx.totalActivatedRows = total;
    ctx.srcRegion = src_sub.regionFor(src.localRow, stripe);

    const ColumnVariation statics(
        model, bank, columns, [stripe](ColId) { return stripe; },
        pair_load);
    if (samples != nullptr)
        samples->reserve(cells);
    std::vector<Volt> margins(variants.size());
    std::size_t row_first = 0;
    for (const RowId local : sets.secondRows) {
        ctx.dstRegion = dst_sub.regionFor(local, stripe);
        for (std::size_t v = 0; v < variants.size(); ++v) {
            ctx.cond = variants[v];
            margins[v] = model.notMargin(ctx);
        }
        const RowId global = composeRow(geometry, dst.subarray, local);
        statics.forEachCell(
            global,
            [&](std::size_t i) {
                return keep.empty() || keep[row_first + i];
            },
            [&](const auto &column, Volt offset) {
                for (std::size_t v = 0; v < variants.size(); ++v) {
                    const double p = model.cellSuccessProbability(
                        margins[v], offset, column.structFail);
                    if (samples != nullptr)
                        samples->push_back({local, column.col,
                                            ctx.dstRegion, ctx.srcRegion,
                                            p});
                    else
                        swept[v].push_back(p);
                }
            });
        row_first += columns.size();
    }
    return swept;
}

std::vector<CellSample>
AnalyticAnalyzer::notSamples(BankId bank, RowId srcGlobal,
                             RowId dstGlobal,
                             const OpConditions &cond) const
{
    std::vector<CellSample> samples;
    notCells(bank, srcGlobal, dstGlobal, {cond}, {}, &samples);
    return samples;
}

std::vector<std::vector<double>>
AnalyticAnalyzer::notSweep(BankId bank, RowId srcGlobal,
                           RowId dstGlobal,
                           const std::vector<OpConditions> &variants,
                           const std::vector<bool> &keep) const
{
    return notCells(bank, srcGlobal, dstGlobal, variants, keep, nullptr);
}

std::vector<CellSample>
AnalyticAnalyzer::majSamples(BankId bank, RowId rfGlobal,
                             RowId rlGlobal, int operandCells,
                             int neutralCells, const OpConditions &cond,
                             int fixedOnes) const
{
    assert(operandCells >= 1 && neutralCells >= 0);
    std::vector<CellSample> samples;
    const GeometryConfig &geometry = chip_.geometry();
    const RowAddress rf = decomposeRow(geometry, rfGlobal);
    const RowAddress rl = decomposeRow(geometry, rlGlobal);
    assert(rf.subarray == rl.subarray);
    const auto set = chip_.decoder().sameSubarrayActivation(
        rf.localRow, rl.localRow);
    const int n = static_cast<int>(set.size());
    if (n < 2 || operandCells + neutralCells > n)
        return samples;
    // Balanced constant pairs fill the rest of the group; the all-1s
    // halves shift the ones-count without moving the majority
    // threshold.
    const int constant_ones = (n - operandCells - neutralCells) / 2;
    assert(fixedOnes <= operandCells);

    const SuccessModel &model = chip_.model();
    const Subarray &subarray = chip_.bank(bank).subarray(rf.subarray);
    const int pair_load = (n + 1) / 2;

    std::vector<double> weights;
    if (fixedOnes >= 0) {
        weights.assign(static_cast<std::size_t>(operandCells) + 1,
                       0.0);
        weights[static_cast<std::size_t>(fixedOnes)] = 1.0;
    } else {
        weights = onesWeights(PatternClass::Random, operandCells);
    }

    MajContext ctx;
    ctx.activatedRows = n;
    ctx.neutralCells = neutralCells;
    ctx.cond = cond;
    std::vector<Volt> margins(weights.size());
    for (int k = 0; k < static_cast<int>(weights.size()); ++k) {
        ctx.numOnes = k + constant_ones;
        margins[static_cast<std::size_t>(k)] = model.majMargin(ctx);
    }

    const ColumnVariation statics(
        model, bank, allColumns(geometry),
        [&](ColId col) { return stripeFor(rf.subarray, col); },
        pair_load);
    samples.reserve(set.size() *
                    static_cast<std::size_t>(geometry.columns));
    for (const RowId local : set) {
        const RowId global = composeRow(geometry, rf.subarray, local);
        statics.forEachCell(global, [&](const auto &column, Volt offset) {
            double p = 0.0;
            for (std::size_t k = 0; k < weights.size(); ++k) {
                if (weights[k] == 0.0)
                    continue;
                p += weights[k] *
                     model.cellSuccessProbability(margins[k], offset,
                                                  column.structFail);
            }
            CellSample sample;
            sample.rowLocal = local;
            sample.col = column.col;
            sample.ownRegion = subarray.regionFor(local, column.stripe);
            sample.otherRegion = sample.ownRegion;
            sample.probability = p;
            samples.push_back(sample);
        });
    }
    return samples;
}

std::vector<std::vector<double>>
AnalyticAnalyzer::logicCells(BankId bank, BoolOp op, RowId refGlobal,
                             RowId comGlobal, PatternClass pattern,
                             const std::vector<LogicVariant> &variants,
                             const std::vector<bool> &keep,
                             std::vector<CellSample> *samples) const
{
    std::vector<std::vector<double>> swept(samples ? 0 : variants.size());
    const GeometryConfig &geometry = chip_.geometry();
    const RowAddress ref = decomposeRow(geometry, refGlobal);
    const RowAddress com = decomposeRow(geometry, comGlobal);
    const ActivationSets sets =
        chip_.decoder().neighborActivation(ref.localRow, com.localRow);
    // A gate needs two inputs (SuccessModel::logicMargin).
    if (!sets.simultaneous || sets.nrf() != sets.nrl() || sets.nrl() < 2)
        return swept;
    const int n = sets.nrl();

    const SuccessModel &model = chip_.model();
    const Bank &bank_ref = chip_.bank(bank);
    const Subarray &ref_sub = bank_ref.subarray(ref.subarray);
    const Subarray &com_sub = bank_ref.subarray(com.subarray);
    const StripeId stripe = sharedStripe(ref.subarray, com.subarray);
    const auto columns =
        sharedColumns(geometry, ref.subarray, com.subarray);

    // Weights per (variant, numOnes), flattened [v * ones + k]: a
    // fixed ones-count, else the pattern's integration.
    const std::size_t ones = static_cast<std::size_t>(n) + 1;
    const std::vector<double> pattern_weights = onesWeights(pattern, n);
    std::vector<double> weights;
    for (const LogicVariant &variant : variants) {
        assert(variant.fixedOnes <= n);
        if (variant.fixedOnes < 0) {
            weights.insert(weights.end(), pattern_weights.begin(),
                           pattern_weights.end());
        } else {
            weights.resize(weights.size() + ones, 0.0);
            weights[weights.size() - ones +
                    static_cast<std::size_t>(variant.fixedOnes)] = 1.0;
        }
    }

    const bool measure_ref = isInvertedOp(op);
    const auto &rows = measure_ref ? sets.firstRows : sets.secondRows;
    const SubarrayId row_sa = measure_ref ? ref.subarray : com.subarray;
    const Subarray &row_sub = measure_ref ? ref_sub : com_sub;
    const Region ref_rep = ref_sub.regionFor(ref.localRow, stripe);
    const Region com_rep = com_sub.regionFor(com.localRow, stripe);
    const Region other = measure_ref ? com_rep : ref_rep;
    const std::size_t cells = rows.size() * columns.size();
    assert(keep.empty() || keep.size() == cells);

    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;

    const ColumnVariation statics(
        model, bank, columns, [stripe](ColId) { return stripe; }, n);
    // Margins per (variant, numOnes) depend on the row only through
    // its region, so each region's vector is computed once per call.
    std::array<std::vector<Volt>, 3> region_margins;
    if (samples != nullptr)
        samples->reserve(cells);
    std::size_t row_first = 0;
    for (const RowId local : rows) {
        const Region own = row_sub.regionFor(local, stripe);
        std::vector<Volt> &margins =
            region_margins[static_cast<std::size_t>(own)];
        if (margins.empty()) {
            ctx.refRegion = measure_ref ? own : ref_rep;
            ctx.comRegion = measure_ref ? com_rep : own;
            for (const LogicVariant &variant : variants) {
                // All-1s/all-0s row patterns (and Fig. 16 sweeps) have
                // no neighbor disagreement.
                ctx.cond = variant.cond;
                if (pattern != PatternClass::Random)
                    ctx.cond.couplingFraction = 0.0;
                for (std::size_t k = 0; k < ones; ++k) {
                    ctx.numOnes = static_cast<int>(k);
                    margins.push_back(model.logicMargin(ctx));
                }
            }
        }
        const RowId global = composeRow(geometry, row_sa, local);
        statics.forEachCell(
            global,
            [&](std::size_t i) {
                return keep.empty() || keep[row_first + i];
            },
            [&](const auto &column, Volt offset) {
                for (std::size_t v = 0; v < variants.size(); ++v) {
                    double p = 0.0;
                    for (std::size_t k = v * ones; k < (v + 1) * ones;
                         ++k) {
                        if (weights[k] == 0.0)
                            continue;
                        p += weights[k] *
                             model.cellSuccessProbability(
                                 margins[k], offset, column.structFail);
                    }
                    if (samples != nullptr)
                        samples->push_back(
                            {local, column.col, own, other, p});
                    else
                        swept[v].push_back(p);
                }
            });
        row_first += columns.size();
    }
    return swept;
}

std::vector<CellSample>
AnalyticAnalyzer::logicSamples(BankId bank, BoolOp op, RowId refGlobal,
                               RowId comGlobal, const OpConditions &cond,
                               PatternClass pattern, int fixedOnes) const
{
    std::vector<CellSample> samples;
    logicCells(bank, op, refGlobal, comGlobal, pattern,
               {LogicVariant{cond, fixedOnes}}, {}, &samples);
    return samples;
}

std::vector<std::vector<double>>
AnalyticAnalyzer::logicSweep(BankId bank, BoolOp op, RowId refGlobal,
                             RowId comGlobal, PatternClass pattern,
                             const std::vector<LogicVariant> &variants,
                             const std::vector<bool> &keep) const
{
    return logicCells(bank, op, refGlobal, comGlobal, pattern, variants,
                      keep, nullptr);
}

} // namespace fcdram
