#include "fcdram/reliablemask.hh"

namespace fcdram {

ReliableMask::ReliableMask(const Chip &chip, double thresholdPercent)
    : chip_(chip), thresholdPercent_(thresholdPercent)
{
}

namespace {

BitVector
maskFromSamples(const std::vector<CellSample> &samples,
                std::size_t columns, double thresholdPercent)
{
    if (samples.empty())
        return BitVector();
    BitVector mask(columns, false);
    // A column qualifies if it appears in the samples and every row's
    // cell on it meets the threshold.
    std::vector<int> seen(columns, 0);
    std::vector<int> good(columns, 0);
    for (const CellSample &sample : samples) {
        ++seen[sample.col];
        if (100.0 * sample.probability >= thresholdPercent)
            ++good[sample.col];
    }
    for (std::size_t col = 0; col < columns; ++col)
        mask.set(col, seen[col] > 0 && good[col] == seen[col]);
    return mask;
}

} // namespace

BitVector
ReliableMask::notMask(BankId bank, RowId srcGlobal, RowId dstGlobal,
                      const OpConditions &cond) const
{
    AnalyticConfig config;
    config.sampleBinomial = false;
    const AnalyticAnalyzer analyzer(chip_, config);
    const auto samples =
        analyzer.notSamples(bank, srcGlobal, dstGlobal, cond);
    return maskFromSamples(
        samples, static_cast<std::size_t>(chip_.geometry().columns),
        thresholdPercent_);
}

BitVector
ReliableMask::logicMask(BankId bank, BoolOp op, RowId refGlobal,
                        RowId comGlobal, const OpConditions &cond) const
{
    AnalyticConfig config;
    config.sampleBinomial = false;
    const AnalyticAnalyzer analyzer(chip_, config);
    const auto samples = analyzer.logicSamples(
        bank, op, refGlobal, comGlobal, cond, PatternClass::Random);
    return maskFromSamples(
        samples, static_cast<std::size_t>(chip_.geometry().columns),
        thresholdPercent_);
}

double
ReliableMask::maskDensity(const BitVector &mask)
{
    if (mask.size() == 0)
        return 0.0;
    return static_cast<double>(mask.popcount()) /
           static_cast<double>(mask.size());
}

} // namespace fcdram
