#include "fcdram/analyzer.hh"

#include <cassert>

#include "dram/openbitline.hh"
#include "fcdram/golden.hh"

namespace fcdram {

SuccessRateAnalyzer::SuccessRateAnalyzer(DramBender &bender,
                                         std::uint64_t seed)
    : bender_(bender), ops_(bender), rng_(seed)
{
}

NotTrialResult
SuccessRateAnalyzer::runNot(const NotTrialConfig &config)
{
    Chip &chip = bender_.chip();
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress src = decomposeRow(geometry, config.srcGlobal);
    const RowAddress dst = decomposeRow(geometry, config.dstGlobal);
    assert(neighboringSubarrays(geometry, config.srcGlobal,
                                config.dstGlobal));

    NotTrialResult result;
    result.columns = sharedColumns(geometry, src.subarray, dst.subarray);

    // Discover the destination set once (deterministic per pair).
    const ActivationSets sets =
        chip.decoder().neighborActivation(src.localRow, dst.localRow);
    if (!sets.simultaneous && !sets.sequential)
        return result;
    for (const RowId local : sets.secondRows) {
        result.destinationRows.push_back(
            composeRow(geometry, dst.subarray, local));
    }
    result.cells = SuccessRateAccumulator(result.destinationRows.size() *
                                          result.columns.size());

    BitVector pattern(static_cast<std::size_t>(geometry.columns));
    for (int trial = 0; trial < config.trials; ++trial) {
        switch (config.pattern) {
          case PatternClass::Random:
            pattern.randomize(rng_);
            break;
          case PatternClass::AllOnes:
            pattern.fill(true);
            break;
          case PatternClass::AllZeros:
          case PatternClass::FixedOnes:
            pattern.fill(false);
            break;
        }
        // Source row gets the pattern; destination rows (and the
        // other rows of the source subarray's activation set) are
        // initialized with the *same* pattern so "retained" cells are
        // always counted as failures.
        bender_.writeRow(config.bank, config.srcGlobal, pattern);
        for (const RowId row : result.destinationRows)
            bender_.writeRow(config.bank, row, pattern);

        ops_.executeNot(config.bank, config.srcGlobal, config.dstGlobal);

        for (std::size_t r = 0; r < result.destinationRows.size(); ++r) {
            const BitVector readback =
                bender_.readRow(config.bank, result.destinationRows[r]);
            for (std::size_t c = 0; c < result.columns.size(); ++c) {
                const ColId col = result.columns[c];
                const bool expected = !pattern.get(col);
                result.cells.record(r * result.columns.size() + c,
                                    readback.get(col) == expected);
            }
        }
    }
    return result;
}

LogicTrialResult
SuccessRateAnalyzer::runLogic(const LogicTrialConfig &config)
{
    Chip &chip = bender_.chip();
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress ref = decomposeRow(geometry, config.refGlobal);
    const RowAddress com = decomposeRow(geometry, config.comGlobal);
    assert(neighboringSubarrays(geometry, config.refGlobal,
                                config.comGlobal));

    LogicTrialResult result;
    const ActivationSets sets =
        chip.decoder().neighborActivation(ref.localRow, com.localRow);
    if (!sets.simultaneous || sets.nrf() != sets.nrl())
        return result;
    result.numInputs = sets.nrl();
    for (const RowId local : sets.firstRows) {
        result.referenceRows.push_back(
            composeRow(geometry, ref.subarray, local));
    }
    for (const RowId local : sets.secondRows) {
        result.computeRows.push_back(
            composeRow(geometry, com.subarray, local));
    }
    result.columns = sharedColumns(geometry, ref.subarray, com.subarray);
    const std::size_t cells =
        result.computeRows.size() * result.columns.size();
    result.computeCells = SuccessRateAccumulator(cells);
    result.referenceCells = SuccessRateAccumulator(cells);

    const bool and_family =
        config.op == BoolOp::And || config.op == BoolOp::Nand;
    const auto columns_total =
        static_cast<std::size_t>(geometry.columns);

    std::vector<BitVector> operands(
        result.computeRows.size(), BitVector(columns_total));

    // One trial: the reference init (every trial, since the last one
    // left NAND/NOR results there and consumed the Frac row), the
    // operand writes, the logic fire. Without a Frac helper, only the
    // first constants.
    std::vector<Step> steps;
    StepWriter writer{chip, config.bank, steps};
    const bool initialized =
        writer.reference(config.op, result.referenceRows);
    if (initialized) {
        for (std::size_t i = 0; i < operands.size(); ++i)
            writer.write(result.computeRows[i], Step::Source::Operand, i);
        writer.logic(config.refGlobal, config.comGlobal);
    }

    for (int trial = 0; trial < config.trials; ++trial) {
        // Operand patterns.
        for (std::size_t i = 0; i < operands.size(); ++i) {
            switch (config.pattern) {
              case PatternClass::Random:
                operands[i].randomize(rng_);
                break;
              case PatternClass::AllOnes:
                operands[i].fill(true);
                break;
              case PatternClass::AllZeros:
                operands[i].fill(false);
                break;
              case PatternClass::FixedOnes:
                operands[i].fill(static_cast<int>(i) <
                                 config.fixedOnes);
                break;
            }
        }
        runSteps(
            bender_, steps,
            [&](std::size_t k) -> const BitVector & {
                return operands[k];
            },
            [](const Step &, const BitVector &) {});
        if (!initialized)
            continue;

        const BitVector expected_com = and_family
                                           ? goldenAnd(operands)
                                           : goldenOr(operands);
        const BitVector expected_ref = ~expected_com;

        for (std::size_t r = 0; r < result.computeRows.size(); ++r) {
            const BitVector readback =
                bender_.readRow(config.bank, result.computeRows[r]);
            for (std::size_t c = 0; c < result.columns.size(); ++c) {
                const ColId col = result.columns[c];
                result.computeCells.record(
                    r * result.columns.size() + c,
                    readback.get(col) == expected_com.get(col));
            }
        }
        for (std::size_t r = 0; r < result.referenceRows.size(); ++r) {
            const BitVector readback =
                bender_.readRow(config.bank, result.referenceRows[r]);
            for (std::size_t c = 0; c < result.columns.size(); ++c) {
                const ColId col = result.columns[c];
                result.referenceCells.record(
                    r * result.columns.size() + c,
                    readback.get(col) == expected_ref.get(col));
            }
        }
    }
    return result;
}

} // namespace fcdram
