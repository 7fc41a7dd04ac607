/**
 * @file
 * Analytic success-rate engine: evaluates the same margin model as
 * the Monte-Carlo executor in closed form, per cell, and (optionally)
 * samples a binomial at the paper's 10,000-trial budget so the
 * resulting distributions have realistic sampling texture. Each draw
 * is keyed by the cell it measures (drawKey), not taken from a stream,
 * so every figure that samples a cell reports the same draw.
 *
 * Each call computes the chip's static variation once per column and
 * row, not once per cell: the SA offsets and structural-fail flags
 * once per column (ColumnVariation), the cell-key prefix once per
 * row, and per cell only the cell offset. The probabilities are
 * bit-identical to the per-cell form (SuccessModel::staticOffset /
 * structuralFail), which tests/test_analytic.cc keeps as an oracle.
 * Logic margins are computed once per row region (at most three per
 * call), not once per row.
 *
 * The NOT and logic cell loops each exist once, as sweeps: one pass
 * over a call's cells that computes each cell's static offset once
 * and its probability under every requested variant (conditions, or
 * a fixed ones-count), skipping the cells a keep mask drops. Figs. 10
 * and 19 sweep the non-baseline temperatures over the cells their
 * baseline keeps, and Fig. 16 all ones-counts of a pair in one pass;
 * notSamples and logicSamples are the one-variant case.
 */

#ifndef FCDRAM_FCDRAM_ANALYTIC_HH
#define FCDRAM_FCDRAM_ANALYTIC_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dram/chip.hh"
#include "fcdram/analyzer.hh"

namespace fcdram {

/** Analytic evaluation options. */
struct AnalyticConfig
{
    /** Trial budget for the binomial sampling (paper: 10,000). */
    int trials = 10000;

    /** If false, report exact probabilities instead of sampling. */
    bool sampleBinomial = true;
};

/** One variant of a logic sweep. */
struct LogicVariant
{
    OpConditions cond;

    /** When >= 0, a fixed operand ones-count (Fig. 16 sweeps). */
    int fixedOnes = -1;
};

/** One evaluated cell with its physical context. */
struct CellSample
{
    RowId rowLocal = 0;   ///< Local row of the measured cell.
    ColId col = 0;
    Region ownRegion = Region::Middle;   ///< Measured row's region.
    Region otherRegion = Region::Middle; ///< Opposite side's region.
    double probability = 0.0; ///< Per-trial success probability.
};

/**
 * Closed-form per-cell success-rate evaluation for one chip.
 */
class AnalyticAnalyzer
{
  public:
    /**
     * @param chip Chip under test (not mutated).
     * @param config Evaluation options.
     */
    AnalyticAnalyzer(const Chip &chip, const AnalyticConfig &config);

    /**
     * Per-cell samples of the NOT operation for one (src, dst) pair;
     * cells are all (destination row, shared column) combinations,
     * ownRegion = destination row's region, otherRegion = source
     * row's. Empty if the pair does not activate.
     */
    std::vector<CellSample> notSamples(BankId bank, RowId srcGlobal,
                                       RowId dstGlobal,
                                       const OpConditions &cond) const;

    /**
     * Per-cell samples of a logic operation for one N:N
     * (RF=reference, RL=compute) pair, N >= 2; empty for any other
     * activation. For And/Or the compute side is measured (ownRegion
     * = compute row's region); for Nand/Nor the reference side.
     *
     * @param pattern Random integrates over Binomial(N, 1/2) operand
     *        counts with coupling 0.5; AllOnes/AllZeros use the same
     *        weights with zero coupling (the paper's all-1s/0s class).
     * @param fixedOnes When >= 0, overrides the integration with a
     *        fixed operand ones-count (Fig. 16 sweeps).
     */
    std::vector<CellSample> logicSamples(BankId bank, BoolOp op,
                                         RowId refGlobal,
                                         RowId comGlobal,
                                         const OpConditions &cond,
                                         PatternClass pattern,
                                         int fixedOnes = -1) const;

    /**
     * notSamples of one (src, dst) pair under each of @p variants, in
     * one pass: result[v][j] is, bit for bit, the probability
     * notSamples(bank, src, dst, variants[v]) reports for the j-th
     * cell @p keep accepts (empty keeps all). One vector per variant,
     * each empty if the pair does not activate.
     */
    std::vector<std::vector<double>>
    notSweep(BankId bank, RowId srcGlobal, RowId dstGlobal,
             const std::vector<OpConditions> &variants,
             const std::vector<bool> &keep = {}) const;

    /**
     * logicSamples of one (ref, com) pair under each of @p variants,
     * in one pass: result[v][j] is, bit for bit, the probability
     * logicSamples(bank, op, ref, com, variants[v].cond, pattern,
     * variants[v].fixedOnes) reports for the j-th cell @p keep accepts
     * (empty keeps all). One vector per variant, each empty if the
     * pair is not an N:N simultaneous activation with N >= 2.
     */
    std::vector<std::vector<double>>
    logicSweep(BankId bank, BoolOp op, RowId refGlobal, RowId comGlobal,
               PatternClass pattern,
               const std::vector<LogicVariant> &variants,
               const std::vector<bool> &keep = {}) const;

    /**
     * Per-cell samples of a same-subarray SiMRA MAJ operation for one
     * (rf, rl) pair whose masked expansion forms the row group:
     * @p operandCells rows carry operand data, @p neutralCells are
     * Frac-initialized VDD/2 tiebreakers, and the remaining rows
     * split into balanced all-1s/all-0s constant pairs (which cancel
     * in the majority). Cells are all (activated row, column)
     * combinations — the in-subarray mechanism is not confined to a
     * shared stripe. Operand ones-counts integrate over
     * Binomial(operandCells, 1/2) unless @p fixedOnes >= 0 pins them.
     * Empty if the pair does not expand to a group large enough for
     * the gate.
     */
    std::vector<CellSample> majSamples(BankId bank, RowId rfGlobal,
                                       RowId rlGlobal,
                                       int operandCells,
                                       int neutralCells,
                                       const OpConditions &cond,
                                       int fixedOnes = -1) const;

    /**
     * Key of one call's draws: its i-th cell draws toPercent(p,
     * hashCombine(key, i)). Folds the chip seed, @p op (BoolOp::Not for
     * NOT), @p pattern, the bank and the call's two anchor rows.
     */
    std::uint64_t drawKey(BankId bank, BoolOp op, RowId first,
                          RowId second,
                          PatternClass pattern = PatternClass::Random) const;

    /** One probability as a percentage, binomialFromHash-sampled. */
    double toPercent(double probability, std::uint64_t key) const;

    const Chip &chip() const { return chip_; }

  private:
    /** Weight of each numOnes under a pattern class. */
    static std::vector<double> onesWeights(PatternClass pattern, int n);

    /**
     * The NOT cell loop behind notSamples and notSweep: result[v]
     * holds each kept cell's probability under variants[v], unless
     * @p samples is given (with one variant) to receive the cells.
     */
    std::vector<std::vector<double>>
    notCells(BankId bank, RowId srcGlobal, RowId dstGlobal,
             const std::vector<OpConditions> &variants,
             const std::vector<bool> &keep,
             std::vector<CellSample> *samples) const;

    /** The logic cell loop behind logicSamples and logicSweep. */
    std::vector<std::vector<double>>
    logicCells(BankId bank, BoolOp op, RowId refGlobal, RowId comGlobal,
               PatternClass pattern,
               const std::vector<LogicVariant> &variants,
               const std::vector<bool> &keep,
               std::vector<CellSample> *samples) const;

    const Chip &chip_;
    AnalyticConfig config_;
};

} // namespace fcdram

#endif // FCDRAM_FCDRAM_ANALYTIC_HH
