/**
 * @file
 * Combined reliability model for FCDRAM operations.
 *
 * Every effect the paper characterizes acts on a single signed
 * sensing/drive margin:
 *
 *   margin = marginScale * rawPhysicsMargin + regionMargins
 *          - commonModePenalty - asymmetryPenalty - couplingPenalty
 *          - temperaturePenalty - latchWindowPenalty
 *          - invertedSidePenalty
 *
 * A cell's per-trial success probability is
 * Phi((margin - staticOffsets) / senseNoiseSigma), with a separate
 * structural-failure population whose outcome is a metastable coin
 * flip. The same margin core drives both the closed-form analytic
 * engine and the command-level Monte-Carlo executor, so the two agree
 * by construction.
 */

#ifndef FCDRAM_ANALOG_SUCCESSMODEL_HH
#define FCDRAM_ANALOG_SUCCESSMODEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "analog/senseamp.hh"
#include "analog/variation.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "config/chipprofile.hh"

namespace fcdram {

/** Experiment-level environment shared by all operations. */
struct OpConditions
{
    Celsius temperature = kDefaultTemperature;

    /**
     * Fraction of adjacent bitlines carrying opposite values
     * (0 for all-1s/all-0s data, ~0.5 for random data).
     */
    double couplingFraction = 0.5;

    bool operator==(const OpConditions &) const = default;
};

/** Context of one NOT operation instance (analytic form). */
struct NotContext
{
    /** NRF + NRL: all rows the shared sense amplifiers drive. @pre >= 2 */
    int totalActivatedRows = 2;

    Region srcRegion = Region::Middle;
    Region dstRegion = Region::Middle;

    OpConditions cond;
};

/** Context of one N-input logic operation instance (analytic form). */
struct LogicContext
{
    BoolOp op = BoolOp::And; ///< And, Or, Nand, or Nor.

    int numInputs = 2; ///< N. @pre 2 <= N

    int numOnes = 0; ///< Logic-1 operands at this column. @pre <= N

    Region comRegion = Region::Middle; ///< Compute-subarray rows.
    Region refRegion = Region::Middle; ///< Reference-subarray rows.

    OpConditions cond;
};

/**
 * Context of one same-subarray simultaneous many-row (SiMRA) MAJ
 * activation instance (analytic form). The activated cells
 * charge-share one bitline that is sensed against the precharged
 * opposite terminal, so the restored value is the majority of the
 * non-neutral cells; neutral (Frac-initialized, VDD/2) cells act as
 * tiebreakers and bias rows without moving the threshold.
 */
struct MajContext
{
    /** Simultaneously activated rows (cells on the bitline). @pre >= 2 */
    int activatedRows = 4;

    /** Cells holding logic-1 at this column. */
    int numOnes = 0;

    /** Frac-initialized VDD/2 cells among the activated rows. */
    int neutralCells = 1;

    OpConditions cond;
};

/**
 * Mechanism-level context for a sense-amplifier comparison between
 * two multi-cell bitlines (used by the executor, which works from
 * actual cell voltages rather than ideal patterns).
 */
struct ComparisonContext
{
    /** Cells charge-sharing per terminal (N for N-input ops). */
    int cellsPerSide = 1;

    /**
     * Actual violated PRE->ACT gap in ns; negative means "use the
     * profile speed grade's quantized default target".
     */
    Ns glitchGapNs = -1.0;

    /** Additive region margin (sum of src- and dst-side terms, V). */
    Volt regionMargin = 0.0;

    /** Local neighbor-disagreement fraction for coupling. */
    double couplingFraction = 0.5;

    Celsius temperature = kDefaultTemperature;

    /** Cell sits on the complement (inverted/reference) terminal. */
    bool invertedSide = false;

    /** Sequential (Samsung-style) activation: no latch penalty. */
    bool sequential = false;

    /**
     * The comparison happens as part of a glitched (violated-timing)
     * activation; false for ordinary single-row sensing, which takes
     * no latch-window penalty.
     */
    bool glitched = true;
};

/**
 * Per-chip reliability model. Owns a VariationMap.
 */
class SuccessModel
{
  public:
    /**
     * @param profile Chip design parameters (already die-scaled).
     * @param chipSeed Seed of the simulated chip instance.
     */
    SuccessModel(const ChipProfile &profile, std::uint64_t chipSeed);

    /** Expected logical output of a logic op with @p numOnes set inputs. */
    static bool expectedOutput(BoolOp op, int numInputs, int numOnes);

    /**
     * Mechanism core: correctness margin (V) of a comparison between
     * terminal voltages @p vA and @p vB. The "correct" outcome is the
     * one the ideal voltages imply; the margin is |vA - vB| scaled,
     * minus all penalties.
     */
    Volt comparisonMargin(Volt vA, Volt vB,
                          const ComparisonContext &ctx) const;

    /**
     * Mechanism core: drive (restore) margin of a NOT/RowClone-style
     * overdrive into @p totalActivatedRows rows.
     */
    Volt driveMarginMech(int totalActivatedRows,
                         const ComparisonContext &ctx) const;

    /** Analytic margin (V) of a NOT drive event. */
    Volt notMargin(const NotContext &ctx) const;

    /**
     * Analytic margin (V) of a logic sensing event assuming ideal
     * initialization. NAND/NOR margins equal their AND/OR
     * counterparts minus the inverted-side penalty.
     */
    Volt logicMargin(const LogicContext &ctx) const;

    /**
     * Analytic margin (V) of a same-subarray SiMRA MAJ sensing event
     * assuming ideal initialization: the charge-shared bitline
     * against the precharged VDD/2 opposite terminal. Mirrors the
     * executor's majResolve comparison exactly (same ComparisonContext
     * shape), so analytic masks conservatively bound the Monte-Carlo
     * behaviour.
     */
    Volt majMargin(const MajContext &ctx) const;

    /**
     * Probability that a given sense amplifier structurally fails
     * under @p rowPairLoad simultaneously driven row pairs.
     */
    double structuralFailFraction(int rowPairLoad) const;

    /**
     * True if the SA at (bank, stripe, col) structurally fails under
     * @p rowPairLoad (deterministic per chip; the failing population
     * grows monotonically with the load).
     */
    bool structuralFail(BankId bank, StripeId stripe, ColId col,
                        int rowPairLoad) const;

    /** Static offset (V): cell threshold plus SA offset. */
    Volt staticOffset(BankId bank, RowId row, ColId col,
                      StripeId stripe) const;

    /**
     * Analytic per-trial success probability for a specific cell.
     *
     * @param margin Operation margin from notMargin/logicMargin.
     * @param staticOff The cell's static offset.
     * @param structFail Whether the SA structurally fails at this load.
     */
    double cellSuccessProbability(Volt margin, Volt staticOff,
                                  bool structFail) const;

    /**
     * Sample one trial outcome for a specific cell. The draw is a
     * pure function of @p noiseKey (cellNoiseKey of the op sub-stream
     * and the cell coordinates), so sampling is order-independent. A
     * structurally failing SA consumes the same key as a metastable
     * coin flip.
     */
    bool sampleTrialAt(Volt margin, Volt staticOff, bool structFail,
                       std::uint64_t noiseKey) const;

    const ChipProfile &profile() const { return profile_; }
    const VariationMap &variation() const { return variation_; }
    const SenseAmpModel &senseAmp() const { return senseAmp_; }

  private:
    /** Coupling + temperature + (conditional) latch-window penalty. */
    Volt environmentPenalty(Ns glitchGapNs, Celsius temperature,
                            double couplingFraction,
                            bool sequential) const;

    ChipProfile profile_;
    VariationMap variation_;
    SenseAmpModel senseAmp_;
};

/**
 * Static variation of one bank's cells on a set of columns, hoisted
 * for bulk consumers (the analytic engine, the allocator's
 * probability vectors). The sense-amplifier half does not depend on
 * the row, so it is computed once per column at construction through
 * VariationMap's key prefixes; forEachCell() then adds a row's cell
 * offsets at one hashCombine and one normal quantile per cell. The
 * values equal SuccessModel::staticOffset() and structuralFail() bit
 * for bit. Holds no mutable state: build one per call. It reads the
 * model's VariationMap, so it must not outlive the model.
 */
class ColumnVariation
{
  public:
    /** One sensed column. */
    struct Column
    {
        ColId col = 0;
        StripeId stripe = 0;     ///< Stripe whose SA senses the column.
        Volt saOffset = 0.0;     ///< saOffset(bank, stripe, col).
        bool structFail = false; ///< structuralFail at the load.
    };

    /**
     * @param columns Columns to cover, in iteration order.
     * @param stripeOf Stripe that senses each column.
     * @param rowPairLoad Load for the structural-fail flags. @pre >= 1
     */
    ColumnVariation(const SuccessModel &model, BankId bank,
                    const std::vector<ColId> &columns,
                    const std::function<StripeId(ColId)> &stripeOf,
                    int rowPairLoad);

    const std::vector<Column> &columns() const { return columns_; }

    /**
     * Call fn(column, offset) for every column in order, where offset
     * is staticOffset(bank, globalRow, column.col, column.stripe).
     */
    template <typename Fn>
    void forEachCell(RowId globalRow, Fn &&fn) const
    {
        forEachCell(globalRow, [](std::size_t) { return true; }, fn);
    }

    /**
     * As above, but only for the columns at the positions i where
     * keep(i) holds; the others cost no offset.
     */
    template <typename Keep, typename Fn>
    void forEachCell(RowId globalRow, Keep &&keep, Fn &&fn) const
    {
        const std::uint64_t prefix =
            variation_->cellKeyPrefix(bank_, globalRow);
        for (std::size_t i = 0; i < columns_.size(); ++i) {
            if (!keep(i))
                continue;
            const Column &column = columns_[i];
            // cellOffset + saOffset, the sum staticOffset() returns.
            const Volt offset = variation_->cellOffsetFromKey(
                                    hashCombine(prefix, column.col)) +
                                column.saOffset;
            fn(column, offset);
        }
    }

  private:
    const VariationMap *variation_;
    BankId bank_;
    std::vector<Column> columns_;
};

} // namespace fcdram

#endif // FCDRAM_ANALOG_SUCCESSMODEL_HH
