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
 * flip.
 *
 * Each op maps onto that mechanism in exactly one place, its margin
 * function: notMargin (NOT drive), rowCloneMargin (RowClone drive),
 * logicMargin (N-input AND/NAND/OR/NOR) and majMargin (SiMRA MAJ).
 * The command-level executor (bender/executor) fills their contexts
 * from the voltages and the glitch gap it senses; the closed-form
 * analytic engine (fcdram/analytic) and the PuD allocator's
 * probability vectors (pud/allocator, read by the certifier) leave
 * those at their ideal defaults. So the engines agree by
 * construction.
 */

#ifndef FCDRAM_ANALOG_SUCCESSMODEL_HH
#define FCDRAM_ANALOG_SUCCESSMODEL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
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

/**
 * Context of one NOT drive event: the restored source row overdrives
 * every activated row through the shared sense amplifiers.
 */
struct NotContext
{
    /** NRF + NRL: all rows the shared sense amplifiers drive. @pre >= 2 */
    int totalActivatedRows = 2;

    Region srcRegion = Region::Middle;
    Region dstRegion = Region::Middle;

    OpConditions cond;

    /**
     * Executor only: the measured violated PRE->ACT gap (ns);
     * negative takes the speed grade's quantized target.
     */
    Ns glitchGapNs = -1.0;
};

/**
 * Context of one same-subarray RowClone: the restored source row
 * overdrives the activated set, loaded as activatedRows + 2 rows.
 */
struct RowCloneContext
{
    /** Rows of the same-subarray activation set. @pre >= 1 */
    int activatedRows = 2;

    OpConditions cond;

    /** Executor only: as NotContext::glitchGapNs. */
    Ns glitchGapNs = -1.0;
};

/**
 * Context of one N-input logic sensing event: the reference bitline
 * (the first-activated rows) against the compute bitline. NAND/NOR
 * read the reference rows, AND/OR the compute rows.
 */
struct LogicContext
{
    BoolOp op = BoolOp::And; ///< And, Or, Nand, or Nor.

    int numInputs = 2; ///< N: cells per bitline. @pre 1 <= N

    int numOnes = 0; ///< Logic-1 operands at this column. @pre <= N

    Region comRegion = Region::Middle; ///< Compute-subarray rows.
    Region refRegion = Region::Middle; ///< Reference-subarray rows.

    OpConditions cond;

    /** Executor only: as NotContext::glitchGapNs. */
    Ns glitchGapNs = -1.0;

    /**
     * Executor only: the sensed {reference, compute} bitline
     * voltages. Unset, the margin takes the ideal ones of op,
     * numInputs and numOnes (idealReferenceVoltage,
     * idealComputeVoltage; then 2 <= N). Set, they fix the gate
     * family, and op only names the side its rows are read from.
     */
    std::optional<std::pair<Volt, Volt>> sensed;
};

/**
 * Context of one same-subarray simultaneous many-row (SiMRA) MAJ
 * activation instance. The activated cells charge-share one bitline
 * that is sensed against the precharged opposite terminal, so the
 * restored value is the majority of the non-neutral cells; neutral
 * (Frac-initialized, VDD/2) cells act as tiebreakers and bias rows
 * without moving the threshold.
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

    /** Executor only: as NotContext::glitchGapNs. */
    Ns glitchGapNs = -1.0;

    /**
     * Executor only: the sensed shared-bitline voltage. Unset, the
     * margin takes idealMajVoltage of activatedRows, numOnes and
     * neutralCells.
     */
    std::optional<Volt> sensed;
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
     * The four op margins (V). Each maps its op onto the
     * sense-amplifier mechanism; the executor, the analytic engine
     * and the PuD allocator (and through its probabilities the
     * certifier) call only these.
     */
    Volt notMargin(const NotContext &ctx) const;
    Volt rowCloneMargin(const RowCloneContext &ctx) const;

    /**
     * NAND/NOR margins equal their AND/OR counterparts minus the
     * inverted-side penalty, which the reference rows take.
     */
    Volt logicMargin(const LogicContext &ctx) const;

    /**
     * The charge-shared bitline against the precharged VDD/2
     * opposite terminal.
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
     * @param margin An op margin (notMargin, logicMargin, ...).
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
