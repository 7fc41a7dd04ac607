/**
 * @file
 * Command-level executor: interprets a Program against one simulated
 * chip, detecting timing-violation idioms and applying the analog
 * mechanisms they trigger:
 *
 *  - normal activation/restore/read/write,
 *  - interrupted restore (Frac initialization),
 *  - RowClone (same-subarray copy after a restored first ACT),
 *  - in-subarray MAJ (same-subarray charge sharing),
 *  - cross-subarray NOT (restored first ACT, neighboring subarrays),
 *  - cross-subarray N-input logic (charge-shared comparison).
 *
 * Each op takes its margins from its one SuccessModel margin
 * function (rowCloneMargin, majMargin, notMargin, logicMargin), fed
 * with the voltages and the glitch gap the executor senses. All
 * stochastic outcomes draw from the chip's SuccessModel with
 * counter-based noise: each draw is a pure function of
 * (trial stream, op epoch, row, col), so sampling is independent of
 * evaluation order. That makes two execution strategies bit-identical
 * by construction:
 *
 *  - ExecMode::WordParallel (default): rows at full rail are stored
 *    packed and processed word-at-a-time. RowClone, MAJ, NOT and
 *    logic each keep only their per-column margins, their target
 *    rows and one word-wise value expression around one resolution
 *    core. The core classifies the op's column domain once per
 *    distinct margin array through the SIMD classifyMargins kernel:
 *    margins beyond the hard noise bound (kHashNormalBound) resolve
 *    without a draw, structurally failing columns are coin flips,
 *    and only the remaining cells draw, per row. It hands back each
 *    target row's mask of correctly resolved cells. Drive ops
 *    (RowClone, NOT) write their value where a cell resolved
 *    correctly and keep the old charge elsewhere; sense ops (MAJ,
 *    logic) write ideal XNOR correct. Every such write goes through
 *    CellArray::writeMasked, which owns the packed-blend versus
 *    analog-lane choice.
 *  - ExecMode::ScalarReference: the straightforward cell-at-a-time
 *    triple loop, kept as the debug/verification reference (and the
 *    pre-word-parallel performance baseline in the benches).
 */

#ifndef FCDRAM_BENDER_EXECUTOR_HH
#define FCDRAM_BENDER_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "bender/program.hh"
#include "bender/timingcheck.hh"
#include "common/rng.hh"
#include "dram/chip.hh"
#include "obs/telemetry.hh"

namespace fcdram {

/** Execution strategy; both produce bit-identical results. */
enum class ExecMode : std::uint8_t {
    WordParallel,    ///< Packed rail rows, sparse analog handling.
    ScalarReference, ///< Cell-at-a-time reference implementation.
};

/** One multi-row activation observed during execution (diagnostics). */
struct ActivationEvent
{
    BankId bank = 0;
    SubarrayId firstSubarray = 0;
    SubarrayId secondSubarray = 0;
    RowId firstLocalRow = 0;  ///< RF's in-subarray index.
    RowId secondLocalRow = 0; ///< RL's in-subarray index.
    ActivationSets sets;
};

/** Outputs of one program execution. */
struct ExecResult
{
    /** One entry per RD command, in program order. */
    std::vector<BitVector> reads;

    /** Multi-row activation events, in occurrence order. */
    std::vector<ActivationEvent> activations;
};

/** Interprets programs against a chip. */
class Executor
{
  public:
    /**
     * @param chip Chip to mutate.
     * @param trialSeed Seed of this execution's noise stream.
     * @param timing Timing parameters for gap classification.
     * @param mode Execution strategy (results are mode-independent).
     * @param telemetry Sink for command counters and the DRAM command
     *        trace (both opt-in at the sink); nullptr skips every
     *        telemetry hook (the overhead-guard baseline path).
     */
    Executor(Chip &chip, std::uint64_t trialSeed,
             const TimingParams &timing = TimingParams::nominal(),
             ExecMode mode = ExecMode::WordParallel,
             obs::Telemetry *telemetry = &obs::global());

    /** Run a program to completion. */
    ExecResult run(const Program &program);

  private:
    /** Per-bank interpreter state. */
    struct BankState
    {
        bool open = false;
        bool glitchArmed = false;
        bool resolved = false;
        bool multi = false;

        /** Pending same-subarray multi-row charge-share (MAJ mode). */
        bool pendingMaj = false;

        RowId firstRow = kInvalidRow; ///< Global id of the first ACT.
        Ns lastActNs = 0.0;
        Ns preNs = 0.0;

        /** Rows currently latched (global ids). */
        std::vector<RowId> openRows;

        /**
         * Charge-shared bitline voltage per column for a pending
         * in-subarray multi-row activation (valid while pendingMaj).
         */
        std::vector<float> pendingBitline;
    };

    void handleAct(const Command &command, ExecResult &result);
    void handlePre(const Command &command);
    void handleWr(const Command &command);
    void handleRd(const Command &command, ExecResult &result);

    /** Open a single row normally (state only; sensing is lazy). */
    void normalAct(BankState &state, BankId bank, RowId row, Ns now);

    /** Complete any pending sensing/restore if enough time elapsed. */
    void resolveIfDue(BankState &state, BankId bank, Ns now);

    /** Partial (interrupted) restore of the open rows. */
    void partialRestore(BankState &state, BankId bank, Ns gapNs);

    /** Glitched double activation (same or neighboring subarray). */
    void glitchAct(BankState &state, BankId bank, RowId rlRow, Ns now,
                   ExecResult &result);

    /** Cross-subarray NOT drive. */
    void applyNot(BankState &state, BankId bank,
                  const ActivationEvent &event, Ns gapNs);

    /** Cross-subarray charge-shared logic. */
    void applyLogic(BankState &state, BankId bank,
                    const ActivationEvent &event, Ns gapNs);

    /** RowClone-style copy of the first row into the activated set. */
    void applyRowClone(BankState &state, BankId bank,
                       SubarrayId subarray,
                       const std::vector<RowId> &localRows, Ns gapNs);

    /**
     * Sense the given charge-shared bitline voltages against the
     * precharged opposite terminal and restore the outcome into all
     * of the given rows (in-subarray MAJ; also the fate of the
     * non-shared columns of a multi-activated subarray).
     *
     * @param columnMask Columns that participate.
     * @param blVolts Bitline voltage per column (only masked entries
     *        are read).
     */
    void majResolve(BankId bank, SubarrayId subarray,
                    const std::vector<RowId> &localRows,
                    const BitVector &columnMask,
                    const std::vector<float> &blVolts, Ns gapNs,
                    int totalActivatedRows);

    /**
     * Charge-shared bitline voltage of one subarray's rows at every
     * column (canonical count-based arithmetic, shared by both
     * execution modes), written into @p out. When @p columnMask is
     * non-null only the masked columns are computed (the rest read
     * 0); consumers must not look outside the mask.
     */
    void captureSharedVoltages(BankId bank, SubarrayId subarray,
                               const std::vector<RowId> &localRows,
                               std::vector<float> &out,
                               const BitVector *columnMask =
                                   nullptr) const;

    /** Columns neighboring subarrays @p a and @p b share (cached). */
    const BitVector &sharedColumnMask(SubarrayId a, SubarrayId b);

    /** All-columns mask (cached). */
    const BitVector &allColumnsMask();

    /**
     * Neighbor-disagreement class per column of @p pattern: 0, 1, or
     * 2 disagreeing neighbors mapped to coupling fractions 0.0 / 0.5
     * / 1.0 (edge columns have one neighbor and map to 0.0 / 1.0).
     * Derived from shifted XOR masks, no per-column probing.
     */
    void couplingClasses(const BitVector &pattern,
                         std::vector<std::uint8_t> &classes) const;

    /** Neighbor-disagreement fraction around a column of a pattern. */
    static double couplingFractionAt(const BitVector &pattern, ColId col);

    /** Restore progress fraction for an interrupted gap. */
    double restoreProgress(Ns gapNs) const;

    /** Sub-stream key of the next stochastic operation application. */
    std::uint64_t beginNoiseEpoch()
    {
        return hashCombine(noiseSeed_, ++noiseEpoch_);
    }

    bool scalar() const { return mode_ == ExecMode::ScalarReference; }

    /** Command counters + DRAM trace for one program (pillar-gated). */
    void recordProgram(const Program &program);

    Chip &chip_;
    TimingParams timing_;
    ExecMode mode_;
    obs::Telemetry *telemetry_;

    /** Counter-noise stream seed (chip seed x trial seed). */
    std::uint64_t noiseSeed_;

    /** Stochastic-op counter; sub-streams never repeat. */
    std::uint64_t noiseEpoch_ = 0;

    std::vector<BankState> banks_;

    /** Cached column masks: [0]/[1] by parity of the lower subarray. */
    BitVector sharedMaskByParity_[2];
    BitVector allColumns_;

    /** Scratch buffers reused across ops (word-parallel mode). */
    std::vector<float> scratchVolts_;
    std::vector<std::uint8_t> scratchClasses_;
};

} // namespace fcdram

#endif // FCDRAM_BENDER_EXECUTOR_HH
