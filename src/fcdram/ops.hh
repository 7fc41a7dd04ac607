/**
 * @file
 * FCDRAM operation builders: the library's public surface for issuing
 * in-DRAM NOT, N-input AND/OR/NAND/NOR, MAJ, RowClone and Frac
 * operations as violated-timing command programs.
 */

#ifndef FCDRAM_FCDRAM_OPS_HH
#define FCDRAM_FCDRAM_OPS_HH

#include <optional>
#include <vector>

#include "bender/bender.hh"
#include "dram/address.hh"

namespace fcdram {

/** Outcome of an N-input logic operation issued through Ops. */
struct LogicOpResult
{
    /** Columns that participate (shared between the subarray pair). */
    std::vector<ColId> columns;

    /** AND/OR result read from the compute rows (first compute row). */
    BitVector computeResult;

    /** NAND/NOR result read from the reference rows (first ref row). */
    BitVector referenceResult;
};

/**
 * High-level FCDRAM operation driver for one chip. Stateless apart
 * from the DramBender session it wraps.
 */
class Ops
{
  public:
    explicit Ops(DramBender &bender);

    /** doubleActProgram (bender/program.hh) at this chip's speed. */
    Program buildDoubleAct(BankId bank, RowId firstGlobal,
                           RowId secondGlobal) const;

    /** The NOT program: copyProgram at this chip's speed. */
    Program buildNot(BankId bank, RowId srcGlobal,
                     RowId dstGlobal) const;

    /** RowClone: same program shape as NOT but within one subarray. */
    Program buildRowClone(BankId bank, RowId srcGlobal,
                          RowId dstGlobal) const;

    /**
     * The SiMRA in-subarray MAJ program: the violated double
     * activation of a same-subarray (RF, RL) pair. All rows of the
     * decoder's masked expansion charge-share, and the final
     * (restoring) PRE writes the sensed majority back into every
     * activated row.
     */
    Program buildMaj(BankId bank, RowId rfGlobal,
                     RowId rlGlobal) const;

    /**
     * Execute a NOT from src to dst (both global rows, neighboring
     * subarrays). Returns the destination rows actually activated
     * (empty if the chip cannot perform the operation for this pair).
     */
    std::vector<RowId> executeNot(BankId bank, RowId srcGlobal,
                                  RowId dstGlobal);

    /**
     * Execute a RowClone of src onto dst (same subarray).
     * @return true if the copy path triggered.
     */
    bool executeRowClone(BankId bank, RowId srcGlobal, RowId dstGlobal);

    /**
     * Initialize @p row to ~VDD/2 via the Frac idiom: pick a helper
     * row in the same subarray that pair-activates with @p row, write
     * all-1s/all-0s, and interrupt the charge-shared activation.
     *
     * @param avoid Rows (global) that must not be used as helpers.
     * @return The helper row used, or nullopt if none could be found.
     */
    std::optional<RowId> fracInit(BankId bank, RowId rowGlobal,
                                  const std::vector<RowId> &avoid);

    /**
     * Prepare the reference subarray rows for an N-input AND/NAND
     * (constants = all-1s) or OR/NOR (constants = all-0s) operation:
     * N-1 constant rows plus one Frac row.
     *
     * @param refRows Global ids of the N reference rows.
     * @return false if Frac initialization failed.
     */
    bool initReference(BankId bank, BoolOp op,
                       const std::vector<RowId> &refRows);

    /**
     * Execute an N-input logic operation. The reference rows must
     * already be initialized (initReference) and the operand rows
     * written. The violated sequence is issued to the original
     * (RF, RL) anchor pair whose activation defined the row sets;
     * using any other pair would activate a different set.
     *
     * @param op And, Or, Nand, or Nor.
     * @param refAnchor The RF row (global) of the discovered pair.
     * @param comAnchor The RL row (global) of the discovered pair.
     * @param refRows N reference rows (global, one subarray).
     * @param computeRows N compute rows (global, neighboring subarray).
     */
    LogicOpResult executeLogic(BankId bank, BoolOp op, RowId refAnchor,
                               RowId comAnchor,
                               const std::vector<RowId> &refRows,
                               const std::vector<RowId> &computeRows);

    /**
     * Fire a SiMRA double activation for a same-subarray (RF, RL)
     * pair. Rows must already hold their operand/constant/neutral
     * values. Returns the global rows actually activated together
     * (empty if no in-subarray multi-row activation occurred).
     */
    std::vector<RowId> executeMajActivation(BankId bank, RowId rfGlobal,
                                            RowId rlGlobal);

    /**
     * One-shot odd-input in-subarray MAJ (MAJ3 on a 4-row group,
     * MAJ5 on an 8-row group, generally on the decoder's
     * (rf, rl)-masked expansion): Frac-initializes one tiebreaker
     * row, balances the remaining rows with equal all-1s/all-0s
     * constants (which cancel in the majority), writes the operands,
     * fires the activation, and reads the result back from the
     * group's first row.
     *
     * @param operands Odd number of operand bit-vectors,
     *        operands.size() <= group size - 1.
     * @return The MAJ result, or nullopt when the pair does not
     *         expand to a group that can host the gate or the Frac
     *         initialization fails.
     * @throws std::invalid_argument when the operand count is even
     *         or zero (stale rows would vote in the majority).
     */
    std::optional<BitVector>
    executeMaj(BankId bank, RowId rfGlobal, RowId rlGlobal,
               const std::vector<BitVector> &operands);

    DramBender &bender() { return bender_; }

  private:
    DramBender &bender_;
};

/**
 * Donor local row that pair-activates with exactly @p targetLocal
 * under the decoder's same-subarray glitch: the XOR-flip scan shared
 * by Frac initialization and the PuD RowClone staging search.
 *
 * @param avoidLocal Local rows that must not be used as donors.
 * @return The donor local row, or kInvalidRow when none exists.
 */
RowId findPairActivatingDonor(const Chip &chip, RowId targetLocal,
                              const std::vector<RowId> &avoidLocal);

/**
 * Frac helper of @p rowGlobal: the global row in its subarray that
 * pair-activates with it (findPairActivatingDonor), skipping the
 * global rows in @p avoid. kInvalidRow when none exists.
 */
RowId fracHelper(const Chip &chip, RowId rowGlobal,
                 const std::vector<RowId> &avoid);

/**
 * Find (rf, rl) local-row pairs on a chip whose neighbor activation
 * has the requested NRF:NRL shape, by probing the decoder through
 * executed programs' activation events.
 *
 * @param chip Chip under test (const: probing is read-only).
 * @param nrf Desired rows in RF's subarray.
 * @param nrl Desired rows in RL's subarray.
 * @param maxPairs Stop after this many matches.
 * @param seed Sampling seed.
 */
std::vector<std::pair<RowId, RowId>>
findActivationPairs(const Chip &chip, int nrf, int nrl, int maxPairs,
                    std::uint64_t seed);

/**
 * Find (rf, rl) local-row pairs of one subarray whose same-subarray
 * glitch opens exactly @p activatedRows rows simultaneously (SiMRA
 * row groups). Candidates come from the decoder-hierarchy address
 * mask (RowDecoder::maskPartner); the per-pair coverage gate is
 * probed with seeded random bases.
 *
 * @param activatedRows Desired group size (power of two >= 2).
 * @param maxPairs Stop after this many matches.
 * @param seed Sampling seed.
 */
std::vector<std::pair<RowId, RowId>>
findSimraPairs(const Chip &chip, int activatedRows, int maxPairs,
               std::uint64_t seed);

} // namespace fcdram

#endif // FCDRAM_FCDRAM_OPS_HH
