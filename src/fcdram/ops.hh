/**
 * @file
 * FCDRAM operation builders: the library's public surface for issuing
 * in-DRAM NOT, N-input AND/OR/NAND/NOR, MAJ, RowClone and Frac
 * operations as violated-timing command programs.
 *
 * Each command recipe is written once, here: StepWriter writes the
 * Frac init, reference init, logic fire and MAJ group as Steps for
 * given rows, and runSteps is the one interpreter of Steps. Ops, the
 * paper's trial method (SuccessRateAnalyzer) and the PuD lowering
 * (pud/lower.hh) all build on them.
 */

#ifndef FCDRAM_FCDRAM_OPS_HH
#define FCDRAM_FCDRAM_OPS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bender/bender.hh"
#include "dram/address.hh"

namespace fcdram {

/** One step of an op's command recipe. */
struct Step
{
    enum class Kind : std::uint8_t {
        Write, ///< Host row write (DramBender::writeRow).
        Run,   ///< Violated-timing program under DramLabel `label`.
        Read,  ///< Host row read (DramBender::readRow) into a sink.
    };

    /** Data a Write lands in its row. */
    enum class Source : std::uint8_t {
        Operand, ///< The op's input number `operand`.
        Ones,
        Zeros,
    };

    /** Result side a Read feeds. */
    enum class Sink : std::uint8_t {
        Compute,   ///< AND/OR, NOT or MAJ result.
        Reference, ///< NAND/NOR result of a wide gate.
    };

    Kind kind = Kind::Run;

    /**
     * DramLabel epoch the commands execute under: "Frac", "Logic",
     * "MAJ", "NOT" or "RowClone" for a Run, "RowRead" for a Read.
     */
    const char *label = "";

    /**
     * The step's commands. A Write's ACT-WR-PRE is what the direct
     * host write stands for: priced and counted, never executed.
     */
    Program program;

    BankId bank = 0;

    /** Write and Read: the target row. */
    RowId row = 0;

    Source source = Source::Operand;
    std::size_t operand = 0;
    Sink sink = Sink::Compute;

    /**
     * Run: rows the executed program must open behind its second ACT
     * (the NOT destination, the whole MAJ group); any other count
     * stops the steps. 0 leaves the program unchecked.
     */
    std::size_t mustOpen = 0;
};

/** Appends the steps of one op on one bank of @p chip. */
struct StepWriter
{
    const Chip &chip;
    BankId bank;
    std::vector<Step> &out;

    const SpeedGrade &speed() const { return chip.profile().speed; }

    /** Host write of @p source (input @p operand) to @p row. */
    void write(RowId row, Step::Source source, std::size_t operand = 0);

    /** @p program under DramLabel @p label (see Step::mustOpen). */
    void run(const char *label, Program program,
             std::size_t mustOpen = 0);

    /** Host read of @p row into @p sink. */
    void read(RowId row, Step::Sink sink);

    /**
     * Frac init of @p target: an all-1s helper (fracHelper, skipping
     * @p avoid), an all-0s target, the interrupted double activation.
     * False, with nothing written, when no helper exists.
     */
    bool frac(RowId target, const std::vector<RowId> &avoid);

    /**
     * Reference init of an N-input gate of @p op's family: N-1
     * constants (all-1s for AND/NAND, all-0s for OR/NOR), the Frac
     * init of the last row, the constants again in case the helper
     * disturbed one. False when the Frac row has no helper (the first
     * constants are written regardless).
     */
    bool reference(BoolOp op, const std::vector<RowId> &refRows);

    /** Logic fire: the double activation of the (RF, RL) anchors. */
    void logic(RowId refAnchor, RowId comAnchor);

    /**
     * The SiMRA MAJ group over @p rows, the decoder's expansion of
     * (rf, rl): a Frac init per neutral row (the rows the counts leave
     * at the end), first since a helper activation would disturb data
     * written before it; @p operands operand rows from the front,
     * @p ones all-1s and @p zeros all-0s rows; the group activation,
     * which must open every row; the first row's read. False when the
     * counts overfill the group or a neutral row has no helper.
     */
    bool maj(RowId rfAnchor, RowId rlAnchor,
             const std::vector<RowId> &rows, std::size_t operands,
             std::size_t ones, std::size_t zeros);
};

/**
 * Executes a Run step's program under its DramLabel. False when the
 * step sets mustOpen and the program opens another number of rows.
 */
bool runProgramStep(DramBender &bender, const Step &step);

/**
 * The one interpreter of Steps, in order on @p bender: a Write lands
 * operand(k) or a constant row, a Run goes through runProgramStep, a
 * Read hands (step, bits) to @p read. Returns false, issuing nothing
 * more, at a Run that fails its mustOpen check. Only execute and
 * readRow tick the bender's trial counter, so steps draw the noise
 * the same calls made by hand would.
 */
template <class Operand, class Read>
bool
runSteps(DramBender &bender, const std::vector<Step> &steps,
         const Operand &operand, Read &&read)
{
    for (const Step &step : steps) {
        switch (step.kind) {
          case Step::Kind::Write:
            bender.writeRow(step.bank, step.row,
                            step.source == Step::Source::Operand
                                ? operand(step.operand)
                                : bender.constantRow(
                                      step.source == Step::Source::Ones));
            break;
          case Step::Kind::Run:
            if (!runProgramStep(bender, step))
                return false;
            break;
          case Step::Kind::Read:
            read(step, bender.readRow(step.bank, step.row));
            break;
        }
    }
    return true;
}

/** runSteps for steps that write no operand and read no row. */
bool runSteps(DramBender &bender, const std::vector<Step> &steps);

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
     * Initialize @p row to ~VDD/2 via the Frac idiom
     * (StepWriter::frac): pick a helper row in the same subarray that
     * pair-activates with @p row, write all-1s/all-0s, and interrupt
     * the charge-shared activation.
     *
     * @param avoid Rows (global) that must not be used as helpers.
     * @return The helper row used, or nullopt if none could be found.
     */
    std::optional<RowId> fracInit(BankId bank, RowId rowGlobal,
                                  const std::vector<RowId> &avoid);

    /**
     * Prepare the reference subarray rows for an N-input AND/NAND
     * (constants = all-1s) or OR/NOR (constants = all-0s) operation:
     * N-1 constant rows plus one Frac row (StepWriter::reference).
     *
     * @param refRows Global ids of the N reference rows.
     * @return false if Frac initialization failed (the first
     *         constants are written regardless).
     */
    bool initReference(BankId bank, BoolOp op,
                       const std::vector<RowId> &refRows);

    /**
     * Execute an N-input logic operation (StepWriter::logic), then
     * read the first compute and reference rows. The reference rows
     * (initReference, which fixes the op) and operand rows must
     * already be written.
     *
     * @param refAnchor The RF row (global) of the discovered pair.
     * @param comAnchor The RL row (global) of the discovered pair.
     * @param refRows N reference rows (global, one subarray).
     * @param computeRows N compute rows (global, neighboring subarray).
     */
    LogicOpResult executeLogic(BankId bank, RowId refAnchor,
                               RowId comAnchor,
                               const std::vector<RowId> &refRows,
                               const std::vector<RowId> &computeRows);

    /**
     * One-shot odd-input in-subarray MAJ (MAJ3 on a 4-row group,
     * MAJ5 on an 8-row group, generally on the decoder's
     * (rf, rl)-masked expansion) as StepWriter::maj with one Frac
     * tiebreaker row and equal numbers of all-1s and all-0s rows,
     * which cancel in the majority.
     *
     * @param operands Odd number of operand bit-vectors,
     *        operands.size() <= group size - 1.
     * @return The MAJ result, or nullopt when the pair does not
     *         expand to a group that can host the gate, the Frac
     *         initialization fails or the activation opens another
     *         number of rows.
     * @throws std::invalid_argument when the operand count is even
     *         or zero (stale rows would vote in the majority).
     */
    std::optional<BitVector>
    executeMaj(BankId bank, RowId rfGlobal, RowId rlGlobal,
               const std::vector<BitVector> &operands);

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
