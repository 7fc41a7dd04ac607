/**
 * @file
 * Command programs and the builder that assembles them with
 * clock-quantized gaps, mirroring how the FPGA infrastructure issues
 * command traces.
 */

#ifndef FCDRAM_BENDER_PROGRAM_HH
#define FCDRAM_BENDER_PROGRAM_HH

#include <vector>

#include "bender/command.hh"
#include "config/timing.hh"

namespace fcdram {

/** An ordered command trace. */
struct Program
{
    std::vector<Command> commands;

    bool empty() const { return commands.empty(); }
    std::size_t size() const { return commands.size(); }
};

/**
 * Builds programs with explicit inter-command gaps. Every requested
 * gap is rounded *up* to a whole number of command-clock cycles, the
 * way a real memory controller/FPGA issues commands; this is what
 * couples violated-timing behaviour to the module's speed grade.
 */
class ProgramBuilder
{
  public:
    /**
     * @param speed Module speed grade (sets the clock quantum).
     * @param timing Nominal timing parameters for the *Nominal helpers.
     */
    explicit ProgramBuilder(const SpeedGrade &speed,
                            const TimingParams &timing =
                                TimingParams::nominal());

    /** Append ACT after @p gapNs (quantized). */
    ProgramBuilder &act(BankId bank, RowId row, Ns gapNs);

    /** Append PRE after @p gapNs (quantized). */
    ProgramBuilder &pre(BankId bank, Ns gapNs);

    /** Append WR of a full row pattern after @p gapNs. */
    ProgramBuilder &write(BankId bank, RowId row, BitVector data,
                          Ns gapNs);

    /** Append RD of a row after @p gapNs. */
    ProgramBuilder &read(BankId bank, RowId row, Ns gapNs);

    /** ACT with nominal spacing (tRP after a PRE). */
    ProgramBuilder &actNominal(BankId bank, RowId row);

    /** PRE with nominal spacing (tRAS after the ACT). */
    ProgramBuilder &preNominal(BankId bank);

    /** RD with nominal spacing (tRCD after the ACT). */
    ProgramBuilder &readNominal(BankId bank, RowId row);

    /** WR with nominal spacing. */
    ProgramBuilder &writeNominal(BankId bank, RowId row, BitVector data);

    /**
     * The violated-timing gap the infrastructure can actually realize
     * when targeting kViolatedGapTargetNs.
     */
    Ns violatedGapNs() const;

    /** Current end-of-trace time. */
    Ns nowNs() const { return nowNs_; }

    /** Finish and return the program. */
    Program build();

  private:
    ProgramBuilder &append(Command command, Ns gapNs);

    SpeedGrade speed_;
    TimingParams timing_;
    Ns nowNs_;
    Program program_;
};

/*
 * The command shapes of the FCDRAM operations and host row I/O, built
 * only here: Ops, DramBender::readRow and the PuD lowering
 * (pud/lower.hh) all call them, so the executed, linted, counted and
 * priced streams are the same commands.
 */

/**
 * Violated double activation: ACT first -> PRE -> ACT second, both
 * gaps at the violated target, then a restoring PRE (N-input logic,
 * SiMRA MAJ, the TRNG's metastable charge share).
 */
Program doubleActProgram(const SpeedGrade &speed, BankId bank,
                         RowId first, RowId second);

/**
 * NOT / RowClone copy: ACT src with full tRAS -> PRE -> ACT dst after
 * a violated tRP -> restoring PRE.
 */
Program copyProgram(const SpeedGrade &speed, BankId bank, RowId src,
                    RowId dst);

/**
 * Frac: ACT helper -> PRE -> ACT target -> PRE with every gap
 * violated, so the interrupted restore leaves both rows near VDD/2.
 */
Program fracProgram(const SpeedGrade &speed, BankId bank, RowId helper,
                    RowId target);

/** Nominal host read: ACT -> RD -> PRE. */
Program hostReadProgram(const SpeedGrade &speed, BankId bank, RowId row);

/**
 * Nominal host write: ACT -> WR -> PRE. DramBender::writeRow lands
 * row data directly, so this program carries no data: it is the
 * command cost a host write stands for.
 */
Program hostWriteProgram(const SpeedGrade &speed, BankId bank,
                         RowId row);

} // namespace fcdram

#endif // FCDRAM_BENDER_PROGRAM_HH
