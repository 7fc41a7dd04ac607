/**
 * @file
 * DramBender facade: the host-side interface of the testing
 * infrastructure. Mirrors the workflow of the FPGA platform the paper
 * uses: direct row writes/reads for initialization and readback, and
 * arbitrary command programs for the violated-timing experiments.
 */

#ifndef FCDRAM_BENDER_BENDER_HH
#define FCDRAM_BENDER_BENDER_HH

#include <cstdint>

#include "bender/executor.hh"
#include "bender/program.hh"
#include "dram/chip.hh"

namespace fcdram {

/**
 * Host handle to one chip under test. Owns a trial counter so that
 * successive program executions see fresh (but reproducible) noise.
 */
class DramBender
{
  public:
    /**
     * @param chip Chip under test.
     * @param sessionSeed Seed of this testing session.
     * @param mode Executor strategy (bit-identical results; the
     *        scalar reference exists for verification and as the
     *        pre-word-parallel performance baseline).
     */
    DramBender(Chip &chip, std::uint64_t sessionSeed,
               ExecMode mode = ExecMode::WordParallel);

    /** Executor strategy this session runs programs with. */
    ExecMode mode() const { return mode_; }

    /** Program builder preconfigured with the chip's speed grade. */
    ProgramBuilder newProgram() const;

    /** Execute a program; each call uses a fresh noise stream. */
    ExecResult execute(const Program &program);

    /**
     * Initialize a row directly (models a nominal-timing write pass;
     * deterministic).
     */
    void writeRow(BankId bank, RowId row, const BitVector &data);

    /** Read a row with nominal timing (ACT - RD - PRE). */
    BitVector readRow(BankId bank, RowId row);

    /** The all-1s (@p value true) or all-0s row of the chip's width. */
    const BitVector &constantRow(bool value) const
    {
        return value ? ones_ : zeros_;
    }

    /** Set the chip temperature for subsequent operations. */
    void setTemperature(Celsius temperature);

    /**
     * Hammer a row: @p activations single-sided activations of the
     * aggressor (a host-side macro; issuing 100K+ individual ACT
     * commands is folded into the disturbance model). Bitflips appear
     * in the physically adjacent row(s) of the same subarray.
     */
    void hammerRow(BankId bank, RowId row, std::uint64_t activations);

    Chip &chip() { return chip_; }
    const Chip &chip() const { return chip_; }

    /** Number of programs executed so far. */
    std::uint64_t trialsExecuted() const { return trialCounter_; }

  private:
    Chip &chip_;
    std::uint64_t sessionSeed_;
    std::uint64_t trialCounter_;
    ExecMode mode_;
    BitVector ones_;
    BitVector zeros_;
};

} // namespace fcdram

#endif // FCDRAM_BENDER_BENDER_HH
