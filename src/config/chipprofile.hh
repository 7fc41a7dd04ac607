/**
 * @file
 * Per-chip analog and row-decoder parameter packs.
 *
 * A ChipProfile captures everything that differs between the DRAM
 * designs the paper tests: manufacturer capability class, die
 * density/revision margin scaling, analog sensing constants, and the
 * hierarchical row-decoder glitch behaviour. The constants are
 * calibrated so that the simulator reproduces the paper's reported
 * average success rates (see DESIGN.md section 2 and EXPERIMENTS.md).
 */

#ifndef FCDRAM_CONFIG_CHIPPROFILE_HH
#define FCDRAM_CONFIG_CHIPPROFILE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "config/timing.hh"

namespace fcdram {

/**
 * Physical distance class of a row relative to the sense-amplifier
 * stripe shared by two neighboring subarrays (paper Section 5.2:
 * thirds of the subarray).
 */
enum class Region : std::uint8_t {
    Close = 0,
    Middle = 1,
    Far = 2,
};

/** Printable name of a region. */
const char *toString(Region region);

/** All three regions, for sweeps. */
inline constexpr Region kAllRegions[] = {Region::Close, Region::Middle,
                                         Region::Far};

/**
 * Analog calibration constants. Voltages are in volts, times in ns.
 * All reliability effects act on a signed sensing/drive margin that is
 * finally passed through a Gaussian noise CDF.
 */
struct AnalogParams
{
    /** Cell capacitance in relative units (only ratios matter). */
    double cellCap = 1.0;

    /** Bitline capacitance in the same units. */
    double bitlineCap = 2.0;

    /** Per-trial sensing noise sigma (V). */
    double senseNoiseSigma = 0.055;

    /** Static per-sense-amplifier offset sigma (V). */
    double saOffsetSigma = 0.045;

    /** Static per-cell threshold offset sigma (V). */
    double cellOffsetSigma = 0.055;

    /**
     * Probability that a sense amplifier structurally fails per
     * simultaneously driven row pair; the failing population grows as
     * 1 - (1-p)^load with the activation load.
     */
    double structuralFailPerPair = 0.0064;

    /**
     * Common-mode penalty (V per V): sensing degrades as the terminal
     * common-mode voltage departs from VDD/2 (the all-1s / one-0
     * worst cases of Observation 14).
     */
    double commonModePenalty = 0.09;

    /**
     * Calibrated sensing asymmetry of the AND-family reference
     * (Observation 12: OR consistently beats AND); scaled by
     * 4/(N+2) so the 2-input gap is ~10% and the 16-input gap ~1%.
     */
    double andFamilyPenalty = 0.055;

    /**
     * Bonus for low-common-mode (OR-family) comparisons, scaled like
     * andFamilyPenalty (the other half of Observation 12).
     */
    double orFamilyBonus = 0.04;

    /** Additive logic-margin bias for die-revision differences (V). */
    double logicBias = 0.0;

    /** Extra margin penalty for cells on the inverted (reference) side. */
    double invertedSidePenalty = 0.003;

    /** NOT drive margin with a single destination row (V). */
    double driveMargin0 = 0.285;

    /** Drive margin loss per additional simultaneously driven row (V). */
    double drivePerRow = 0.0109;

    /**
     * Margin penalty at 100% neighbor-bitline disagreement (V); the
     * data-pattern (coupling) effect of Observation 16.
     */
    double couplingDelta = 0.028;

    /** Margin lost per degree Celsius above 50 C (V / C). */
    double tempCoeff = 0.0001;

    /** Optimal violated-gap interval for the decoder glitch (ns). */
    double latchWindowOptNs = 2.9;

    /** Quadratic margin penalty coefficient around the optimum (V/ns^2). */
    double latchWindowKappa = 0.85;

    /**
     * Additive margin by source/compute-row region (V), indexed
     * Close/Middle/Far. Rows far from the shared stripe couple weakly
     * as sources (Observation 6: Far-Close is the worst corner).
     */
    double srcRegionMargin[3] = {0.040, 0.055, -0.055};

    /** Additive margin by destination/reference-row region (V). */
    double dstRegionMargin[3] = {-0.045, 0.025, 0.080};

    /**
     * Global margin scale for die revision / density differences
     * (Observations 9 and 19). 1.0 is the reference design.
     */
    double marginScale = 1.0;
};

/**
 * Row-decoder capability and glitch behaviour. See
 * dram/rowdecoder.hh for the mechanism; these are the knobs.
 */
struct DecoderParams
{
    /**
     * Chip performs *simultaneous* multi-row activation in neighboring
     * subarrays (SK Hynix behaviour).
     */
    bool simultaneousNeighbor = true;

    /**
     * Chip performs only *sequential* two-row activation in
     * neighboring subarrays (Samsung behaviour: NOT with exactly one
     * destination row, no logic operations).
     */
    bool sequentialNeighborOnly = false;

    /**
     * Chip ignores commands issued with grossly violated timings
     * (Micron behaviour: no multi-row activation at all).
     */
    bool ignoresViolatedCommands = false;

    /** Module supports the N:2N activation pattern. */
    bool supportsN2N = false;

    /**
     * Number of 2-bit predecode stages whose latches can glitch;
     * bounds the per-subarray activation count at 2^stages
     * (4 stages -> up to 16 rows, 3 -> up to 8).
     */
    int latchStages = 4;

    /**
     * Largest number of rows the design can open *simultaneously
     * within one subarray* (the SiMRA capability: up to 32 on
     * SK Hynix designs via the stage latches plus the half-select
     * bit, 2 on Samsung designs, irrelevant on Micron). Expansions
     * beyond the cap do not glitch at all (the second row activates
     * alone), modeling decoders whose higher stages do not latch.
     */
    int maxSameSubarrayRows = 32;

    /**
     * Fraction of (RF, RL) address pairs for which the glitch occurs
     * at all; models internal address scrambling plus decoder timing
     * margins (calibrates total coverage in Fig. 5).
     */
    double coverageGate = 0.82;
};

/**
 * Complete description of one DRAM chip design under test.
 */
struct ChipProfile
{
    Manufacturer manufacturer = Manufacturer::SkHynix;
    int densityGbit = 4;
    char dieRevision = 'M';
    int organization = 8; ///< x4 / x8 / x16 data width.
    SpeedGrade speed{2666};

    AnalogParams analog;
    DecoderParams decoder;

    /** Human-readable "SK Hynix 4Gb M-die x8 2666MT/s" label. */
    std::string label() const;

    /** True if any FCDRAM operation is possible on this design. */
    bool supportsNot() const;

    /** True if simultaneous many-row logic operations are possible. */
    bool supportsLogicOps() const;

    /** Largest supported logic-operation input count (0 if none). */
    int maxLogicInputs() const;

    /**
     * Largest same-subarray simultaneous activation (the SiMRA
     * row-group size): min(decoder cap, 2^(latchStages + 1), counting
     * the half-select doubling). 0 when the design ignores violated
     * commands.
     */
    int maxSimraRows() const;

    /**
     * Largest AND/OR fan-in realizable as one input-biased MAJ gate:
     * a k-input gate needs k operands, k-1 constants, and one
     * VDD/2 tiebreaker, so k <= maxSimraRows() / 2.
     */
    int maxSimraInputs() const;

    /**
     * Build the calibrated profile for a manufacturer / density / die
     * revision combination from the paper's Table 1.
     */
    static ChipProfile make(Manufacturer mfr, int densityGbit,
                            char dieRevision, int organization,
                            std::uint32_t speedMt);
};

} // namespace fcdram

#endif // FCDRAM_CONFIG_CHIPPROFILE_HH
