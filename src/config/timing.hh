/**
 * @file
 * DDR4 timing parameters and speed grades.
 *
 * The FCDRAM mechanisms hinge on *violating* manufacturer-recommended
 * timings (tRAS, tRP): the testing infrastructure can only realize
 * command gaps that are integer multiples of the DRAM clock, so the
 * actual analog interval depends on the module's speed grade. This is
 * the root cause of the paper's non-monotonic speed-rate sensitivity
 * (Observations 8 and 18).
 */

#ifndef FCDRAM_CONFIG_TIMING_HH
#define FCDRAM_CONFIG_TIMING_HH

#include <cstdint>

#include "common/types.hh"

namespace fcdram {

/**
 * A DDR4 speed grade (data rate in mega-transfers per second) and the
 * timing conversions that depend on it.
 */
class SpeedGrade
{
  public:
    /**
     * Construct from a data rate, e.g. 2666 MT/s.
     *
     * @throws std::invalid_argument when @p mtPerSec is 0: every
     *         timing conversion (and the host-copy bandwidth model)
     *         divides by the rate, so a zero rate is rejected at
     *         config load instead of surfacing as a downstream
     *         division by zero.
     */
    explicit SpeedGrade(std::uint32_t mtPerSec = 2666);

    /** Data rate in MT/s. */
    std::uint32_t mtPerSec() const { return mtPerSec_; }

    /** DRAM command clock period in ns (two transfers per clock). */
    Ns tCk() const;

    /**
     * Peak host-copy bandwidth of an x64 DIMM at this rate, in
     * bytes per nanosecond (@p busBytes bytes move per transfer).
     * Strictly positive by construction.
     */
    double bytesPerNs(int busBytes = 8) const;

    /** Number of whole clock cycles needed to span @p ns. */
    Cycle cyclesFor(Ns ns) const;

    /**
     * Shortest realizable command gap that is at least @p targetNs,
     * quantized to whole clock cycles. Violated-timing sequences are
     * issued back-to-back in command slots, so this is the actual
     * analog interval the DRAM circuitry experiences.
     */
    Ns quantizedGapNs(Ns targetNs) const;

    bool operator==(const SpeedGrade &other) const;

  private:
    std::uint32_t mtPerSec_;
};

/**
 * Nominal DDR4 timing parameters in nanoseconds (JEDEC-typical values;
 * the exact datasheet numbers are not load-bearing for the study, only
 * the distinction between respected and violated timings is).
 */
struct TimingParams
{
    Ns tRas = 32.0; ///< ACT to PRE (restore complete).
    Ns tRp = 13.5;  ///< PRE to next ACT (precharge complete).
    Ns tRcd = 13.5; ///< ACT to first RD/WR.
    Ns tRfc = 350.0; ///< Refresh cycle time.

    /**
     * Gap below which a PRE fails to de-assert the row-decoder latches
     * (the multi-row activation trigger window; the paper targets
     * "<3ns", and the slowest working realization in the fleet is the
     * 4-cycle gap of 2666 MT/s modules, ~3.0ns).
     */
    Ns glitchThreshold = 3.2;

    /**
     * Gap below which an interrupted restore leaves the cell near its
     * charge-sharing voltage (the Frac mechanism).
     */
    Ns fracThreshold = 6.0;

    /**
     * Fixed per-transfer overhead of a host bulk copy (software setup
     * plus the first-access latency a streaming scan cannot hide).
     * Added on top of the bandwidth term of the CPU-baseline cost
     * model.
     */
    Ns hostCopyOverheadNs = 100.0;

    /** Default nominal DDR4 parameters. */
    static TimingParams nominal();
};

/**
 * Target gap used by FCDRAM command sequences for the violated
 * PRE -> ACT (and ACT -> PRE) intervals. The realized interval is
 * SpeedGrade::quantizedGapNs(kViolatedGapTargetNs).
 */
inline constexpr Ns kViolatedGapTargetNs = 2.5;

} // namespace fcdram

#endif // FCDRAM_CONFIG_TIMING_HH
