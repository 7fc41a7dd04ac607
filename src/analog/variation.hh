/**
 * @file
 * Deterministic process-variation maps.
 *
 * Every cell and sense amplifier in a chip has static, manufacturing-
 * time variation (threshold offsets, weak contacts). We derive these
 * from a stateless hash of the chip seed and the component coordinates
 * so that the same chip always exhibits the same variation, across
 * trials and across analytic/Monte-Carlo engines.
 */

#ifndef FCDRAM_ANALOG_VARIATION_HH
#define FCDRAM_ANALOG_VARIATION_HH

#include <cstdint>

#include "common/types.hh"
#include "config/chipprofile.hh"

namespace fcdram {

/**
 * Per-chip static variation source. All values are deterministic
 * functions of (chipSeed, coordinates).
 */
class VariationMap
{
  public:
    /**
     * @param chipSeed Unique seed of the simulated chip.
     * @param params Analog parameter pack supplying the sigmas.
     */
    VariationMap(std::uint64_t chipSeed, const AnalogParams &params);

    /** Static threshold offset (V) of the cell at (bank, row, col). */
    Volt cellOffset(BankId bank, RowId row, ColId col) const;

    /**
     * Static input-referred offset (V) of the sense amplifier at
     * (bank, stripe, col).
     */
    Volt saOffset(BankId bank, StripeId stripe, ColId col) const;

    /**
     * Prefix factorization of the per-cell hash keys for bulk
     * consumers (the word-parallel executor, and ColumnVariation for
     * the analytic engine and the allocator): the key of
     * cellOffset(bank, row, col) is exactly
     * hashCombine(cellKeyPrefix(bank, row), col), so a whole row's
     * offsets need one hashCombine per column instead of re-folding
     * the full coordinate chain per cell. Values are bit-identical to
     * the per-cell accessors by construction.
     */
    std::uint64_t cellKeyPrefix(BankId bank, RowId row) const;

    /** saOffset's key prefix through (bank, stripe). */
    std::uint64_t saKeyPrefix(BankId bank, StripeId stripe) const;

    /** structuralFailUnder's key prefix through (bank, stripe). */
    std::uint64_t failKeyPrefix(BankId bank, StripeId stripe) const;

    /** cellOffset from a completed key (prefix folded with col). */
    Volt cellOffsetFromKey(std::uint64_t key) const;

    /** saOffset from a completed key. */
    Volt saOffsetFromKey(std::uint64_t key) const;

    /** structuralFailUnder from a completed key. */
    bool structuralFailFromKey(std::uint64_t key,
                               double failFraction) const;

    /**
     * True if the sense amplifier at (bank, stripe, col) structurally
     * cannot support multi-row operation at the given population
     * fail fraction (its outcome is then a metastable coin flip).
     * Each SA has a fixed strength percentile, so the failing
     * population grows monotonically with @p failFraction.
     */
    bool structuralFailUnder(BankId bank, StripeId stripe, ColId col,
                             double failFraction) const;

    /**
     * Per-cell RowHammer vulnerability factor in [0, 1] (used by the
     * row-order reverse-engineering methodology).
     */
    double hammerVulnerability(BankId bank, RowId row, ColId col) const;

    /** Chip seed this map was built from. */
    std::uint64_t chipSeed() const { return chipSeed_; }

  private:
    /** Standard-normal deviate derived from a hash key. */
    double gaussianFromKey(std::uint64_t key) const;

    /** Uniform [0,1) derived from a hash key. */
    double uniformFromKey(std::uint64_t key) const;

    std::uint64_t chipSeed_;
    AnalogParams params_;
};

} // namespace fcdram

#endif // FCDRAM_ANALOG_VARIATION_HH
