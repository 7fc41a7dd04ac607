/**
 * @file
 * Hybrid analog cell storage.
 *
 * The common case in every workload is a row whose cells all sit at a
 * rail (VDD or GND): ordinary writes, reads, restored activations.
 * Those rows are stored as packed 64-bit words, one bit per column,
 * so bulk operations (row copies, reads, no-op restores) run
 * word-at-a-time. A row leaves the packed representation only while
 * physics puts cells off-rail — Frac initialization, an interrupted
 * (partial) restore, a frozen metastable charge share — at which
 * point a per-column float lane is materialized lazily. A full
 * restore writes rails back and collapses the lane, returning the row
 * to packed form.
 */

#ifndef FCDRAM_DRAM_CELLARRAY_HH
#define FCDRAM_DRAM_CELLARRAY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.hh"
#include "common/types.hh"

namespace fcdram {

/** Rows x columns matrix of cell voltages (hybrid packed/analog). */
class CellArray
{
  public:
    CellArray(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /** True if the row is stored packed (every cell exactly at rail). */
    bool rowOnRail(RowId row) const
    {
        return lanes_[static_cast<std::size_t>(row)].empty();
    }

    /**
     * Packed words of an on-rail row (bit c of word c/64 = column c
     * holds VDD). Unused tail bits are zero. @pre rowOnRail(row)
     */
    std::span<const std::uint64_t> rowWords(RowId row) const;

    /** Analog float lane of an off-rail row. @pre !rowOnRail(row) */
    std::span<const float> rowLane(RowId row) const;

    /** Mutable analog lane. @pre !rowOnRail(row) */
    std::span<float> rowLane(RowId row);

    /**
     * Materialize the analog lane of a row from its packed bits
     * (no-op if the row is already off-rail).
     */
    void materializeLane(RowId row);

    /**
     * Collapse the lane back to packed form if every lane value is
     * exactly at a rail; returns true when the row ends up packed
     * (also when it already was).
     */
    bool collapseIfRail(RowId row);

    /** Cell voltage. @pre coordinates in range */
    Volt volt(RowId row, ColId col) const;

    /**
     * Set cell voltage. Rail values keep (or restore nothing about)
     * the current representation: on a packed row they stay packed;
     * off-rail values materialize the lane.
     */
    void setVolt(RowId row, ColId col, Volt value);

    /** Digital readout: true if voltage is above VDD/2. */
    bool bit(RowId row, ColId col) const;

    /** Set a cell to full VDD (true) or GND (false). */
    void setBit(RowId row, ColId col, bool value);

    /**
     * Write a full row of bits at full rail voltages. Word-wise copy;
     * drops any analog lane.
     */
    void writeRow(RowId row, const BitVector &bits);

    /**
     * Write @p bits at full rail into the columns set in @p mask and
     * keep every other cell: a word-wise blend on a packed row, a
     * per-cell lane write on an off-rail row, which then collapses
     * back to packed form if every cell sits at a rail.
     */
    void writeMasked(RowId row, const BitVector &bits,
                     const BitVector &mask);

    /** Read a full row as thresholded bits (word-wise when packed). */
    BitVector readRow(RowId row) const;

    /** Fill the entire array at full rail from a single bit value. */
    void fill(bool value);

  private:
    std::uint64_t *wordsOf(RowId row)
    {
        return bits_.data() +
               static_cast<std::size_t>(row) * wordsPerRow_;
    }

    const std::uint64_t *wordsOf(RowId row) const
    {
        return bits_.data() +
               static_cast<std::size_t>(row) * wordsPerRow_;
    }

    void maskRowTail(RowId row);

    int rows_;
    int cols_;
    std::size_t wordsPerRow_;
    std::vector<std::uint64_t> bits_;

    /** Per-row analog lane; empty = packed (on-rail) row. */
    std::vector<std::vector<float>> lanes_;
};

} // namespace fcdram

#endif // FCDRAM_DRAM_CELLARRAY_HH
