#include "dram/cellarray.hh"

#include <algorithm>
#include <cassert>

namespace fcdram {

namespace {

constexpr float kVddF = static_cast<float>(kVdd);
constexpr float kGndF = static_cast<float>(kGnd);

} // namespace

CellArray::CellArray(int rows, int cols)
    : rows_(rows), cols_(cols),
      wordsPerRow_(
          BitVector::wordCountFor(static_cast<std::size_t>(cols))),
      bits_(static_cast<std::size_t>(rows) * wordsPerRow_, 0),
      lanes_(static_cast<std::size_t>(rows))
{
    assert(rows > 0 && cols > 0);
}

std::span<const std::uint64_t>
CellArray::rowWords(RowId row) const
{
    assert(static_cast<int>(row) < rows_);
    assert(rowOnRail(row));
    return {wordsOf(row), wordsPerRow_};
}

std::span<const float>
CellArray::rowLane(RowId row) const
{
    assert(!rowOnRail(row));
    return lanes_[static_cast<std::size_t>(row)];
}

std::span<float>
CellArray::rowLane(RowId row)
{
    assert(!rowOnRail(row));
    return lanes_[static_cast<std::size_t>(row)];
}

void
CellArray::materializeLane(RowId row)
{
    assert(static_cast<int>(row) < rows_);
    auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (!lane.empty())
        return;
    lane.resize(static_cast<std::size_t>(cols_));
    const std::uint64_t *words = wordsOf(row);
    for (ColId col = 0; col < static_cast<ColId>(cols_); ++col) {
        const bool bit = (words[col / 64] >> (col % 64)) & 1;
        lane[col] = bit ? kVddF : kGndF;
    }
}

bool
CellArray::collapseIfRail(RowId row)
{
    assert(static_cast<int>(row) < rows_);
    auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty())
        return true;
    for (const float v : lane) {
        if (v != kVddF && v != kGndF)
            return false;
    }
    std::uint64_t *words = wordsOf(row);
    std::fill(words, words + wordsPerRow_, 0);
    for (ColId col = 0; col < static_cast<ColId>(cols_); ++col) {
        if (lane[col] == kVddF)
            words[col / 64] |= std::uint64_t{1} << (col % 64);
    }
    lane.clear();
    return true;
}

Volt
CellArray::volt(RowId row, ColId col) const
{
    assert(static_cast<int>(row) < rows_);
    assert(static_cast<int>(col) < cols_);
    const auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty()) {
        const bool set = (wordsOf(row)[col / 64] >> (col % 64)) & 1;
        return set ? kVdd : kGnd;
    }
    return lane[col];
}

void
CellArray::setVolt(RowId row, ColId col, Volt value)
{
    assert(static_cast<int>(row) < rows_);
    assert(static_cast<int>(col) < cols_);
    auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty()) {
        if (value == kVdd || value == kGnd) {
            setBit(row, col, value == kVdd);
            return;
        }
        materializeLane(row);
    }
    lanes_[static_cast<std::size_t>(row)][col] =
        static_cast<float>(value);
}

bool
CellArray::bit(RowId row, ColId col) const
{
    assert(static_cast<int>(row) < rows_);
    assert(static_cast<int>(col) < cols_);
    const auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty())
        return (wordsOf(row)[col / 64] >> (col % 64)) & 1;
    return lane[col] > kVddHalf;
}

void
CellArray::setBit(RowId row, ColId col, bool value)
{
    assert(static_cast<int>(row) < rows_);
    assert(static_cast<int>(col) < cols_);
    auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (!lane.empty()) {
        lane[col] = value ? kVddF : kGndF;
        return;
    }
    const std::uint64_t mask = std::uint64_t{1} << (col % 64);
    if (value)
        wordsOf(row)[col / 64] |= mask;
    else
        wordsOf(row)[col / 64] &= ~mask;
}

void
CellArray::writeRow(RowId row, const BitVector &bits)
{
    assert(static_cast<int>(bits.size()) == cols_);
    const auto source = bits.words();
    std::copy(source.begin(), source.end(), wordsOf(row));
    lanes_[static_cast<std::size_t>(row)].clear();
}

void
CellArray::writeMasked(RowId row, const BitVector &bits,
                       const BitVector &mask)
{
    assert(static_cast<int>(bits.size()) == cols_);
    assert(static_cast<int>(mask.size()) == cols_);
    const auto source = bits.words();
    const auto masked = mask.words();
    auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty()) {
        std::uint64_t *words = wordsOf(row);
        for (std::size_t w = 0; w < wordsPerRow_; ++w)
            words[w] = (words[w] & ~masked[w]) | (source[w] & masked[w]);
        return;
    }
    for (ColId col = 0; col < static_cast<ColId>(cols_); ++col) {
        if ((masked[col / 64] >> (col % 64)) & 1) {
            const bool bit = (source[col / 64] >> (col % 64)) & 1;
            lane[col] = bit ? kVddF : kGndF;
        }
    }
    collapseIfRail(row);
}

BitVector
CellArray::readRow(RowId row) const
{
    BitVector bits(static_cast<std::size_t>(cols_));
    const auto &lane = lanes_[static_cast<std::size_t>(row)];
    if (lane.empty()) {
        const std::uint64_t *words = wordsOf(row);
        const auto out = bits.words();
        std::copy(words, words + wordsPerRow_, out.begin());
        return bits;
    }
    for (ColId col = 0; col < static_cast<ColId>(cols_); ++col)
        bits.set(col, lane[col] > kVddHalf);
    return bits;
}

void
CellArray::fill(bool value)
{
    std::fill(bits_.begin(), bits_.end(),
              value ? ~std::uint64_t{0} : std::uint64_t{0});
    for (auto &lane : lanes_)
        lane.clear();
    if (value) {
        for (RowId row = 0; row < static_cast<RowId>(rows_); ++row)
            maskRowTail(row);
    }
}

void
CellArray::maskRowTail(RowId row)
{
    const std::size_t tail = static_cast<std::size_t>(cols_) % 64;
    if (tail != 0)
        wordsOf(row)[wordsPerRow_ - 1] &= (std::uint64_t{1} << tail) - 1;
}

} // namespace fcdram
