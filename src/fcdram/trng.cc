#include "fcdram/trng.hh"

#include <cassert>

#include "obs/telemetry.hh"

namespace fcdram {

DramTrng::DramTrng(DramBender &bender, BankId bank, SubarrayId subarray)
    : bender_(bender), ops_(bender), bank_(bank), subarray_(subarray),
      rawSamples_(0)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    assert(subarray < geometry.subarraysPerBank);
    // Any pair-activating row couple works; rows 0 and 1 differ in
    // one predecode stage on every design.
    rowA_ = composeRow(geometry, subarray_, 0);
    rowB_ = composeRow(geometry, subarray_, 1);
}

BitVector
DramTrng::rawSample()
{
    // Frac both rows to VDD/2 (helpers must avoid the pair itself).
    ops_.fracInit(bank_, rowA_, {rowB_});
    ops_.fracInit(bank_, rowB_, {rowA_});
    // Metastable charge share: both bitline terminals sit at VDD/2,
    // so the amplification outcome is thermal-noise driven.
    const obs::DramLabel label("DoubleAct"); // Reads label themselves.
    bender_.execute(ops_.buildDoubleAct(bank_, rowA_, rowB_));
    ++rawSamples_;
    return bender_.readRow(bank_, rowA_);
}

std::size_t
DramTrng::calibrate(int trials, double lo, double hi)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    std::vector<int> ones(static_cast<std::size_t>(geometry.columns),
                          0);
    for (int t = 0; t < trials; ++t) {
        const BitVector sample = rawSample();
        for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
             ++col) {
            ones[col] += sample.get(col) ? 1 : 0;
        }
    }
    entropyCells_.clear();
    for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
         ++col) {
        const double rate =
            static_cast<double>(ones[col]) / static_cast<double>(trials);
        if (rate >= lo && rate <= hi)
            entropyCells_.push_back(col);
    }
    return entropyCells_.size();
}

BitVector
DramTrng::randomBits(std::size_t bits)
{
    assert(!entropyCells_.empty());
    BitVector output(bits);
    std::size_t produced = 0;
    while (produced < bits) {
        // Von Neumann extraction: two raw samples per column; 01 -> 0,
        // 10 -> 1, 00/11 discarded.
        const BitVector first = rawSample();
        const BitVector second = rawSample();
        for (const ColId col : entropyCells_) {
            if (produced >= bits)
                break;
            const bool a = first.get(col);
            const bool b = second.get(col);
            if (a == b)
                continue;
            output.set(produced++, b);
        }
    }
    return output;
}

} // namespace fcdram
