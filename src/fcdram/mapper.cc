#include "fcdram/mapper.hh"

#include <algorithm>

#include "fcdram/ops.hh"
#include "obs/telemetry.hh"

namespace fcdram {

int
SubarrayMap::subarrayOf(RowId globalRow) const
{
    int subarray = -1;
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        if (globalRow >= boundaries[i])
            subarray = static_cast<int>(i);
    }
    return subarray;
}

SubarrayMapper::SubarrayMapper(DramBender &bender, std::uint64_t seed)
    : bender_(bender), rng_(seed)
{
}

bool
SubarrayMapper::sameSubarrayProbe(BankId bank, RowId src, RowId dst,
                                  int attempts)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    Ops ops(bender_);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        BitVector pattern(static_cast<std::size_t>(geometry.columns));
        pattern.randomize(rng_);
        BitVector different = ~pattern;
        bender_.writeRow(bank, src, pattern);
        bender_.writeRow(bank, dst, different);
        // The pair may straddle a subarray boundary: that is what
        // the probe looks for.
        const obs::DramLabel label("RowClone"); // readRow labels itself.
        bender_.execute(ops.buildRowClone(bank, src, dst));
        const BitVector readback = bender_.readRow(bank, dst);
        // A successful copy reproduces the source pattern (modulo a
        // few weak cells); a cross-subarray pair instead leaves the
        // destination untouched or half-inverted.
        const std::size_t distance = readback.hammingDistance(pattern);
        if (distance <= pattern.size() / 16)
            return true;
    }
    return false;
}

SubarrayMap
SubarrayMapper::mapBank(BankId bank)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    SubarrayMap map;
    map.boundaries.push_back(0);
    const auto rows = static_cast<RowId>(geometry.rowsPerBank());
    for (RowId row = 1; row < rows; ++row) {
        // Probe against several partners of the current group: the
        // decoder coverage gate deterministically rejects ~18% of
        // pairs, so a single blocked partner must not look like a
        // boundary.
        bool same = false;
        for (RowId back = 1; back <= 6 && back <= row; ++back) {
            const RowId prev = row - back;
            if (prev < map.boundaries.back())
                break; // Would cross an established boundary.
            if (sameSubarrayProbe(bank, prev, row, 1)) {
                same = true;
                break;
            }
        }
        if (!same)
            map.boundaries.push_back(row);
    }
    return map;
}

} // namespace fcdram
