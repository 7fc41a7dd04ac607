#include "dram/openbitline.hh"

#include <cassert>
#include <cstdlib>
#include <numeric>

namespace fcdram {

StripeId
stripeFor(SubarrayId subarray, ColId col)
{
    const bool upward = ((col + subarray) % 2) == 0;
    return upward ? subarray : static_cast<StripeId>(subarray + 1);
}

bool
columnShared(SubarrayId a, SubarrayId b, ColId col)
{
    if (std::abs(static_cast<int>(a) - static_cast<int>(b)) != 1)
        return false;
    return stripeFor(a, col) == stripeFor(b, col);
}

StripeId
sharedStripe(SubarrayId a, SubarrayId b)
{
    assert(std::abs(static_cast<int>(a) - static_cast<int>(b)) == 1);
    return static_cast<StripeId>(std::max(a, b));
}

std::vector<ColId>
sharedColumns(const GeometryConfig &geometry, SubarrayId a,
              SubarrayId b)
{
    std::vector<ColId> columns;
    columns.reserve(static_cast<std::size_t>(geometry.columns) / 2);
    for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
         ++col) {
        if (columnShared(a, b, col))
            columns.push_back(col);
    }
    return columns;
}

std::vector<ColId>
allColumns(const GeometryConfig &geometry)
{
    std::vector<ColId> columns(static_cast<std::size_t>(geometry.columns));
    std::iota(columns.begin(), columns.end(), ColId{0});
    return columns;
}

bool
onComplementTerminal(SubarrayId subarray, StripeId stripe)
{
    assert(stripe == subarray || stripe == subarray + 1);
    // The subarray below the stripe (same index) is on the complement
    // terminal.
    return stripe == subarray;
}

} // namespace fcdram
