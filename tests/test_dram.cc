#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/address.hh"
#include "dram/bank.hh"
#include "dram/cellarray.hh"
#include "dram/chip.hh"
#include "dram/openbitline.hh"
#include "dram/subarray.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

TEST(Geometry, Validity)
{
    EXPECT_TRUE(GeometryConfig::tiny().valid());
    EXPECT_TRUE(GeometryConfig::standard().valid());
    GeometryConfig bad = GeometryConfig::tiny();
    bad.rowsPerSubarray = 48; // not a power of two
    EXPECT_FALSE(bad.valid());
    bad = GeometryConfig::tiny();
    bad.subarraysPerBank = 1; // no neighboring pair
    EXPECT_FALSE(bad.valid());
}

TEST(Geometry, DerivedQuantities)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    EXPECT_EQ(geometry.rowBits(), 5); // 32 rows.
    EXPECT_EQ(geometry.rowsPerBank(), 4 * 32);
    EXPECT_EQ(geometry.stripesPerBank(), 5);
}

TEST(Address, ComposeDecomposeRoundTrip)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    for (int sa = 0; sa < geometry.subarraysPerBank; ++sa) {
        for (int local = 0; local < geometry.rowsPerSubarray;
             local += 7) {
            const RowId global = composeRow(
                geometry, static_cast<SubarrayId>(sa),
                static_cast<RowId>(local));
            const RowAddress address = decomposeRow(geometry, global);
            EXPECT_EQ(address.subarray, sa);
            EXPECT_EQ(address.localRow, static_cast<RowId>(local));
        }
    }
}

TEST(Address, NeighborDetection)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    const RowId a = composeRow(geometry, 0, 5);
    const RowId b = composeRow(geometry, 1, 9);
    const RowId c = composeRow(geometry, 2, 9);
    EXPECT_TRUE(neighboringSubarrays(geometry, a, b));
    EXPECT_TRUE(neighboringSubarrays(geometry, b, c));
    EXPECT_FALSE(neighboringSubarrays(geometry, a, c));
    EXPECT_FALSE(neighboringSubarrays(geometry, a, a));
    EXPECT_TRUE(sameSubarray(geometry, a, a));
    EXPECT_FALSE(sameSubarray(geometry, a, b));
}

TEST(CellArray, VoltageRoundTrip)
{
    CellArray cells(4, 8);
    cells.setVolt(1, 2, 0.77);
    EXPECT_NEAR(cells.volt(1, 2), 0.77, 1e-6);
    EXPECT_TRUE(cells.bit(1, 2));
    cells.setVolt(1, 2, 0.3);
    EXPECT_FALSE(cells.bit(1, 2));
}

TEST(CellArray, RowReadWrite)
{
    CellArray cells(2, 16);
    BitVector pattern(16);
    pattern.set(3, true);
    pattern.set(15, true);
    cells.writeRow(0, pattern);
    EXPECT_EQ(cells.readRow(0), pattern);
    EXPECT_TRUE(cells.readRow(1).all(false));
}

TEST(CellArray, Fill)
{
    CellArray cells(3, 5);
    cells.fill(true);
    for (int r = 0; r < 3; ++r)
        EXPECT_TRUE(cells.readRow(r).all(true));
}

TEST(Subarray, IdentityMappingByDefault)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    const Subarray subarray(0, geometry, 1);
    for (RowId r = 0; r < 32; ++r) {
        EXPECT_EQ(subarray.physicalRow(r), r);
        EXPECT_EQ(subarray.logicalRow(r), r);
    }
}

class ScrambledSubarrayTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ScrambledSubarrayTest, PermutationIsBijective)
{
    GeometryConfig geometry = GeometryConfig::tiny();
    geometry.scrambleRowOrder = true;
    const Subarray subarray(1, geometry,
                            static_cast<std::uint64_t>(GetParam()));
    std::vector<bool> seen(32, false);
    for (RowId r = 0; r < 32; ++r) {
        const RowId p = subarray.physicalRow(r);
        ASSERT_LT(p, 32u);
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
        EXPECT_EQ(subarray.logicalRow(p), r);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScrambledSubarrayTest,
                         ::testing::Values(1, 2, 3, 17, 101, 9999));

TEST(Subarray, RegionsCoverThirds)
{
    const GeometryConfig geometry = GeometryConfig::tiny(); // 32 rows
    const Subarray subarray(0, geometry, 1);
    // Upper stripe (id 0): physical 0 is Close, last row is Far.
    EXPECT_EQ(subarray.regionFor(0, 0), Region::Close);
    EXPECT_EQ(subarray.regionFor(15, 0), Region::Middle);
    EXPECT_EQ(subarray.regionFor(31, 0), Region::Far);
    // Lower stripe (id 1): mirrored.
    EXPECT_EQ(subarray.regionFor(0, 1), Region::Far);
    EXPECT_EQ(subarray.regionFor(31, 1), Region::Close);
}

TEST(Subarray, DistanceToStripes)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    const Subarray subarray(2, geometry, 1);
    EXPECT_EQ(subarray.distanceTo(0, 2), 0);
    EXPECT_EQ(subarray.distanceTo(0, 3), 31);
    EXPECT_EQ(subarray.distanceTo(31, 3), 0);
}

TEST(OpenBitline, EachColumnHasOneStripe)
{
    for (SubarrayId sa = 0; sa < 4; ++sa) {
        for (ColId col = 0; col < 16; ++col) {
            const StripeId stripe = stripeFor(sa, col);
            EXPECT_TRUE(stripe == sa || stripe == sa + 1);
        }
    }
}

TEST(OpenBitline, NeighborsShareHalfTheColumns)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    const auto shared = sharedColumns(geometry, 1, 2);
    EXPECT_EQ(shared.size(),
              static_cast<std::size_t>(geometry.columns) / 2);
    for (const ColId col : shared)
        EXPECT_TRUE(columnShared(1, 2, col));
}

TEST(OpenBitline, SharedColumnSetsAlternateWithSubarray)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    const auto shared01 = sharedColumns(geometry, 0, 1);
    const auto shared12 = sharedColumns(geometry, 1, 2);
    // A column shared between (0,1) must not be shared between (1,2):
    // subarray 1's bitline for that column already terminates at
    // stripe 1.
    for (const ColId col : shared01)
        EXPECT_FALSE(columnShared(1, 2, col));
    EXPECT_EQ(shared01.size() + shared12.size(),
              static_cast<std::size_t>(geometry.columns));
}

TEST(OpenBitline, ComplementTerminalIsLowerSubarray)
{
    EXPECT_TRUE(onComplementTerminal(2, 2));
    EXPECT_FALSE(onComplementTerminal(1, 2));
    EXPECT_EQ(sharedStripe(3, 4), 4u);
    EXPECT_EQ(sharedStripe(4, 3), 4u);
}

TEST(Bank, RowAccessThroughGlobalIds)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    Bank bank(0, geometry, 77);
    BitVector pattern(static_cast<std::size_t>(geometry.columns));
    Rng rng(5);
    pattern.randomize(rng);
    const RowId row = composeRow(geometry, 2, 13);
    bank.writeRowBits(row, pattern);
    EXPECT_EQ(bank.readRowBits(row), pattern);
    EXPECT_EQ(bank.subarray(2).cells().readRow(13), pattern);
}

TEST(Bank, FillAffectsAllSubarrays)
{
    const GeometryConfig geometry = GeometryConfig::tiny();
    Bank bank(0, geometry, 77);
    bank.fill(true);
    for (int sa = 0; sa < geometry.subarraysPerBank; ++sa) {
        EXPECT_TRUE(bank.subarray(static_cast<SubarrayId>(sa))
                        .cells()
                        .readRow(0)
                        .all(true));
    }
}

TEST(Chip, ConstructionAndState)
{
    const Chip chip(test::idealProfile(), GeometryConfig::tiny(), 3);
    EXPECT_EQ(chip.numBanks(), 1);
    EXPECT_EQ(chip.seed(), 3u);
    EXPECT_DOUBLE_EQ(chip.temperature(), kDefaultTemperature);
}

TEST(Chip, TemperatureMutable)
{
    Chip chip(test::idealProfile(), GeometryConfig::tiny(), 3);
    chip.setTemperature(80.0);
    EXPECT_DOUBLE_EQ(chip.temperature(), 80.0);
}

} // namespace
} // namespace fcdram
