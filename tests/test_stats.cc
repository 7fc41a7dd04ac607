#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"
#include "stats/successrate.hh"
#include "stats/summary.hh"

namespace fcdram {
namespace {

TEST(SampleSet, MeanMinMax)
{
    SampleSet set;
    set.add(1.0);
    set.add(5.0);
    set.add(3.0);
    EXPECT_DOUBLE_EQ(set.mean(), 3.0);
    EXPECT_DOUBLE_EQ(set.min(), 1.0);
    EXPECT_DOUBLE_EQ(set.max(), 5.0);
    EXPECT_EQ(set.count(), 3u);
}

TEST(SampleSet, BoxStatsQuartiles)
{
    SampleSet set;
    for (int i = 0; i <= 100; ++i)
        set.add(static_cast<double>(i));
    const BoxStats box = set.box();
    EXPECT_DOUBLE_EQ(box.min, 0.0);
    EXPECT_DOUBLE_EQ(box.q1, 25.0);
    EXPECT_DOUBLE_EQ(box.median, 50.0);
    EXPECT_DOUBLE_EQ(box.q3, 75.0);
    EXPECT_DOUBLE_EQ(box.max, 100.0);
    EXPECT_DOUBLE_EQ(box.iqr(), 50.0);
    EXPECT_EQ(box.count, 101u);
}

TEST(SampleSet, QuantileAfterIncrementalAdds)
{
    SampleSet set;
    set.add(10.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.5), 10.0);
    set.add(20.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.5), 15.0);
}

TEST(SampleSet, Merge)
{
    SampleSet a;
    a.add(1.0);
    SampleSet b;
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(BoxStats, ToStringContainsMean)
{
    SampleSet set;
    set.add(2.0);
    set.add(4.0);
    const std::string s = set.box().toString();
    EXPECT_NE(s.find("3.00"), std::string::npos);
}

TEST(SuccessRate, PerCellAccounting)
{
    SuccessRateAccumulator acc(3);
    acc.record(0, true);
    acc.record(0, true);
    acc.record(0, false);
    acc.record(1, false);
    EXPECT_NEAR(acc.successRatePercent(0), 66.6667, 0.01);
    EXPECT_DOUBLE_EQ(acc.successRatePercent(1), 0.0);
    EXPECT_EQ(acc.trials(2), 0u);
}

TEST(SuccessRate, BatchRecording)
{
    SuccessRateAccumulator acc(1);
    acc.recordBatch(0, 9000, 10000);
    EXPECT_DOUBLE_EQ(acc.successRatePercent(0), 90.0);
}

TEST(SuccessRate, DistributionSkipsUntestedCells)
{
    SuccessRateAccumulator acc(5);
    acc.record(0, true);
    acc.record(3, false);
    const SampleSet set = acc.distribution();
    EXPECT_EQ(set.count(), 2u);
}

TEST(SuccessRate, CellsAboveThreshold)
{
    SuccessRateAccumulator acc(3);
    acc.recordBatch(0, 95, 100);
    acc.recordBatch(1, 50, 100);
    acc.recordBatch(2, 91, 100);
    const auto cells = acc.cellsAbove(90.0);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0], 0u);
    EXPECT_EQ(cells[1], 2u);
}

TEST(SuccessRate, AverageSuccessPercent)
{
    SuccessRateAccumulator acc(2);
    acc.recordBatch(0, 100, 100);
    acc.recordBatch(1, 0, 100);
    EXPECT_DOUBLE_EQ(acc.averageSuccessPercent(), 50.0);
}

TEST(Table, AlignedOutput)
{
    Table table({"a", "long_header"});
    table.addRow();
    table.addCell(std::string("x"));
    table.addCell(1.5, 1);
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table({"x", "y"});
    table.addRow();
    table.addCell(static_cast<std::uint64_t>(3));
    table.addCell(static_cast<std::uint64_t>(4));
    std::ostringstream oss;
    table.printCsv(oss);
    EXPECT_EQ(oss.str(), "x,y\n3,4\n");
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(3.0, 0), "3");
}

} // namespace
} // namespace fcdram
