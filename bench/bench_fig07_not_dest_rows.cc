/**
 * @file
 * Fig. 7: success rate of the NOT operation with 1-32 destination
 * rows (Observations 3 and 4).
 */

#include <iostream>

#include "benchutil.hh"

using namespace fcdram;
using namespace fcdram::benchutil;

int
main(int argc, char **argv)
{
    printBanner(std::cout,
                "Fig. 7: NOT success rate vs. destination rows");

    const auto session = figureSession(argc, argv);
    Campaign campaign(session);
    BenchReport report("fig07_not_dest_rows");

    // Cold run: builds the chips and probes for qualifying pairs.
    const auto result = campaign.notVsDestRows();
    const double cold_ms = report.lap("cold");

    // Warm run: chips and pair discovery come from the session cache;
    // the results are bit-identical, only the analysis is repeated.
    const auto warm = campaign.notVsDestRows();
    const double warm_ms = report.lap("warm_cached");
    (void)warm;

    Table table({"dest rows", "success % (box)", "mean %", "max %",
                 "paper mean %"});
    for (const auto &[dest, set] : result) {
        table.addRow();
        table.addCell(static_cast<std::uint64_t>(dest));
        table.addCell(boxCell(set));
        table.addCell(meanCell(set));
        table.addCell(set.empty() ? "-" : formatDouble(set.max(), 2));
        table.addCell(dest == 1 ? "98.37" : dest == 32 ? "7.95" : "-");
    }
    table.print(std::cout);

    std::cout << "\nObs. 3: every destination-row count has at least "
                 "one 100% cell (see max column).\n";
    std::cout << "Obs. 4: success rate decreases with destination "
                 "rows.\n";
    report.metric("cold_over_warm",
                  warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
    recordCacheStats(report, *session);
    report.save();
    // Wall-clock, so printed after the report: everything above the
    // timings is the same at any worker count.
    std::cout << "\nSession caching: cold " << formatDouble(cold_ms, 1)
              << " ms vs warm " << formatDouble(warm_ms, 1)
              << " ms (x"
              << formatDouble(warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
                              2)
              << " from cached chips + pair discovery).\n";
    return 0;
}
