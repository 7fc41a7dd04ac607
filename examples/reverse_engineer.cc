/**
 * @file
 * Reverse-engineering walkthrough: starting from a chip with unknown
 * internals (scrambled physical row order), recover
 *  1) the subarray boundaries via RowClone probing (Section 4.2),
 *  2) the physical row order via RowHammer disturbance (Section 5.2),
 *  3) the NRF:NRL activation behaviour via the WR-readback classifier,
 * exactly as the paper's methodology does on real chips.
 */

#include <iostream>

#include "common/table.hh"
#include "exampleutil.hh"
#include "fcdram/classifier.hh"
#include "fcdram/mapper.hh"
#include "fcdram/roworder.hh"

using namespace fcdram;

int
main()
{
    // One shared session carries the under-test geometry; the chip
    // under reverse engineering is checked out of it.
    CampaignConfig config;
    config.geometry = GeometryConfig();
    config.geometry.numBanks = 1;
    config.geometry.subarraysPerBank = 4;
    config.geometry.rowsPerSubarray = 64;
    config.geometry.columns = 128;
    config.geometry.scrambleRowOrder = true; // Unknown internal order.
    config.subarrayPairsPerBank = 3; // Every neighboring pair of 4.
    FleetSession session(config);
    const GeometryConfig &geometry = session.config().geometry;
    const FleetSession::Module &module = exampleutil::requireModule(
        session, Manufacturer::SkHynix, 4, 'M', 2666);
    exampleutil::CheckedOutChip checkout(session,
                                         module.spec->profile(),
                                         /*chipSeed=*/77,
                                         /*benderSeed=*/5);
    const ChipProfile &profile = checkout.chip.profile();
    DramBender &bender = checkout.bender;

    std::cout << "Reverse engineering " << profile.label()
              << " (scrambled row order)\n\n";

    // 1) Subarray boundaries via RowClone probing.
    SubarrayMapper mapper(bender, 3);
    const SubarrayMap map = mapper.mapBank(0);
    std::cout << "1) RowClone probing found " << map.numSubarrays()
              << " subarrays; boundaries at rows:";
    for (const RowId boundary : map.boundaries)
        std::cout << " " << boundary;
    std::cout << "\n   (ground truth: " << geometry.subarraysPerBank
              << " subarrays of " << geometry.rowsPerSubarray
              << " rows)\n\n";

    // 2) Physical row order via RowHammer.
    RowOrderMapper order_mapper(bender);
    const RowOrder order = order_mapper.mapSubarray(0, 1);
    std::cout << "2) RowHammer disturbance recovered the physical "
                 "order of subarray 1\n   ("
              << order.physicalOrder.size() << "/"
              << geometry.rowsPerSubarray
              << " rows chained). First eight logical rows in "
                 "physical order:";
    for (std::size_t i = 0; i < 8 && i < order.physicalOrder.size();
         ++i)
        std::cout << " " << order.physicalOrder[i];
    std::cout << "\n   Region of logical row 0 relative to the lower "
                 "stripe: "
              << toString(order.regionFor(0, true)) << "\n\n";

    // 3) Activation-pattern classification via WR readback.
    ActivationClassifier classifier(bender, 9);
    const CoverageStats stats = classifier.sampleCoverage(0, 1, 2, 60);
    std::cout << "3) WR-readback classification of 60 random (RF, RL) "
                 "pairs between subarrays 1 and 2:\n";
    Table table({"NRF:NRL", "pairs", "coverage %"});
    for (const auto &[type, count] : stats.counts) {
        table.addRow();
        table.addCell(type);
        table.addCell(count);
        table.addCell(100.0 * stats.coverage(type), 1);
    }
    table.print(std::cout);
    std::cout << "\nWith the map, order, and activation classes in "
                 "hand, the chip is ready for\ntargeted NOT/AND/OR "
                 "characterization (see bench/).\n";
    return 0;
}
