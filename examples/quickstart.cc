/**
 * @file
 * Quickstart: create a simulated COTS DDR4 chip, perform in-DRAM NOT
 * and 2-input AND/NAND/OR/NOR operations on it through the
 * DramBender interface, and verify the results against the golden
 * software model.
 */

#include <iostream>

#include "common/table.hh"
#include "exampleutil.hh"
#include "fcdram/analyzer.hh"
#include "fcdram/golden.hh"
#include "dram/openbitline.hh"
#include "fcdram/ops.hh"

using namespace fcdram;

int
main()
{
    // One shared session per process: it owns the Table-1 inventory
    // and the simulated geometry; mutable chips for command-level
    // work are checked out of it.
    FleetSession session;
    const GeometryConfig &geometry = session.config().geometry;

    // An SK Hynix 4Gb A-die x8 module at 2133 MT/s: the strongest
    // logic design in the paper's fleet.
    const FleetSession::Module &module = exampleutil::requireModule(
        session, Manufacturer::SkHynix, 4, 'A', 2133);
    const ChipProfile profile = module.spec->profile();
    exampleutil::CheckedOutChip checkout(session, profile, /*chipSeed=*/1,
                                         /*benderSeed=*/7);
    Chip &chip = checkout.chip;
    DramBender &bender = checkout.bender;
    Ops ops(bender);

    std::cout << "Chip under test: " << profile.label() << "\n";
    std::cout << "Geometry: " << geometry.subarraysPerBank
              << " subarrays x " << geometry.rowsPerSubarray
              << " rows x " << geometry.columns << " columns\n\n";

    // ---- NOT ------------------------------------------------------
    // Find a 1:1 activation pair between subarrays 0 and 1.
    const auto pairs = findActivationPairs(chip, 1, 1, 1, /*seed=*/3);
    if (pairs.empty()) {
        std::cerr << "No 1:1 activation pair found\n";
        return 1;
    }
    const RowId src = composeRow(geometry, 0, pairs.front().first);
    const RowId dst = composeRow(geometry, 1, pairs.front().second);

    BitVector input(static_cast<std::size_t>(geometry.columns));
    Rng rng(99);
    input.randomize(rng);
    bender.writeRow(0, src, input);
    bender.writeRow(0, dst, input); // Retention must look like failure.

    const auto destinations = ops.executeNot(0, src, dst);
    const BitVector not_result = bender.readRow(0, destinations.front());
    const BitVector expected = goldenNot(input);
    const auto shared = sharedColumns(geometry, 0, 1);
    std::size_t correct = 0;
    for (const ColId col : shared)
        correct += not_result.get(col) == expected.get(col) ? 1 : 0;
    std::cout << "In-DRAM NOT: " << correct << "/" << shared.size()
              << " shared-column bits correct ("
              << formatDouble(100.0 * static_cast<double>(correct) /
                              static_cast<double>(shared.size()))
              << "%)\n";

    // ---- 2-input logic --------------------------------------------
    const auto logic_pairs =
        findActivationPairs(chip, 2, 2, 1, /*seed=*/11);
    if (logic_pairs.empty()) {
        std::cerr << "No 2:2 activation pair found\n";
        return 1;
    }
    const ActivationSets sets = chip.decoder().neighborActivation(
        logic_pairs.front().first, logic_pairs.front().second);

    std::vector<RowId> ref_rows;
    std::vector<RowId> com_rows;
    for (const RowId local : sets.firstRows)
        ref_rows.push_back(composeRow(geometry, 0, local));
    for (const RowId local : sets.secondRows)
        com_rows.push_back(composeRow(geometry, 1, local));

    std::vector<BitVector> operands(
        2, BitVector(static_cast<std::size_t>(geometry.columns)));
    operands[0].randomize(rng);
    operands[1].randomize(rng);

    for (const BoolOp op : {BoolOp::And, BoolOp::Or}) {
        if (!ops.initReference(0, op, ref_rows)) {
            std::cerr << "Frac initialization failed\n";
            return 1;
        }
        for (std::size_t i = 0; i < com_rows.size(); ++i)
            bender.writeRow(0, com_rows[i], operands[i]);
        const LogicOpResult result = ops.executeLogic(
            0, composeRow(geometry, 0, logic_pairs.front().first),
            composeRow(geometry, 1, logic_pairs.front().second),
            ref_rows, com_rows);
        const BitVector golden_direct = goldenOp(op, operands);
        const BitVector golden_inverted = ~golden_direct;
        std::size_t ok_direct = 0;
        std::size_t ok_inverted = 0;
        for (const ColId col : result.columns) {
            ok_direct += result.computeResult.get(col) ==
                                 golden_direct.get(col)
                             ? 1
                             : 0;
            ok_inverted += result.referenceResult.get(col) ==
                                   golden_inverted.get(col)
                               ? 1
                               : 0;
        }
        std::cout << "In-DRAM 2-input " << toString(op) << ": "
                  << ok_direct << "/" << result.columns.size()
                  << " correct; simultaneous "
                  << toString(op == BoolOp::And ? BoolOp::Nand
                                                : BoolOp::Nor)
                  << ": " << ok_inverted << "/" << result.columns.size()
                  << " correct\n";
    }

    std::cout << "\nDone. See examples/bitmap_query.cc for a workload\n"
                 "and bench/ for the paper's characterization.\n";
    return 0;
}
