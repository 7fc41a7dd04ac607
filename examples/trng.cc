/**
 * @file
 * True random number generation from DRAM (the extension the paper's
 * Section 8.1 proposes): metastable charge sharing of Frac-initialized
 * rows yields thermal-noise-driven bits; calibration selects entropy
 * cells and von Neumann whitening removes residual bias.
 */

#include <iostream>

#include "common/table.hh"
#include "exampleutil.hh"
#include "fcdram/trng.hh"

using namespace fcdram;

int
main()
{
    // One shared session supplies the design; the TRNG wants full
    // activation coverage, so the checked-out chip tweaks the
    // decoder gate of the fleet profile.
    CampaignConfig config;
    config.geometry = GeometryConfig::tiny();
    config.geometry.columns = 256;
    config.subarrayPairsPerBank = 3; // Every neighboring pair of 4.
    FleetSession session(config);
    const GeometryConfig &geometry = session.config().geometry;
    const FleetSession::Module &module = exampleutil::requireModule(
        session, Manufacturer::SkHynix, 4, 'A', 2133);
    ChipProfile profile = module.spec->profile();
    profile.decoder.coverageGate = 1.0;
    exampleutil::CheckedOutChip checkout(session, profile,
                                         /*chipSeed=*/2024,
                                         /*benderSeed=*/5);
    DramBender &bender = checkout.bender;

    std::cout << "DRAM TRNG on " << profile.label() << "\n\n";

    DramTrng trng(bender, 0, 1);
    const std::size_t cells = trng.calibrate(32);
    std::cout << "Calibration: " << cells << "/" << geometry.columns
              << " columns qualify as entropy cells\n";

    const std::size_t bits = 4096;
    const BitVector random = trng.randomBits(bits);
    const double ones_rate = static_cast<double>(random.popcount()) /
                             static_cast<double>(bits);
    std::size_t runs = 1;
    std::size_t longest = 1;
    std::size_t current = 1;
    for (std::size_t i = 1; i < random.size(); ++i) {
        if (random.get(i) != random.get(i - 1)) {
            ++runs;
            current = 1;
        } else {
            ++current;
        }
        longest = std::max(longest, current);
    }

    Table table({"metric", "value", "ideal"});
    table.addRow();
    table.addCell(std::string("bits generated"));
    table.addCell(static_cast<std::uint64_t>(bits));
    table.addCell(std::string("-"));
    table.addRow();
    table.addCell(std::string("ones rate"));
    table.addCell(ones_rate, 4);
    table.addCell(std::string("0.5"));
    table.addRow();
    table.addCell(std::string("runs"));
    table.addCell(static_cast<std::uint64_t>(runs));
    table.addCell(std::to_string(bits / 2));
    table.addRow();
    table.addCell(std::string("longest run"));
    table.addCell(static_cast<std::uint64_t>(longest));
    table.addCell(std::string("~12 (log2 n)"));
    table.addRow();
    table.addCell(std::string("raw activations used"));
    table.addCell(trng.rawSamplesDrawn());
    table.addCell(std::string("-"));
    table.print(std::cout);

    std::cout << "\nFirst 64 bits: ";
    for (std::size_t i = 0; i < 64; ++i)
        std::cout << (random.get(i) ? '1' : '0');
    std::cout << "\n";
    return 0;
}
