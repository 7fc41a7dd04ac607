#include <gtest/gtest.h>

#include <stdexcept>

#include "config/fleet.hh"
#include "config/timing.hh"

namespace fcdram {
namespace {

TEST(SpeedGrade, ClockPeriods)
{
    EXPECT_NEAR(SpeedGrade(2133).tCk(), 0.9377, 1e-3);
    EXPECT_NEAR(SpeedGrade(2400).tCk(), 0.8333, 1e-3);
    EXPECT_NEAR(SpeedGrade(2666).tCk(), 0.7502, 1e-3);
    EXPECT_NEAR(SpeedGrade(3200).tCk(), 0.625, 1e-9);
}

TEST(SpeedGrade, CyclesRoundUp)
{
    const SpeedGrade grade(2666);
    EXPECT_EQ(grade.cyclesFor(0.1), 1u);
    EXPECT_EQ(grade.cyclesFor(0.75), 1u);
    EXPECT_EQ(grade.cyclesFor(0.76), 2u);
}

TEST(SpeedGrade, QuantizedViolatedGaps)
{
    // The root of the non-monotonic speed sensitivity (Obs. 8/18):
    // 2400 MT/s realizes a 2.5 ns gap, far from the 2.9 ns optimum,
    // while 2133 and 2666 land close to it.
    EXPECT_NEAR(SpeedGrade(2133).quantizedGapNs(kViolatedGapTargetNs),
                2.8129, 1e-3);
    EXPECT_NEAR(SpeedGrade(2400).quantizedGapNs(kViolatedGapTargetNs),
                2.5, 1e-3);
    EXPECT_NEAR(SpeedGrade(2666).quantizedGapNs(kViolatedGapTargetNs),
                3.0008, 1e-3);
    EXPECT_NEAR(SpeedGrade(3200).quantizedGapNs(kViolatedGapTargetNs),
                2.5, 1e-9);
}

TEST(SpeedGrade, ZeroRateRejectedAtConfigLoad)
{
    // Every timing conversion (and the host-copy bandwidth model)
    // divides by the data rate; a zero rate must fail at config
    // load, not as a downstream division by zero.
    EXPECT_THROW(SpeedGrade(0), std::invalid_argument);
}

TEST(SpeedGrade, HostCopyBandwidthIsPositive)
{
    // x64 DIMM: 8 bytes per transfer; 2666 MT/s -> 21.328 bytes/ns.
    EXPECT_NEAR(SpeedGrade(2666).bytesPerNs(), 21.328, 1e-9);
    EXPECT_GT(SpeedGrade(1).bytesPerNs(), 0.0);
}

TEST(TimingParams, NominalSanity)
{
    const TimingParams timing = TimingParams::nominal();
    EXPECT_GT(timing.tRas, timing.tRp);
    EXPECT_GT(timing.tRp, timing.glitchThreshold);
    EXPECT_GT(timing.fracThreshold, timing.glitchThreshold);
    // The CPU-baseline fixed cost lives in the timing config, not as
    // a magic constant in the PuD engine.
    EXPECT_GT(timing.hostCopyOverheadNs, 0.0);
}

TEST(ChipProfile, SimraCapabilityPerManufacturer)
{
    const auto hynix =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2666);
    EXPECT_EQ(hynix.maxSimraRows(), 32);
    EXPECT_EQ(hynix.maxSimraInputs(), 16);

    // 8Gb M-die: 3 latch stages bound the group at 16 rows.
    const auto hynix8m =
        ChipProfile::make(Manufacturer::SkHynix, 8, 'M', 8, 2666);
    EXPECT_EQ(hynix8m.maxSimraRows(), 16);
    EXPECT_EQ(hynix8m.maxSimraInputs(), 8);

    // Samsung: pair activation only — no many-row groups.
    const auto samsung =
        ChipProfile::make(Manufacturer::Samsung, 8, 'A', 8, 2666);
    EXPECT_EQ(samsung.maxSimraRows(), 2);

    // Micron ignores violated commands entirely.
    const auto micron =
        ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666);
    EXPECT_EQ(micron.maxSimraRows(), 0);
}

TEST(ChipProfile, SkHynixCapabilities)
{
    const auto profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666);
    EXPECT_TRUE(profile.supportsNot());
    EXPECT_TRUE(profile.supportsLogicOps());
    EXPECT_EQ(profile.maxLogicInputs(), 16);
    EXPECT_TRUE(profile.decoder.supportsN2N);
}

TEST(ChipProfile, SkHynix8GbMDieLimitedTo8Inputs)
{
    // Paper footnote 12: the 8Gb M-die supports only 8:8 activation.
    const auto profile =
        ChipProfile::make(Manufacturer::SkHynix, 8, 'M', 4, 2666);
    EXPECT_EQ(profile.maxLogicInputs(), 8);
}

TEST(ChipProfile, SamsungSequentialOnly)
{
    const auto profile =
        ChipProfile::make(Manufacturer::Samsung, 8, 'D', 8, 2133);
    EXPECT_TRUE(profile.supportsNot());
    EXPECT_FALSE(profile.supportsLogicOps());
    EXPECT_EQ(profile.maxLogicInputs(), 0);
    EXPECT_TRUE(profile.decoder.sequentialNeighborOnly);
}

TEST(ChipProfile, MicronNoOperations)
{
    const auto profile =
        ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666);
    EXPECT_FALSE(profile.supportsNot());
    EXPECT_FALSE(profile.supportsLogicOps());
    EXPECT_TRUE(profile.decoder.ignoresViolatedCommands);
}

TEST(ChipProfile, LabelRendering)
{
    const auto profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
    EXPECT_EQ(profile.label(), "SK Hynix 4Gb A-die x8 2133MT/s");
}

TEST(ChipProfile, DieRevisionsDiffer)
{
    const auto a = ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8,
                                     2133);
    const auto m = ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8,
                                     2666);
    // A-die is the stronger logic design at 4Gb (Obs. 19).
    EXPECT_GT(a.analog.logicBias, m.analog.logicBias);
}

TEST(Fleet, Table1Counts)
{
    const auto fleet = table1Fleet();
    EXPECT_EQ(fleet.size(), 9u); // Nine rows in Table 1.
    EXPECT_EQ(totalModules(fleet), 22);
    EXPECT_EQ(totalChips(fleet), 256);
}

TEST(Fleet, FullFleetIncludesMicron)
{
    const auto fleet = fullFleet();
    EXPECT_EQ(totalModules(fleet), 28);
    EXPECT_EQ(totalChips(fleet), 280);
    bool has_micron = false;
    for (const auto &spec : fleet)
        has_micron |= spec.manufacturer == Manufacturer::Micron;
    EXPECT_TRUE(has_micron);
}

TEST(Fleet, ChipsPerModuleConsistent)
{
    for (const auto &spec : table1Fleet()) {
        EXPECT_EQ(spec.chipsPerModule() * spec.numModules,
                  spec.numChips);
        // x4 modules carry more chips than x8.
        if (spec.organization == 4) {
            EXPECT_EQ(spec.chipsPerModule(), 32);
        }
    }
}

TEST(Fleet, ProfilesMatchSpecs)
{
    for (const auto &spec : table1Fleet()) {
        const ChipProfile profile = spec.profile();
        EXPECT_EQ(profile.manufacturer, spec.manufacturer);
        EXPECT_EQ(profile.densityGbit, spec.densityGbit);
        EXPECT_EQ(profile.dieRevision, spec.dieRevision);
        EXPECT_EQ(profile.speed.mtPerSec(), spec.speedMt);
    }
}

TEST(Types, ToStringCoverage)
{
    EXPECT_STREQ(toString(Manufacturer::SkHynix), "SK Hynix");
    EXPECT_STREQ(toString(BoolOp::Nand), "NAND");
    EXPECT_STREQ(toString(BoolOp::Maj5), "MAJ5");
    EXPECT_STREQ(toString(Region::Middle), "Middle");
    EXPECT_TRUE(isInvertedOp(BoolOp::Not));
    EXPECT_TRUE(isInvertedOp(BoolOp::Nor));
    EXPECT_FALSE(isInvertedOp(BoolOp::And));
    EXPECT_FALSE(isInvertedOp(BoolOp::Maj5));
}

} // namespace
} // namespace fcdram
