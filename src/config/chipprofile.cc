#include "config/chipprofile.hh"

#include <algorithm>
#include <sstream>

namespace fcdram {

const char *
toString(Region region)
{
    switch (region) {
      case Region::Close: return "Close";
      case Region::Middle: return "Middle";
      case Region::Far: return "Far";
    }
    return "Unknown";
}

std::string
ChipProfile::label() const
{
    std::ostringstream oss;
    oss << toString(manufacturer) << " " << densityGbit << "Gb "
        << dieRevision << "-die x" << organization << " "
        << speed.mtPerSec() << "MT/s";
    return oss.str();
}

bool
ChipProfile::supportsNot() const
{
    return decoder.simultaneousNeighbor || decoder.sequentialNeighborOnly;
}

bool
ChipProfile::supportsLogicOps() const
{
    return decoder.simultaneousNeighbor;
}

int
ChipProfile::maxLogicInputs() const
{
    if (!supportsLogicOps())
        return 0;
    return 1 << decoder.latchStages;
}

int
ChipProfile::maxSimraRows() const
{
    if (decoder.ignoresViolatedCommands)
        return 0;
    const int stageLimit = 1 << (decoder.latchStages + 1);
    return std::min(decoder.maxSameSubarrayRows, stageLimit);
}

int
ChipProfile::maxSimraInputs() const
{
    return maxSimraRows() / 2;
}

namespace {

/**
 * Die-revision and density dependent scaling, calibrated against
 * Observations 9 and 19:
 *  - SK Hynix 4Gb: A-die has stronger logic margins; M-die 2-input
 *    AND averages drop substantially (Obs. 19).
 *  - SK Hynix 8Gb: M-die NOT is ~8% better than A-die (Obs. 9) and
 *    marginally better at logic (Obs. 19); M-die supports only up to
 *    8:8 activation (paper footnote 12).
 *  - Samsung: D-die NOT is ~11% below A-die (Obs. 9).
 */
void
applyDieScaling(ChipProfile &profile)
{
    auto &analog = profile.analog;
    auto &decoder = profile.decoder;
    auto scale_noise = [&analog](double factor) {
        analog.senseNoiseSigma *= factor;
        analog.saOffsetSigma *= factor;
        analog.cellOffsetSigma *= factor;
    };
    switch (profile.manufacturer) {
      case Manufacturer::SkHynix:
        if (profile.densityGbit == 4) {
            if (profile.dieRevision == 'A') {
                analog.marginScale = 1.05;
                analog.logicBias = 0.022;
                analog.driveMargin0 = 0.29;
            } else { // M-die: weaker logic margins, supports N:2N.
                analog.marginScale = 0.98;
                analog.logicBias = -0.012;
                scale_noise(1.15);
                analog.driveMargin0 = 0.30;
                decoder.supportsN2N = true;
            }
        } else { // 8 Gb
            if (profile.dieRevision == 'A') {
                analog.marginScale = 0.97;
                analog.logicBias = 0.002;
                scale_noise(1.35);
                analog.driveMargin0 = 0.255;
            } else { // M-die: stronger NOT, only 8:8 activation.
                analog.marginScale = 1.00;
                analog.logicBias = 0.008;
                analog.driveMargin0 = 0.30;
                decoder.latchStages = 3;
            }
        }
        break;
      case Manufacturer::Samsung:
        decoder.simultaneousNeighbor = false;
        decoder.sequentialNeighborOnly = true;
        decoder.supportsN2N = false;
        // Pair activation (Frac/RowClone) works, but the higher
        // decoder stages do not latch: no many-row SiMRA groups.
        decoder.maxSameSubarrayRows = 2;
        if (profile.dieRevision == 'A') {
            analog.marginScale = 1.02;
        } else if (profile.dieRevision == 'D') {
            analog.marginScale = 0.80;
            scale_noise(1.9);
        } else { // F-die
            analog.marginScale = 0.92;
            scale_noise(1.3);
        }
        break;
      case Manufacturer::Micron:
        decoder.simultaneousNeighbor = false;
        decoder.sequentialNeighborOnly = false;
        decoder.ignoresViolatedCommands = true;
        break;
    }
}

} // namespace

ChipProfile
ChipProfile::make(Manufacturer mfr, int densityGbit, char dieRevision,
                  int organization, std::uint32_t speedMt)
{
    ChipProfile profile;
    profile.manufacturer = mfr;
    profile.densityGbit = densityGbit;
    profile.dieRevision = dieRevision;
    profile.organization = organization;
    profile.speed = SpeedGrade(speedMt);
    applyDieScaling(profile);
    return profile;
}

} // namespace fcdram
