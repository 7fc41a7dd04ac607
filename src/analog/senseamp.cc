#include "analog/senseamp.hh"

#include <cmath>

#include "common/mathutil.hh"
#include "common/rng.hh"

namespace fcdram {

SenseAmpModel::SenseAmpModel(const AnalogParams &params)
    : params_(params), noiseSigma_(params.senseNoiseSigma)
{
}

double
SenseAmpModel::successProbability(Volt margin) const
{
    return normalCdf(margin / noiseSigma_);
}

bool
SenseAmpModel::sampleAt(Volt margin, std::uint64_t noiseKey) const
{
    return margin + noiseSigma_ * gaussianFromHash(noiseKey) > 0.0;
}

Volt
SenseAmpModel::commonModePenalty(Volt terminalA, Volt terminalB) const
{
    const Volt common_mode = 0.5 * (terminalA + terminalB);
    return params_.commonModePenalty * std::abs(common_mode - kVddHalf);
}

} // namespace fcdram
