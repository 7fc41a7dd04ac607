/**
 * @file
 * Sense-amplifier comparator model.
 *
 * The sense amplifier compares the voltages on its two terminals and
 * amplifies the difference to full rail. Its reliability is governed
 * by the signed margin between the terminals, a static offset
 * (process variation), and per-trial thermal noise.
 */

#ifndef FCDRAM_ANALOG_SENSEAMP_HH
#define FCDRAM_ANALOG_SENSEAMP_HH

#include <cstdint>

#include "common/types.hh"
#include "config/chipprofile.hh"

namespace fcdram {

/**
 * Stateless sense-amp decision helpers shared by the Monte-Carlo
 * executor and the analytic success model.
 */
class SenseAmpModel
{
  public:
    explicit SenseAmpModel(const AnalogParams &params);

    /**
     * Probability that a sensing/drive event with the given signed
     * @p margin (V, already including static offsets) completes
     * correctly, given per-trial Gaussian noise.
     */
    double successProbability(Volt margin) const;

    /**
     * Sample one sensing/drive event: true = correct outcome. The
     * per-trial noise is a pure function of @p noiseKey (see
     * cellNoiseKey), so the outcome is independent of evaluation
     * order.
     *
     * @param margin Signed margin (V) including static offsets.
     */
    bool sampleAt(Volt margin, std::uint64_t noiseKey) const;

    /**
     * Common-mode penalty (V): sensing degrades as the terminal
     * common-mode voltage departs from the precharge midpoint
     * (responsible for the all-1s/one-0 worst cases, Obs. 14).
     */
    Volt commonModePenalty(Volt terminalA, Volt terminalB) const;

    /** Per-trial noise sigma (V), after any noise scaling. */
    Volt noiseSigma() const { return noiseSigma_; }

  private:
    AnalogParams params_;
    Volt noiseSigma_;
};

} // namespace fcdram

#endif // FCDRAM_ANALOG_SENSEAMP_HH
