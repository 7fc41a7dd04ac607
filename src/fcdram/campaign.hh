/**
 * @file
 * Characterization campaign: reproduces the paper's figure
 * experiments as thin declarative specs over the FleetSession engine,
 * which owns the chips, the memoized pair discovery, and the parallel
 * scheduler. Each method aggregates per-cell success rates into the
 * distribution its figure reports.
 */

#ifndef FCDRAM_FCDRAM_CAMPAIGN_HH
#define FCDRAM_FCDRAM_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fcdram/session.hh"

namespace fcdram {

/** 3x3 (measured-side region x other-side region) heatmap of means. */
using RegionHeatmap = std::array<std::array<double, 3>, 3>;

/**
 * Experiment orchestrator. Each method reproduces one figure's data
 * by running an experiment spec over the session's fleet.
 */
class Campaign
{
  public:
    explicit Campaign(const CampaignConfig &config = CampaignConfig());

    /** Wrap an existing session; chips and discovery are shared. */
    explicit Campaign(std::shared_ptr<FleetSession> session);

    const CampaignConfig &config() const { return session_->config(); }

    /** The underlying engine (shared with other campaigns/tools). */
    const std::shared_ptr<FleetSession> &session() const
    {
        return session_;
    }

    /**
     * Fig. 5: coverage of each NRF:NRL activation type across sampled
     * (RF, RL) pairs; one coverage sample per (module, subarray pair).
     */
    std::map<std::string, SampleSet> activationCoverage();

    /** Fig. 7: NOT success-rate distribution vs destination rows. */
    std::map<int, SampleSet> notVsDestRows();

    /** Fig. 8: NOT success rate per NRF:NRL activation type. */
    std::map<std::string, SampleSet> notVsActivationType();

    /**
     * Fig. 9: NOT mean success rate per (source region, destination
     * region); indexed [src][dst].
     */
    RegionHeatmap notRegionHeatmap();

    /**
     * Fig. 10: NOT mean success rate per (destination rows,
     * temperature), restricted to cells with >90% success at 50 C.
     */
    std::map<int, std::map<int, double>>
    notVsTemperature(const std::vector<int> &temperatures);

    /** Fig. 11: NOT distribution per (speed grade, destination rows). */
    std::map<std::uint32_t, std::map<int, SampleSet>> notVsSpeed();

    /**
     * Fig. 12: NOT distribution (one destination row) per
     * density/die-revision group, both manufacturers.
     */
    std::vector<std::pair<std::string, SampleSet>> notByDie();

    /** Fig. 15: logic-op distribution per (op, input count). */
    std::map<BoolOp, std::map<int, SampleSet>> logicVsInputs();

    /**
     * Fig. 16: AND/OR mean success rate vs the number of logic-1
     * operand rows, for the given input count.
     */
    std::map<int, double> logicVsOnes(BoolOp op, int numInputs);

    /** Fig. 17: logic heatmap per op, indexed [compute][reference]. */
    std::map<BoolOp, RegionHeatmap> logicRegionHeatmap();

    /**
     * Fig. 18: per (op, input count), the all-1s/0s class vs the
     * random class distributions.
     */
    std::map<BoolOp, std::map<int, std::pair<SampleSet, SampleSet>>>
    logicDataPattern();

    /**
     * Fig. 19: logic mean success per (op, input count, temperature),
     * restricted to cells with >90% success at 50 C.
     */
    std::map<BoolOp, std::map<int, std::map<int, double>>>
    logicVsTemperature(const std::vector<int> &temperatures);

    /** Fig. 20: logic distribution per (op, speed grade, inputs). */
    std::map<BoolOp,
             std::map<std::uint32_t, std::map<int, SampleSet>>>
    logicVsSpeed();

    /**
     * Fig. 21: logic distribution per (density/die label, op),
     * aggregated over the supported input counts.
     */
    std::map<std::string, std::map<BoolOp, SampleSet>> logicByDie();

  private:
    std::shared_ptr<FleetSession> session_;
};

/** Short label like "SKHynix-4Gb-M" for grouping by die. */
std::string dieLabel(const ModuleSpec &spec);

} // namespace fcdram

#endif // FCDRAM_FCDRAM_CAMPAIGN_HH
