#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fcdram/campaign.hh"
#include "fcdram/reliablemask.hh"
#include "fcdram/ops.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

/**
 * Campaign tests run the scaled-down test configuration; they check
 * the *shape* facts the paper reports rather than absolute values.
 */
class CampaignFixture : public ::testing::Test
{
  protected:
    CampaignFixture() : campaign_(CampaignConfig::forTests()) {}

    Campaign campaign_;
};

TEST_F(CampaignFixture, FleetFilters)
{
    const FleetSession &session = *campaign_.session();
    EXPECT_EQ(session.specs(FleetSession::Fleet::SkHynix).size(), 6u);
    EXPECT_EQ(session.specs(FleetSession::Fleet::Table1).size(), 9u);
}

TEST_F(CampaignFixture, ActivationCoverageShapes)
{
    const auto coverage = campaign_.activationCoverage();
    ASSERT_FALSE(coverage.empty());
    // N:N types up to 16:16 exist; 8:8 and 16:16 dominate 1:1.
    ASSERT_TRUE(coverage.count("8:8"));
    ASSERT_TRUE(coverage.count("16:16"));
    if (coverage.count("1:1")) {
        EXPECT_GT(coverage.at("8:8").mean(),
                  coverage.at("1:1").mean());
    }
    // N:2N appears (the 4Gb M-die modules support it).
    EXPECT_TRUE(coverage.count("8:16") || coverage.count("16:32") ||
                coverage.count("4:8"));
}

TEST_F(CampaignFixture, NotSuccessDecreasesWithDestRows)
{
    const auto result = campaign_.notVsDestRows();
    ASSERT_TRUE(result.count(1));
    ASSERT_TRUE(result.count(32));
    // Obs. 4: success falls sharply as destinations grow.
    EXPECT_GT(result.at(1).mean(), 90.0);
    EXPECT_LT(result.at(32).mean(), 40.0);
    EXPECT_GT(result.at(1).mean(), result.at(8).mean());
    EXPECT_GT(result.at(8).mean(), result.at(32).mean());
}

TEST_F(CampaignFixture, SomeCellsArePerfect)
{
    // Obs. 3: at every tested destination-row count some cell reaches
    // a 100% success rate.
    const auto result = campaign_.notVsDestRows();
    for (const int dest : {1, 2, 4}) {
        ASSERT_TRUE(result.count(dest));
        EXPECT_DOUBLE_EQ(result.at(dest).max(), 100.0);
    }
}

TEST_F(CampaignFixture, N2NBeatsNNAtMatchedDestinations)
{
    // Obs. 5 at matched destination count: 4:8 beats 8:8.
    const auto by_type = campaign_.notVsActivationType();
    if (by_type.count("4:8") && by_type.count("8:8")) {
        EXPECT_GT(by_type.at("4:8").mean(), by_type.at("8:8").mean());
    } else {
        GTEST_SKIP() << "sampled pairs missed a type";
    }
}

TEST_F(CampaignFixture, RegionHeatmapWorstCorner)
{
    const RegionHeatmap heatmap = campaign_.notRegionHeatmap();
    const int far = static_cast<int>(Region::Far);
    const int close = static_cast<int>(Region::Close);
    const int middle = static_cast<int>(Region::Middle);
    // Obs. 6: Far sources with Close destinations are the worst;
    // Middle sources with Far destinations the best, by a wide margin.
    EXPECT_LT(heatmap[far][close] + 20.0, heatmap[middle][far]);
    EXPECT_LT(heatmap[far][close], 60.0);
}

TEST_F(CampaignFixture, TemperatureEffectIsSmall)
{
    const auto by_temp = campaign_.notVsTemperature({50, 95});
    for (const auto &[dest, temps] : by_temp) {
        if (!temps.count(50) || !temps.count(95))
            continue;
        // Obs. 7: at most a couple of percent across 45 C, measured
        // on >90% cells.
        EXPECT_LT(std::abs(temps.at(50) - temps.at(95)), 5.0)
            << "dest=" << dest;
    }
}

TEST_F(CampaignFixture, NotTemperatureSweepReusesBaselineExactly)
{
    // The 50 C entry reuses the baseline samples; every entry must
    // equal a sweep of that temperature alone.
    const auto both = campaign_.notVsTemperature({50, 95});
    const auto cold = campaign_.notVsTemperature({50});
    const auto hot = campaign_.notVsTemperature({95});
    ASSERT_FALSE(both.empty());
    ASSERT_EQ(both.size(), cold.size());
    ASSERT_EQ(both.size(), hot.size());
    bool temperature_matters = false;
    for (const auto &[dest, temps] : both) {
        ASSERT_EQ(temps.size(), 2u) << "dest=" << dest;
        EXPECT_EQ(temps.at(50), cold.at(dest).at(50)) << "dest=" << dest;
        EXPECT_EQ(temps.at(95), hot.at(dest).at(95)) << "dest=" << dest;
        temperature_matters |= temps.at(50) != temps.at(95);
    }
    // The 95 C entry is not the baseline reused.
    EXPECT_TRUE(temperature_matters);
}

TEST_F(CampaignFixture, LogicTemperatureSweepReusesBaselineExactly)
{
    const auto both = campaign_.logicVsTemperature({50, 95});
    const auto cold = campaign_.logicVsTemperature({50});
    const auto hot = campaign_.logicVsTemperature({95});
    ASSERT_FALSE(both.empty());
    ASSERT_EQ(both.size(), cold.size());
    ASSERT_EQ(both.size(), hot.size());
    bool temperature_matters = false;
    for (const auto &[op, by_inputs] : both) {
        ASSERT_EQ(by_inputs.size(), cold.at(op).size());
        ASSERT_EQ(by_inputs.size(), hot.at(op).size());
        for (const auto &[inputs, temps] : by_inputs) {
            ASSERT_EQ(temps.size(), 2u) << "inputs=" << inputs;
            EXPECT_EQ(temps.at(50), cold.at(op).at(inputs).at(50))
                << "inputs=" << inputs;
            EXPECT_EQ(temps.at(95), hot.at(op).at(inputs).at(95))
                << "inputs=" << inputs;
            temperature_matters |= temps.at(50) != temps.at(95);
        }
    }
    EXPECT_TRUE(temperature_matters);
}

using test::expectSame;

TEST(CampaignMemoTest, WarmLogicFiguresMatchColdSessions)
{
    // Fig. 15 fills the session's baseline logic memo; Figs. 17-21
    // then read it. Each must return exactly what it returns on a
    // fresh session, at one worker and at four (the concurrent fill).
    for (const int workers : {1, 4}) {
        CampaignConfig config = CampaignConfig::forTests();
        config.workers = workers;
        const std::vector<int> temperatures = {50, 95};
        Campaign warm(config);
        warm.logicVsInputs();
        const FleetSession::CacheStats filled =
            warm.session()->cacheStats();
        ASSERT_GT(filled.logicLookups, 0u);

        expectSame(warm.logicRegionHeatmap(),
                   Campaign(config).logicRegionHeatmap());
        expectSame(warm.logicDataPattern(),
                   Campaign(config).logicDataPattern());
        expectSame(warm.logicVsTemperature(temperatures),
                   Campaign(config).logicVsTemperature(temperatures));
        expectSame(warm.logicVsSpeed(), Campaign(config).logicVsSpeed());
        expectSame(warm.logicByDie(), Campaign(config).logicByDie());

        // Each warm figure looks up exactly Fig. 15's keys, all hits.
        const FleetSession::CacheStats stats =
            warm.session()->cacheStats();
        EXPECT_EQ(stats.logicLookups, 6 * filled.logicLookups)
            << "workers=" << workers;
        EXPECT_EQ(stats.logicHits - filled.logicHits,
                  5 * filled.logicLookups)
            << "workers=" << workers;
    }
}

// ---- Reference figure loops ---------------------------------------------
//
// Test-local copies of the per-module figure loops that Figs. 5, 9,
// 10, 16, 17 and 19 ran before they moved to per-context tasks, one-
// pass sweeps and running means: one formatted label per probe, a full
// sweep per temperature followed by the >90% filter, one logicSamples
// call per ones-count, and SampleSet buckets averaged at the end. The
// production figures must match them bit for bit.

using View = FleetSession::ModuleView;
using Fleet = FleetSession::Fleet;

constexpr int kReferenceDestRows[] = {1, 2, 4, 8, 16, 32};
constexpr int kReferenceInputs[] = {2, 4, 8, 16};
constexpr BoolOp kReferenceOps[] = {BoolOp::And, BoolOp::Nand,
                                    BoolOp::Or, BoolOp::Nor};

std::map<std::string, SampleSet>
referenceActivationCoverage(const FleetSession &session)
{
    using Accum = std::map<std::string, SampleSet>;
    return session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &coverage) {
            const auto rows =
                static_cast<RowId>(m.chip.geometry().rowsPerSubarray);
            for (const PairContext &context : m.contexts) {
                std::map<std::string, std::uint64_t> counts;
                Rng rng(hashCombine(m.seed, 0xC0FEULL + context.bank +
                                                context.lowSubarray));
                const int probes = session.config().probesPerPair;
                for (int i = 0; i < probes; ++i) {
                    const auto rf = static_cast<RowId>(rng.below(rows));
                    const auto rl = static_cast<RowId>(rng.below(rows));
                    const ActivationSets sets =
                        m.chip.decoder().neighborActivation(rf, rl);
                    if (!sets.simultaneous)
                        continue;
                    std::ostringstream oss;
                    oss << sets.nrf() << ":" << sets.nrl();
                    ++counts[oss.str()];
                }
                static const char *kKnownTypes[] = {
                    "1:1", "1:2", "2:2", "2:4", "4:4",
                    "4:8", "8:8", "8:16", "16:16", "16:32"};
                for (const char *type : kKnownTypes) {
                    const auto it = counts.find(type);
                    const double count =
                        it == counts.end()
                            ? 0.0
                            : static_cast<double>(it->second);
                    coverage[type].add(100.0 * count /
                                       static_cast<double>(probes));
                    if (it != counts.end())
                        counts.erase(it);
                }
                for (const auto &[type, count] : counts) {
                    coverage[type].add(100.0 *
                                       static_cast<double>(count) /
                                       static_cast<double>(probes));
                }
            }
        });
}

/** fn(context, dest, src, dst) over a module's simultaneous NOT pairs. */
template <class Fn>
void
referenceNotPairs(const FleetSession &session, const View &m, Fn &&fn)
{
    for (const PairContext &context : m.contexts) {
        for (const int dest : kReferenceDestRows) {
            for (const auto &[src, dst] : session.qualifyingPairs(
                     m.module, context,
                     PairQuery::simultaneousWithDest(dest)))
                fn(context, dest, src, dst);
        }
    }
}

/** fn(context, inputs, ref, com) over a module's N:N logic pairs. */
template <class Fn>
void
referenceSquarePairs(const FleetSession &session, const View &m, Fn &&fn)
{
    for (const PairContext &context : m.contexts) {
        for (const int inputs : kReferenceInputs) {
            if (inputs > m.chip.profile().maxLogicInputs())
                continue;
            for (const auto &[ref, com] : session.qualifyingPairs(
                     m.module, context, PairQuery::square(inputs)))
                fn(context, inputs, ref, com);
        }
    }
}

RegionHeatmap
referenceNotRegionHeatmap(const FleetSession &session)
{
    using Accum = std::array<std::array<SampleSet, 3>, 3>;
    const Accum buckets = session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            const AnalyticAnalyzer analyzer(m.chip,
                                            session.config().analytic);
            referenceNotPairs(session, m, [&](const PairContext &context,
                                              int, RowId src, RowId dst) {
                for (const CellSample &sample : analyzer.notSamples(
                         context.bank, src, dst, OpConditions())) {
                    out[static_cast<int>(sample.otherRegion)]
                       [static_cast<int>(sample.ownRegion)]
                           .add(100.0 * sample.probability);
                }
            });
        });
    RegionHeatmap heatmap{};
    for (int s = 0; s < 3; ++s)
        for (int d = 0; d < 3; ++d)
            heatmap[s][d] =
                buckets[s][d].empty() ? 0.0 : buckets[s][d].mean();
    return heatmap;
}

std::map<int, std::map<int, double>>
referenceNotVsTemperature(const FleetSession &session,
                          const std::vector<int> &temperatures)
{
    using Accum = std::map<int, std::map<int, SampleSet>>;
    const Accum buckets = session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            const AnalyticAnalyzer analyzer(m.chip,
                                            session.config().analytic);
            referenceNotPairs(session, m, [&](const PairContext &context,
                                              int dest, RowId src,
                                              RowId dst) {
                const auto base = analyzer.notSamples(context.bank, src,
                                                      dst, OpConditions());
                for (const int temp : temperatures) {
                    OpConditions cond;
                    cond.temperature = temp;
                    const auto samples =
                        analyzer.notSamples(context.bank, src, dst, cond);
                    for (std::size_t i = 0; i < samples.size(); ++i) {
                        if (base[i].probability <= 0.9)
                            continue;
                        out[dest][temp].add(100.0 *
                                            samples[i].probability);
                    }
                }
            });
        });
    std::map<int, std::map<int, double>> result;
    for (const auto &[dest, by_temp] : buckets)
        for (const auto &[temp, set] : by_temp)
            result[dest][temp] = set.empty() ? 0.0 : set.mean();
    return result;
}

std::map<int, double>
referenceLogicVsOnes(const FleetSession &session, BoolOp op,
                     int numInputs)
{
    using Accum = std::map<int, SampleSet>;
    const Accum buckets = session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps() ||
                numInputs > m.chip.profile().maxLogicInputs())
                return;
            const AnalyticAnalyzer analyzer(m.chip,
                                            session.config().analytic);
            for (const PairContext &context : m.contexts) {
                for (const auto &[ref, com] : session.qualifyingPairs(
                         m.module, context, PairQuery::square(numInputs))) {
                    for (int ones = 0; ones <= numInputs; ++ones) {
                        for (const CellSample &sample :
                             analyzer.logicSamples(
                                 context.bank, op, ref, com,
                                 OpConditions(), PatternClass::FixedOnes,
                                 ones))
                            out[ones].add(100.0 * sample.probability);
                    }
                }
            }
        });
    std::map<int, double> result;
    for (const auto &[ones, set] : buckets)
        result[ones] = set.empty() ? 0.0 : set.mean();
    return result;
}

std::map<BoolOp, RegionHeatmap>
referenceLogicRegionHeatmap(const FleetSession &session)
{
    using Accum =
        std::map<BoolOp, std::array<std::array<SampleSet, 3>, 3>>;
    const Accum buckets = session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip,
                                            session.config().analytic);
            referenceSquarePairs(session, m, [&](const PairContext &context,
                                                 int, RowId ref, RowId com) {
                for (const BoolOp op : kReferenceOps) {
                    const bool own_is_ref = isInvertedOp(op);
                    for (const CellSample &sample : analyzer.logicSamples(
                             context.bank, op, ref, com, OpConditions(),
                             PatternClass::Random)) {
                        const int own = static_cast<int>(sample.ownRegion);
                        const int other =
                            static_cast<int>(sample.otherRegion);
                        out[op][own_is_ref ? other : own]
                           [own_is_ref ? own : other]
                               .add(100.0 * sample.probability);
                    }
                }
            });
        });
    std::map<BoolOp, RegionHeatmap> result;
    for (const BoolOp op : kReferenceOps) {
        RegionHeatmap heatmap{};
        const auto it = buckets.find(op);
        for (int c = 0; c < 3; ++c) {
            for (int r = 0; r < 3; ++r) {
                heatmap[c][r] =
                    it == buckets.end() || it->second[c][r].empty()
                        ? 0.0
                        : it->second[c][r].mean();
            }
        }
        result[op] = heatmap;
    }
    return result;
}

std::map<BoolOp, std::map<int, std::map<int, double>>>
referenceLogicVsTemperature(const FleetSession &session,
                            const std::vector<int> &temperatures)
{
    using Accum =
        std::map<BoolOp, std::map<int, std::map<int, SampleSet>>>;
    const Accum buckets = session.runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip,
                                            session.config().analytic);
            referenceSquarePairs(session, m, [&](const PairContext &context,
                                                 int inputs, RowId ref,
                                                 RowId com) {
                for (const BoolOp op : kReferenceOps) {
                    const auto base = analyzer.logicSamples(
                        context.bank, op, ref, com, OpConditions(),
                        PatternClass::Random);
                    for (const int temp : temperatures) {
                        OpConditions cond;
                        cond.temperature = temp;
                        const auto samples = analyzer.logicSamples(
                            context.bank, op, ref, com, cond,
                            PatternClass::Random);
                        for (std::size_t i = 0; i < samples.size(); ++i) {
                            if (base[i].probability <= 0.9)
                                continue;
                            out[op][inputs][temp].add(
                                100.0 * samples[i].probability);
                        }
                    }
                }
            });
        });
    std::map<BoolOp, std::map<int, std::map<int, double>>> result;
    for (const auto &[op, by_inputs] : buckets)
        for (const auto &[inputs, by_temp] : by_inputs)
            for (const auto &[temp, set] : by_temp)
                result[op][inputs][temp] = set.empty() ? 0.0 : set.mean();
    return result;
}

TEST(CampaignReferenceTest, ContextFiguresMatchPerModuleReferenceLoops)
{
    const std::vector<int> temperatures = {50, 60, 95};
    for (const int workers : {1, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        CampaignConfig config = CampaignConfig::forTests();
        config.workers = workers;
        Campaign campaign(config);
        const FleetSession reference(config);

        expectSame(campaign.activationCoverage(),
                   referenceActivationCoverage(reference));
        expectSame(campaign.notRegionHeatmap(),
                   referenceNotRegionHeatmap(reference));
        expectSame(campaign.notVsTemperature(temperatures),
                   referenceNotVsTemperature(reference, temperatures));
        for (const BoolOp op : {BoolOp::And, BoolOp::Or}) {
            for (const int inputs : {4, 16}) {
                expectSame(campaign.logicVsOnes(op, inputs),
                           referenceLogicVsOnes(reference, op, inputs));
            }
        }
        expectSame(campaign.logicRegionHeatmap(),
                   referenceLogicRegionHeatmap(reference));
        expectSame(campaign.logicVsTemperature(temperatures),
                   referenceLogicVsTemperature(reference, temperatures));
    }
}

TEST(CampaignReferenceTest, RunningMeanEqualsSampleSetMean)
{
    // Magnitudes far apart make the sum depend on the order of adds,
    // so only an in-order fold from 0.0 reproduces SampleSet::mean().
    Rng rng(7);
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double scale = i % 7 == 0 ? 1e12 : (i % 3 == 0 ? 1e-6 : 1.0);
        values.push_back(scale * (rng.uniform() - 0.3));
    }
    SampleSet set;
    for (const double value : values)
        set.add(value);

    // Uneven partials folded in order, as the fan-out folds them.
    RunningMean folded;
    std::size_t at = 0;
    for (const std::size_t chunk : {0u, 1u, 999u, 37u, 2500u, 463u, 1000u}) {
        RunningMean partial;
        for (std::size_t i = 0; i < chunk; ++i)
            partial.add(values[at++]);
        FleetSession::mergeAccum(folded, std::move(partial));
        EXPECT_TRUE(partial.empty());
    }
    ASSERT_EQ(at, values.size());
    EXPECT_EQ(folded.count(), set.count());
    expectSame(folded.mean(), set.mean());

    // An unfolded accumulator averages its own buffer the same way.
    RunningMean buffered;
    for (const double value : values)
        buffered.add(value);
    expectSame(buffered.mean(), set.mean());
}

TEST_F(CampaignFixture, LogicByDieLabelsOnlyMeasuredModules)
{
    // The label is built once per module, but a key is added only
    // with its first sample: every label carries all four ops.
    const auto by_die = campaign_.logicByDie();
    ASSERT_FALSE(by_die.empty());
    for (const auto &[label, by_op] : by_die) {
        EXPECT_EQ(label.rfind("SKHynix-", 0), 0u) << label;
        ASSERT_EQ(by_op.size(), 4u) << label;
        for (const auto &[op, set] : by_op)
            EXPECT_FALSE(set.empty()) << label << " " << toString(op);
    }
}

TEST_F(CampaignFixture, SpeedDipAt2400)
{
    const auto by_speed = campaign_.notVsSpeed();
    ASSERT_TRUE(by_speed.count(2133));
    ASSERT_TRUE(by_speed.count(2400));
    ASSERT_TRUE(by_speed.count(2666));
    // Obs. 8: the 2400 MT/s modules underperform both neighbors at
    // small destination counts.
    const auto &s2133 = by_speed.at(2133);
    const auto &s2400 = by_speed.at(2400);
    const auto &s2666 = by_speed.at(2666);
    ASSERT_TRUE(s2133.count(4) && s2400.count(4) && s2666.count(4));
    EXPECT_GT(s2133.at(4).mean(), s2400.at(4).mean());
    EXPECT_GT(s2666.at(4).mean(), s2400.at(4).mean());
}

TEST_F(CampaignFixture, DieRevisionOrdering)
{
    const auto by_die = campaign_.notByDie();
    double sk8a = -1.0;
    double sk8m = -1.0;
    double samsung_a = -1.0;
    double samsung_d = -1.0;
    for (const auto &[label, set] : by_die) {
        if (label == "SKHynix-8Gb-A")
            sk8a = set.mean();
        if (label == "SKHynix-8Gb-M")
            sk8m = set.mean();
        if (label == "Samsung-8Gb-A")
            samsung_a = set.mean();
        if (label == "Samsung-8Gb-D")
            samsung_d = set.mean();
    }
    // Obs. 9: 8Gb M beats 8Gb A (SK Hynix); Samsung A beats D.
    ASSERT_GE(sk8a, 0.0);
    ASSERT_GE(sk8m, 0.0);
    EXPECT_GT(sk8m, sk8a);
    ASSERT_GE(samsung_a, 0.0);
    ASSERT_GE(samsung_d, 0.0);
    EXPECT_GT(samsung_a, samsung_d);
}

TEST_F(CampaignFixture, LogicSuccessIncreasesWithInputs)
{
    const auto result = campaign_.logicVsInputs();
    for (const BoolOp op : {BoolOp::And, BoolOp::Or}) {
        ASSERT_TRUE(result.count(op));
        const auto &by_inputs = result.at(op);
        ASSERT_TRUE(by_inputs.count(2) && by_inputs.count(16));
        // Obs. 11.
        EXPECT_GT(by_inputs.at(16).mean(), by_inputs.at(2).mean());
    }
}

TEST_F(CampaignFixture, OrBeatsAnd)
{
    const auto result = campaign_.logicVsInputs();
    // Obs. 12 at two inputs: roughly a 10-point gap.
    const double and2 = result.at(BoolOp::And).at(2).mean();
    const double or2 = result.at(BoolOp::Or).at(2).mean();
    EXPECT_GT(or2, and2 + 3.0);
    // Obs. 13: NAND tracks AND within ~2 points.
    const double nand2 = result.at(BoolOp::Nand).at(2).mean();
    EXPECT_NEAR(and2, nand2, 2.0);
}

TEST_F(CampaignFixture, OnesSweepWorstCases)
{
    // Obs. 14 for 4-input AND and OR.
    const auto and_sweep = campaign_.logicVsOnes(BoolOp::And, 4);
    ASSERT_EQ(and_sweep.size(), 5u);
    EXPECT_GT(and_sweep.at(0), and_sweep.at(4));
    EXPECT_GT(and_sweep.at(0), and_sweep.at(3));
    const auto or_sweep = campaign_.logicVsOnes(BoolOp::Or, 4);
    EXPECT_GT(or_sweep.at(4), or_sweep.at(0));
    EXPECT_GT(or_sweep.at(4), or_sweep.at(1));
}

TEST_F(CampaignFixture, DataPatternSlightlyHelps)
{
    // Obs. 16: all-1s/0s beats random, by a small margin.
    const auto result = campaign_.logicDataPattern();
    for (const BoolOp op : {BoolOp::And, BoolOp::Or}) {
        ASSERT_TRUE(result.count(op));
        for (const auto &[inputs, sets] : result.at(op)) {
            (void)inputs;
            const double fixed = sets.first.mean();
            const double random = sets.second.mean();
            EXPECT_GE(fixed, random - 0.5);
            EXPECT_LT(fixed - random, 8.0);
        }
    }
}

TEST_F(CampaignFixture, DataPatternRandomHalfEqualsFig15)
{
    // A draw is keyed by the cell it samples, so Fig. 18's random class
    // reports exactly Fig. 15's draws, whatever it samples in between.
    const auto pattern = campaign_.logicDataPattern();
    const auto inputs = campaign_.logicVsInputs();
    ASSERT_EQ(pattern.size(), inputs.size());
    for (const auto &[op, by_inputs] : inputs) {
        ASSERT_TRUE(pattern.count(op)) << toString(op);
        ASSERT_EQ(pattern.at(op).size(), by_inputs.size());
        for (const auto &[n, set] : by_inputs) {
            SCOPED_TRACE(std::string(toString(op)) + " inputs=" +
                         std::to_string(n));
            ASSERT_FALSE(set.empty());
            expectSame(pattern.at(op).at(n).second, set);
        }
    }
}

TEST_F(CampaignFixture, ReliableMaskThresholdMonotone)
{
    CampaignConfig config = CampaignConfig::forTests();
    const ChipProfile profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
    const Chip chip(profile, config.geometry, 3);
    const auto pairs = findActivationPairs(chip, 1, 1, 1, 5);
    ASSERT_FALSE(pairs.empty());
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    const ReliableMask lenient(chip, 50.0);
    const ReliableMask strict(chip, 99.9);
    const BitVector loose_mask = lenient.notMask(0, src, dst);
    const BitVector tight_mask = strict.notMask(0, src, dst);
    ASSERT_EQ(loose_mask.size(), tight_mask.size());
    // Strict mask is a subset of the lenient one.
    EXPECT_EQ(loose_mask & tight_mask, tight_mask);
    EXPECT_GE(ReliableMask::maskDensity(loose_mask),
              ReliableMask::maskDensity(tight_mask));
    // Only shared columns can ever qualify.
    EXPECT_LE(ReliableMask::maskDensity(loose_mask), 0.5 + 1e-9);
}

TEST_F(CampaignFixture, ReliableMaskLogic)
{
    CampaignConfig config = CampaignConfig::forTests();
    const Chip chip(test::idealProfile(), config.geometry, 3);
    const auto pairs = findActivationPairs(chip, 2, 2, 1, 5);
    ASSERT_FALSE(pairs.empty());
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    const ReliableMask mask(chip, 90.0);
    const BitVector logic_mask = mask.logicMask(0, BoolOp::And, ref, com);
    // The ideal chip qualifies every shared column.
    EXPECT_NEAR(ReliableMask::maskDensity(logic_mask), 0.5, 1e-9);
}

} // namespace
} // namespace fcdram
