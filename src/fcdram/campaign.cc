#include "fcdram/campaign.hh"

#include <cassert>
#include <sstream>

#include "dram/address.hh"
#include "dram/openbitline.hh"

namespace fcdram {

namespace {

/** Destination-row counts characterized by Fig. 7 and friends. */
constexpr int kDestRowCounts[] = {1, 2, 4, 8, 16, 32};

/** Input counts characterized by Fig. 15 and friends. */
constexpr int kInputCounts[] = {2, 4, 8, 16};

/** The four logic operations. */
constexpr BoolOp kLogicOps[] = {BoolOp::And, BoolOp::Nand, BoolOp::Or,
                                BoolOp::Nor};

using View = FleetSession::ModuleView;
using Fleet = FleetSession::Fleet;

/**
 * Shared inner loop of the NOT figures: visit every qualifying
 * (source, destination) pair per (context, destination-row count).
 */
template <class Fn>
void
forEachNotPair(const FleetSession &session, const View &m,
               PairQuery::Activation activation, Fn &&fn)
{
    for (const PairContext &context : m.contexts) {
        for (const int dest : kDestRowCounts) {
            const PairQuery query =
                activation == PairQuery::Activation::Any
                    ? PairQuery::anyWithDest(dest)
                    : PairQuery::simultaneousWithDest(dest);
            for (const auto &[src, dst] :
                 session.qualifyingPairs(m.module, context, query))
                fn(context, dest, src, dst);
        }
    }
}

/**
 * Shared inner loop of the logic figures: visit every qualifying N:N
 * (reference, compute) pair per (context, input count) supported by
 * the module's design.
 */
template <class Fn>
void
forEachSquarePair(const FleetSession &session, const View &m,
                  Fn &&fn)
{
    for (const PairContext &context : m.contexts) {
        for (const int inputs : kInputCounts) {
            if (inputs > m.chip.profile().maxLogicInputs())
                continue;
            for (const auto &[ref, com] : session.qualifyingPairs(
                     m.module, context, PairQuery::square(inputs)))
                fn(context, inputs, ref, com);
        }
    }
}

/** One call of the baseline logic sweep, as forEachBaseline visits it. */
struct BaselineCall
{
    const PairContext &context;
    int inputs;
    RowId ref;
    RowId com;
    BoolOp op;
    const LogicBaseline &base;
};

/**
 * Shared inner loop of the logic figures that read the baseline sweep:
 * visit the session's memoized baseline of every logic op on every
 * qualifying N:N pair. Calls without cells are skipped; they add
 * nothing to any of these figures.
 */
template <class Fn>
void
forEachBaseline(const FleetSession &session, const View &m, Fn &&fn)
{
    forEachSquarePair(
        session, m,
        [&](const PairContext &context, int inputs, RowId ref, RowId com) {
            for (const BoolOp op : kLogicOps) {
                const LogicBaseline &base = session.logicBaseline(
                    m.module, context.bank, op, ref, com);
                if (!base.probability.empty())
                    fn(BaselineCall{context, inputs, ref, com, op, base});
            }
        });
}

/** Append each baseline cell to @p bucket as a (sampled) percentage. */
void
addPercents(AnalyticAnalyzer &analyzer, const LogicBaseline &base,
            SampleSet &bucket)
{
    for (const double probability : base.probability)
        bucket.add(analyzer.toPercent(probability));
}

} // namespace

std::string
dieLabel(const ModuleSpec &spec)
{
    std::ostringstream oss;
    oss << (spec.manufacturer == Manufacturer::SkHynix ? "SKHynix"
            : spec.manufacturer == Manufacturer::Samsung ? "Samsung"
                                                         : "Micron")
        << "-" << spec.densityGbit << "Gb-" << spec.dieRevision;
    return oss.str();
}

Campaign::Campaign(const CampaignConfig &config)
    : session_(std::make_shared<FleetSession>(config))
{
}

Campaign::Campaign(std::shared_ptr<FleetSession> session)
    : session_(std::move(session))
{
    assert(session_ != nullptr);
}

const std::vector<ModuleSpec> &
Campaign::skHynixFleet() const
{
    return session_->specs(Fleet::SkHynix);
}

const std::vector<ModuleSpec> &
Campaign::table1() const
{
    return session_->specs(Fleet::Table1);
}

std::map<std::string, SampleSet>
Campaign::activationCoverage()
{
    using Accum = std::map<std::string, SampleSet>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &coverage) {
            const GeometryConfig &geometry = m.chip.geometry();
            const auto rows =
                static_cast<RowId>(geometry.rowsPerSubarray);
            for (const PairContext &context : m.contexts) {
                std::map<std::string, std::uint64_t> counts;
                Rng rng(hashCombine(m.seed, 0xC0FEULL + context.bank +
                                                context.lowSubarray));
                const int probes = config().probesPerPair;
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
                // Every known activation type contributes a sample per
                // (module, subarray pair) context, including zero
                // coverage; otherwise modules lacking a capability
                // (e.g. N:2N) would be silently dropped from its
                // distribution.
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

std::map<int, SampleSet>
Campaign::notVsDestRows(const OpConditions &cond)
{
    using Accum = std::map<int, SampleSet>;
    return session_->runOverFleet<Accum>(
        Fleet::Table1, [&](const View &m, Accum &result) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachNotPair(
                *session_, m, PairQuery::Activation::Any,
                [&](const PairContext &context, int dest, RowId src,
                    RowId dst) {
                    for (const CellSample &sample : analyzer.notSamples(
                             context.bank, src, dst, cond)) {
                        result[dest].add(
                            analyzer.toPercent(sample.probability));
                    }
                });
        });
}

std::map<std::string, SampleSet>
Campaign::notVsActivationType()
{
    using Accum = std::map<std::string, SampleSet>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachNotPair(
                *session_, m, PairQuery::Activation::Simultaneous,
                [&](const PairContext &context, int, RowId src,
                    RowId dst) {
                    const GeometryConfig &geometry = m.chip.geometry();
                    const RowAddress rf = decomposeRow(geometry, src);
                    const RowAddress rl = decomposeRow(geometry, dst);
                    const ActivationSets sets =
                        m.chip.decoder().neighborActivation(
                            rf.localRow, rl.localRow);
                    std::ostringstream oss;
                    oss << sets.nrf() << ":" << sets.nrl();
                    for (const CellSample &sample : analyzer.notSamples(
                             context.bank, src, dst, OpConditions())) {
                        result[oss.str()].add(
                            analyzer.toPercent(sample.probability));
                    }
                });
        });
}

RegionHeatmap
Campaign::notRegionHeatmap()
{
    using Accum = std::array<std::array<SampleSet, 3>, 3>;
    const Accum buckets = session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachNotPair(
                *session_, m, PairQuery::Activation::Simultaneous,
                [&](const PairContext &context, int, RowId src,
                    RowId dst) {
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
            heatmap[s][d] = buckets[s][d].empty()
                                ? 0.0
                                : buckets[s][d].mean();
    return heatmap;
}

std::map<int, std::map<int, double>>
Campaign::notVsTemperature(const std::vector<int> &temperatures)
{
    using Accum = std::map<int, std::map<int, SampleSet>>;
    const Accum buckets = session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachNotPair(
                *session_, m, PairQuery::Activation::Simultaneous,
                [&](const PairContext &context, int dest, RowId src,
                    RowId dst) {
                    const OpConditions baseline;
                    const auto base = analyzer.notSamples(
                        context.bank, src, dst, baseline);
                    for (const int temp : temperatures) {
                        OpConditions cond;
                        cond.temperature = temp;
                        const auto samples =
                            cond == baseline
                                ? base
                                : analyzer.notSamples(context.bank, src,
                                                      dst, cond);
                        for (std::size_t i = 0; i < samples.size();
                             ++i) {
                            // Only cells with >90% success at the
                            // 50 C baseline are tracked (paper
                            // footnote 8).
                            if (base[i].probability <= 0.9)
                                continue;
                            out[dest][temp].add(
                                100.0 * samples[i].probability);
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

std::map<std::uint32_t, std::map<int, SampleSet>>
Campaign::notVsSpeed()
{
    using Accum = std::map<std::uint32_t, std::map<int, SampleSet>>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachNotPair(
                *session_, m, PairQuery::Activation::Simultaneous,
                [&](const PairContext &context, int dest, RowId src,
                    RowId dst) {
                    for (const CellSample &sample : analyzer.notSamples(
                             context.bank, src, dst, OpConditions())) {
                        result[m.spec.speedMt][dest].add(
                            analyzer.toPercent(sample.probability));
                    }
                });
        });
}

std::vector<std::pair<std::string, SampleSet>>
Campaign::notByDie()
{
    using Accum = std::map<std::string, SampleSet>;
    const Accum by_die = session_->runOverFleet<Accum>(
        Fleet::Table1, [&](const View &m, Accum &out) {
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            const std::string label = dieLabel(m.spec);
            for (const PairContext &context : m.contexts) {
                for (const auto &[src, dst] : session_->qualifyingPairs(
                         m.module, context, PairQuery::anyWithDest(1))) {
                    for (const CellSample &sample : analyzer.notSamples(
                             context.bank, src, dst, OpConditions())) {
                        out[label].add(
                            analyzer.toPercent(sample.probability));
                    }
                }
            }
        });
    return {by_die.begin(), by_die.end()};
}

std::map<BoolOp, std::map<int, SampleSet>>
Campaign::logicVsInputs()
{
    using Accum = std::map<BoolOp, std::map<int, SampleSet>>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachBaseline(*session_, m, [&](const BaselineCall &call) {
                addPercents(analyzer, call.base,
                            result[call.op][call.inputs]);
            });
        });
}

std::map<int, double>
Campaign::logicVsOnes(BoolOp op, int numInputs)
{
    using Accum = std::map<int, SampleSet>;
    const Accum buckets = session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps() ||
                numInputs > m.chip.profile().maxLogicInputs()) {
                return;
            }
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            for (const PairContext &context : m.contexts) {
                for (const auto &[ref, com] : session_->qualifyingPairs(
                         m.module, context,
                         PairQuery::square(numInputs))) {
                    for (int ones = 0; ones <= numInputs; ++ones) {
                        const auto samples = analyzer.logicSamples(
                            context.bank, op, ref, com, OpConditions(),
                            PatternClass::FixedOnes, ones);
                        for (const CellSample &sample : samples)
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
Campaign::logicRegionHeatmap()
{
    using Accum =
        std::map<BoolOp, std::array<std::array<SampleSet, 3>, 3>>;
    const Accum buckets = session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            forEachBaseline(*session_, m, [&](const BaselineCall &call) {
                const LogicBaseline &base = call.base;
                const int other = static_cast<int>(base.otherRegion);
                // Index convention: [compute][reference].
                const bool own_is_ref = isInvertedOp(call.op);
                for (std::size_t row = 0; row < base.rowRegion.size();
                     ++row) {
                    const int own = static_cast<int>(base.rowRegion[row]);
                    SampleSet &bucket =
                        out[call.op][own_is_ref ? other : own]
                           [own_is_ref ? own : other];
                    const std::size_t first = row * base.columnsPerRow;
                    for (std::size_t i = first;
                         i < first + base.columnsPerRow; ++i)
                        bucket.add(100.0 * base.probability[i]);
                }
            });
        });
    std::map<BoolOp, RegionHeatmap> result;
    for (const BoolOp op : kLogicOps) {
        RegionHeatmap heatmap{};
        const auto it = buckets.find(op);
        for (int c = 0; c < 3; ++c) {
            for (int r = 0; r < 3; ++r) {
                if (it == buckets.end() || it->second[c][r].empty())
                    heatmap[c][r] = 0.0;
                else
                    heatmap[c][r] = it->second[c][r].mean();
            }
        }
        result[op] = heatmap;
    }
    return result;
}

std::map<BoolOp, std::map<int, std::pair<SampleSet, SampleSet>>>
Campaign::logicDataPattern()
{
    using Accum =
        std::map<BoolOp, std::map<int, std::pair<SampleSet, SampleSet>>>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachSquarePair(
                *session_, m,
                [&](const PairContext &context, int inputs, RowId ref,
                    RowId com) {
                    for (const BoolOp op : kLogicOps) {
                        const auto fixed = analyzer.logicSamples(
                            context.bank, op, ref, com, OpConditions(),
                            PatternClass::AllOnes);
                        auto &bucket = result[op][inputs];
                        for (const CellSample &sample : fixed) {
                            bucket.first.add(
                                analyzer.toPercent(sample.probability));
                        }
                        addPercents(analyzer,
                                    session_->logicBaseline(
                                        m.module, context.bank, op, ref,
                                        com),
                                    bucket.second);
                    }
                });
        });
}

std::map<BoolOp, std::map<int, std::map<int, double>>>
Campaign::logicVsTemperature(const std::vector<int> &temperatures)
{
    using Accum =
        std::map<BoolOp, std::map<int, std::map<int, SampleSet>>>;
    const Accum buckets = session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachBaseline(*session_, m, [&](const BaselineCall &call) {
                const std::vector<double> &base = call.base.probability;
                for (const int temp : temperatures) {
                    OpConditions cond;
                    cond.temperature = temp;
                    // The 50 C entry reads the memoized baseline.
                    const bool baseline = cond == OpConditions();
                    const std::vector<CellSample> swept =
                        baseline ? std::vector<CellSample>()
                                 : analyzer.logicSamples(
                                       call.context.bank, call.op,
                                       call.ref, call.com, cond,
                                       PatternClass::Random);
                    for (std::size_t i = 0; i < base.size(); ++i) {
                        // Only cells with >90% success at the 50 C
                        // baseline are tracked (paper footnote 8).
                        if (base[i] <= 0.9)
                            continue;
                        out[call.op][call.inputs][temp].add(
                            100.0 *
                            (baseline ? base[i] : swept[i].probability));
                    }
                }
            });
        });
    std::map<BoolOp, std::map<int, std::map<int, double>>> result;
    for (const auto &[op, by_inputs] : buckets)
        for (const auto &[inputs, by_temp] : by_inputs)
            for (const auto &[temp, set] : by_temp)
                result[op][inputs][temp] =
                    set.empty() ? 0.0 : set.mean();
    return result;
}

std::map<BoolOp, std::map<std::uint32_t, std::map<int, SampleSet>>>
Campaign::logicVsSpeed()
{
    using Accum =
        std::map<BoolOp,
                 std::map<std::uint32_t, std::map<int, SampleSet>>>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            forEachBaseline(*session_, m, [&](const BaselineCall &call) {
                addPercents(analyzer, call.base,
                            result[call.op][m.spec.speedMt][call.inputs]);
            });
        });
}

std::map<std::string, std::map<BoolOp, SampleSet>>
Campaign::logicByDie()
{
    using Accum = std::map<std::string, std::map<BoolOp, SampleSet>>;
    return session_->runOverFleet<Accum>(
        Fleet::SkHynix, [&](const View &m, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            AnalyticAnalyzer analyzer(m.chip, config().analytic,
                                      m.seed);
            const std::string label = dieLabel(m.spec);
            forEachBaseline(*session_, m, [&](const BaselineCall &call) {
                addPercents(analyzer, call.base, result[label][call.op]);
            });
        });
}

} // namespace fcdram
