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
 * Shared inner loop of the NOT figures: fn(dest, src, dst) for every
 * qualifying (source, destination) pair of one context per
 * destination-row count.
 */
template <class Fn>
void
forEachNotPair(const FleetSession &session, const View &m,
               const PairContext &context,
               PairQuery::Activation activation, Fn &&fn)
{
    for (const int dest : kDestRowCounts) {
        const PairQuery query =
            activation == PairQuery::Activation::Any
                ? PairQuery::anyWithDest(dest)
                : PairQuery::simultaneousWithDest(dest);
        for (const auto &[src, dst] :
             session.qualifyingPairs(m.module, context, query))
            fn(dest, src, dst);
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

    /** drawKey of the call's cells under @p pattern. */
    std::uint64_t drawKey(const AnalyticAnalyzer &analyzer,
                          PatternClass pattern = PatternClass::Random) const
    {
        return analyzer.drawKey(context.bank, op, ref, com, pattern);
    }
};

/**
 * Shared inner loop of the logic figures: visit the session's memoized
 * baseline of every logic op on every qualifying N:N (reference,
 * compute) pair of one context, per input count the module's design
 * supports. Calls without cells are skipped; they add nothing to any
 * of these figures.
 */
template <class Fn>
void
forEachBaseline(const FleetSession &session, const View &m,
                const PairContext &context, Fn &&fn)
{
    for (const int inputs : kInputCounts) {
        if (inputs > m.chip.profile().maxLogicInputs())
            continue;
        for (const auto &[ref, com] : session.qualifyingPairs(
                 m.module, context, PairQuery::square(inputs))) {
            for (const BoolOp op : kLogicOps) {
                const LogicBaseline &base = session.logicBaseline(
                    m.module, context.bank, op, ref, com);
                if (!base.probability.empty())
                    fn(BaselineCall{context, inputs, ref, com, op, base});
            }
        }
    }
}

/**
 * Append each of one call's cell probabilities to @p bucket as a
 * (sampled) percentage; @p key is the call's drawKey.
 */
void
addPercents(const AnalyticAnalyzer &analyzer, std::uint64_t key,
            const std::vector<double> &probabilities, SampleSet &bucket)
{
    for (std::size_t i = 0; i < probabilities.size(); ++i)
        bucket.add(analyzer.toPercent(probabilities[i],
                                      hashCombine(key, i)));
}

/** One call's baseline NOT probabilities, in notSamples order. */
std::vector<double>
notBaseline(const AnalyticAnalyzer &analyzer, BankId bank, RowId src,
            RowId dst)
{
    return analyzer.notSweep(bank, src, dst, {OpConditions()}).front();
}

/** "nrf:nrl" label of an activation type, as Figs. 5 and 8 key it. */
std::string
activationLabel(int nrf, int nrl)
{
    return std::to_string(nrf) + ":" + std::to_string(nrl);
}

/**
 * The temperature sweep of Figs. 10 and 19. Only cells with >90%
 * success at the 50 C baseline are tracked (paper footnote 8), so
 * only they are swept, and only at the other temperatures; the 50 C
 * entry reads the baseline itself.
 */
template <class Variant>
class TemperatureSweep
{
  public:
    explicit TemperatureSweep(const std::vector<int> &temperatures)
        : temperatures_(temperatures),
          variantOf_(temperatures.size(), -1)
    {
        for (std::size_t t = 0; t < temperatures.size(); ++t) {
            OpConditions cond;
            cond.temperature = temperatures[t];
            if (cond == OpConditions())
                continue;
            variantOf_[t] = static_cast<int>(variants_.size());
            variants_.push_back(Variant{cond});
        }
    }

    /**
     * Add one call whose baseline probabilities are @p base, in cell
     * order: sweep(variants, keep) evaluates the kept cells at the
     * other temperatures, and mean(temperature) is the accumulator of
     * each temperature, asked for only when it gets values.
     */
    template <class Sweep, class Mean>
    void add(const std::vector<double> &base, Sweep &&sweep,
             Mean &&mean) const
    {
        std::vector<bool> keep(base.size());
        bool any = false;
        for (std::size_t i = 0; i < base.size(); ++i) {
            keep[i] = base[i] > 0.9;
            any = any || keep[i];
        }
        if (!any)
            return;
        const std::vector<std::vector<double>> swept =
            sweep(variants_, keep);
        for (std::size_t t = 0; t < temperatures_.size(); ++t) {
            RunningMean &bucket = mean(temperatures_[t]);
            if (variantOf_[t] >= 0) {
                for (const double probability :
                     swept[static_cast<std::size_t>(variantOf_[t])])
                    bucket.add(100.0 * probability);
                continue;
            }
            for (std::size_t i = 0; i < base.size(); ++i) {
                if (keep[i])
                    bucket.add(100.0 * base[i]);
            }
        }
    }

  private:
    std::vector<int> temperatures_;
    std::vector<int> variantOf_; ///< Index into variants_; -1 at 50 C.
    std::vector<Variant> variants_;
};

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

std::map<std::string, SampleSet>
Campaign::activationCoverage()
{
    // Every known activation type contributes a sample per (module,
    // subarray pair) context, including zero coverage; otherwise
    // modules lacking a capability (e.g. N:2N) would be silently
    // dropped from its distribution.
    static constexpr std::pair<int, int> kKnownTypes[] = {
        {1, 1}, {1, 2}, {2, 2}, {2, 4},   {4, 4},
        {4, 8}, {8, 8}, {8, 16}, {16, 16}, {16, 32}};
    using Accum = std::map<std::string, SampleSet>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &coverage) {
            const auto rows =
                static_cast<RowId>(m.chip.geometry().rowsPerSubarray);
            // Counted by (NRF, NRL); each type's label is built once.
            std::map<std::pair<int, int>, std::uint64_t> counts;
            Rng rng(hashCombine(m.seed, 0xC0FEULL + context.bank +
                                            context.lowSubarray));
            const int probes = config().probesPerPair;
            for (int i = 0; i < probes; ++i) {
                const auto rf = static_cast<RowId>(rng.below(rows));
                const auto rl = static_cast<RowId>(rng.below(rows));
                const ActivationSets sets =
                    m.chip.decoder().neighborActivation(rf, rl);
                if (sets.simultaneous)
                    ++counts[{sets.nrf(), sets.nrl()}];
            }
            const auto add = [&](const std::pair<int, int> &type,
                                 std::uint64_t count) {
                coverage[activationLabel(type.first, type.second)].add(
                    100.0 * static_cast<double>(count) /
                    static_cast<double>(probes));
            };
            for (const std::pair<int, int> &type : kKnownTypes) {
                const auto it = counts.find(type);
                if (it == counts.end()) {
                    add(type, 0);
                } else {
                    add(type, it->second);
                    counts.erase(it);
                }
            }
            for (const auto &[type, count] : counts)
                add(type, count);
        });
}

std::map<int, SampleSet>
Campaign::notVsDestRows()
{
    using Accum = std::map<int, SampleSet>;
    return session_->runOverContexts<Accum>(
        Fleet::Table1,
        [&](const View &m, const PairContext &context, Accum &result) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachNotPair(
                *session_, m, context, PairQuery::Activation::Any,
                [&](int dest, RowId src, RowId dst) {
                    addPercents(analyzer,
                                analyzer.drawKey(context.bank,
                                                 BoolOp::Not, src, dst),
                                notBaseline(analyzer, context.bank, src,
                                            dst),
                                result[dest]);
                });
        });
}

std::map<std::string, SampleSet>
Campaign::notVsActivationType()
{
    using Accum = std::map<std::string, SampleSet>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            const GeometryConfig &geometry = m.chip.geometry();
            // Each type's label is built once per context.
            std::map<std::pair<int, int>, SampleSet *> buckets;
            forEachNotPair(
                *session_, m, context, PairQuery::Activation::Simultaneous,
                [&](int, RowId src, RowId dst) {
                    const std::vector<double> probabilities =
                        notBaseline(analyzer, context.bank, src, dst);
                    if (probabilities.empty())
                        return;
                    const ActivationSets sets =
                        m.chip.decoder().neighborActivation(
                            decomposeRow(geometry, src).localRow,
                            decomposeRow(geometry, dst).localRow);
                    SampleSet *&bucket = buckets[{sets.nrf(), sets.nrl()}];
                    if (bucket == nullptr) {
                        bucket = &result[activationLabel(sets.nrf(),
                                                         sets.nrl())];
                    }
                    addPercents(analyzer,
                                analyzer.drawKey(context.bank,
                                                 BoolOp::Not, src, dst),
                                probabilities, *bucket);
                });
        });
}

RegionHeatmap
Campaign::notRegionHeatmap()
{
    using Accum = std::array<std::array<RunningMean, 3>, 3>;
    const Accum buckets = session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &out) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachNotPair(
                *session_, m, context, PairQuery::Activation::Simultaneous,
                [&](int, RowId src, RowId dst) {
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
    const TemperatureSweep<OpConditions> sweep(temperatures);
    using Accum = std::map<int, std::map<int, RunningMean>>;
    const Accum buckets = session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &out) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachNotPair(
                *session_, m, context, PairQuery::Activation::Simultaneous,
                [&](int dest, RowId src, RowId dst) {
                    sweep.add(
                        notBaseline(analyzer, context.bank, src, dst),
                        [&](const auto &variants, const auto &keep) {
                            return analyzer.notSweep(context.bank, src,
                                                     dst, variants, keep);
                        },
                        [&](int temp) -> RunningMean & {
                            return out[dest][temp];
                        });
                });
        });
    std::map<int, std::map<int, double>> result;
    for (const auto &[dest, by_temp] : buckets)
        for (const auto &[temp, mean] : by_temp)
            result[dest][temp] = mean.empty() ? 0.0 : mean.mean();
    return result;
}

std::map<std::uint32_t, std::map<int, SampleSet>>
Campaign::notVsSpeed()
{
    using Accum = std::map<std::uint32_t, std::map<int, SampleSet>>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachNotPair(
                *session_, m, context, PairQuery::Activation::Simultaneous,
                [&](int dest, RowId src, RowId dst) {
                    addPercents(analyzer,
                                analyzer.drawKey(context.bank,
                                                 BoolOp::Not, src, dst),
                                notBaseline(analyzer, context.bank, src,
                                            dst),
                                result[m.spec.speedMt][dest]);
                });
        });
}

std::vector<std::pair<std::string, SampleSet>>
Campaign::notByDie()
{
    using Accum = std::map<std::string, SampleSet>;
    const Accum by_die = session_->runOverContexts<Accum>(
        Fleet::Table1,
        [&](const View &m, const PairContext &context, Accum &out) {
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            SampleSet &bucket = out[dieLabel(m.spec)];
            for (const auto &[src, dst] : session_->qualifyingPairs(
                     m.module, context, PairQuery::anyWithDest(1))) {
                addPercents(analyzer,
                            analyzer.drawKey(context.bank, BoolOp::Not,
                                             src, dst),
                            notBaseline(analyzer, context.bank, src, dst),
                            bucket);
            }
        });
    return {by_die.begin(), by_die.end()};
}

std::map<BoolOp, std::map<int, SampleSet>>
Campaign::logicVsInputs()
{
    using Accum = std::map<BoolOp, std::map<int, SampleSet>>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    addPercents(analyzer, call.drawKey(analyzer),
                                call.base.probability,
                                result[call.op][call.inputs]);
                });
        });
}

std::map<int, double>
Campaign::logicVsOnes(BoolOp op, int numInputs)
{
    // Every ones-count of a pair in one pass over its cells.
    std::vector<LogicVariant> variants(
        static_cast<std::size_t>(numInputs) + 1);
    for (std::size_t ones = 0; ones < variants.size(); ++ones)
        variants[ones].fixedOnes = static_cast<int>(ones);
    using Accum = std::map<int, RunningMean>;
    const Accum buckets = session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &out) {
            if (!m.chip.profile().supportsLogicOps() ||
                numInputs > m.chip.profile().maxLogicInputs()) {
                return;
            }
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            for (const auto &[ref, com] : session_->qualifyingPairs(
                     m.module, context, PairQuery::square(numInputs))) {
                const auto swept =
                    analyzer.logicSweep(context.bank, op, ref, com,
                                        PatternClass::FixedOnes,
                                        variants);
                for (int ones = 0; ones <= numInputs; ++ones) {
                    const std::vector<double> &probabilities =
                        swept[static_cast<std::size_t>(ones)];
                    if (probabilities.empty())
                        continue;
                    RunningMean &mean = out[ones];
                    for (const double probability : probabilities)
                        mean.add(100.0 * probability);
                }
            }
        });
    std::map<int, double> result;
    for (const auto &[ones, mean] : buckets)
        result[ones] = mean.empty() ? 0.0 : mean.mean();
    return result;
}

std::map<BoolOp, RegionHeatmap>
Campaign::logicRegionHeatmap()
{
    using Accum =
        std::map<BoolOp, std::array<std::array<RunningMean, 3>, 3>>;
    const Accum buckets = session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    const LogicBaseline &base = call.base;
                    const int other = static_cast<int>(base.otherRegion);
                    // Index convention: [compute][reference].
                    const bool own_is_ref = isInvertedOp(call.op);
                    for (std::size_t row = 0; row < base.rowRegion.size();
                         ++row) {
                        const int own =
                            static_cast<int>(base.rowRegion[row]);
                        RunningMean &bucket =
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
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    auto &bucket = result[call.op][call.inputs];
                    addPercents(analyzer,
                                call.drawKey(analyzer,
                                             PatternClass::AllOnes),
                                analyzer
                                    .logicSweep(context.bank, call.op,
                                                call.ref, call.com,
                                                PatternClass::AllOnes,
                                                {LogicVariant{}})
                                    .front(),
                                bucket.first);
                    addPercents(analyzer, call.drawKey(analyzer),
                                call.base.probability, bucket.second);
                });
        });
}

std::map<BoolOp, std::map<int, std::map<int, double>>>
Campaign::logicVsTemperature(const std::vector<int> &temperatures)
{
    // The baseline is the session's memoized sweep.
    const TemperatureSweep<LogicVariant> sweep(temperatures);
    using Accum =
        std::map<BoolOp, std::map<int, std::map<int, RunningMean>>>;
    const Accum buckets = session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &out) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    sweep.add(
                        call.base.probability,
                        [&](const auto &variants, const auto &keep) {
                            return analyzer.logicSweep(
                                context.bank, call.op, call.ref,
                                call.com, PatternClass::Random, variants,
                                keep);
                        },
                        [&](int temp) -> RunningMean & {
                            return out[call.op][call.inputs][temp];
                        });
                });
        });
    std::map<BoolOp, std::map<int, std::map<int, double>>> result;
    for (const auto &[op, by_inputs] : buckets)
        for (const auto &[inputs, by_temp] : by_inputs)
            for (const auto &[temp, mean] : by_temp)
                result[op][inputs][temp] =
                    mean.empty() ? 0.0 : mean.mean();
    return result;
}

std::map<BoolOp, std::map<std::uint32_t, std::map<int, SampleSet>>>
Campaign::logicVsSpeed()
{
    using Accum =
        std::map<BoolOp,
                 std::map<std::uint32_t, std::map<int, SampleSet>>>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    addPercents(
                        analyzer, call.drawKey(analyzer),
                        call.base.probability,
                        result[call.op][m.spec.speedMt][call.inputs]);
                });
        });
}

std::map<std::string, std::map<BoolOp, SampleSet>>
Campaign::logicByDie()
{
    using Accum = std::map<std::string, std::map<BoolOp, SampleSet>>;
    return session_->runOverContexts<Accum>(
        Fleet::SkHynix,
        [&](const View &m, const PairContext &context, Accum &result) {
            if (!m.chip.profile().supportsLogicOps())
                return;
            const AnalyticAnalyzer analyzer(m.chip, config().analytic);
            const std::string label = dieLabel(m.spec);
            forEachBaseline(
                *session_, m, context, [&](const BaselineCall &call) {
                    addPercents(analyzer, call.drawKey(analyzer),
                                call.base.probability,
                                result[label][call.op]);
                });
        });
}

} // namespace fcdram
