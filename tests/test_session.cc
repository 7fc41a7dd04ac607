#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dram/address.hh"
#include "fcdram/campaign.hh"
#include "fcdram/session.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

/**
 * FleetSession tests pin down the engine's two contracts: scheduler
 * determinism (worker count never changes results) and memoization
 * transparency (cached discovery and baseline logic sweeps equal
 * direct evaluation).
 */

CampaignConfig
configWithWorkers(int workers)
{
    CampaignConfig config = CampaignConfig::forTests();
    config.workers = workers;
    return config;
}

TEST(SchedulerTest, RunsEveryTaskExactlyOnce)
{
    const Scheduler scheduler(4);
    std::vector<int> counts(100, 0);
    std::mutex mutex;
    scheduler.run(counts.size(), [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counts[i];
    });
    for (const int count : counts)
        EXPECT_EQ(count, 1);
}

TEST(SchedulerTest, PropagatesTaskExceptions)
{
    const Scheduler scheduler(3);
    EXPECT_THROW(scheduler.run(8,
                               [&](std::size_t i) {
                                   if (i == 5)
                                       throw std::runtime_error("boom");
                               }),
                 std::runtime_error);
}

TEST(SchedulerTest, RethrowsLowestIndexedFailureForAnyWorkerCount)
{
    // Task 3 fails last in wall-clock time, task 7 first; the error
    // must not depend on that race or on the worker count.
    for (const int workers : {1, 4}) {
        const Scheduler scheduler(workers);
        try {
            scheduler.run(8, [](std::size_t i) {
                if (i == 3) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    throw std::runtime_error("task 3");
                }
                if (i == 7)
                    throw std::runtime_error("task 7");
            });
            ADD_FAILURE() << "no exception, workers=" << workers;
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 3")
                << "workers=" << workers;
        }
    }
}

TEST(SchedulerTest, TaskSeedsAreStable)
{
    EXPECT_EQ(Scheduler::taskSeed(1, 2), Scheduler::taskSeed(1, 2));
    EXPECT_NE(Scheduler::taskSeed(1, 2), Scheduler::taskSeed(1, 3));
    EXPECT_NE(Scheduler::taskSeed(1, 2), Scheduler::taskSeed(2, 2));
}

TEST(FleetSessionTest, ModuleEnumerationIsStable)
{
    const FleetSession session(CampaignConfig::forTests());
    const auto &table1 = session.modules(FleetSession::Fleet::Table1);
    EXPECT_EQ(table1.size(),
              static_cast<std::size_t>(totalModules(table1Fleet())));
    // 1-based, dense, and seeded from the campaign seed.
    for (std::size_t i = 0; i < table1.size(); ++i) {
        EXPECT_EQ(table1[i].index, i + 1);
        EXPECT_EQ(table1[i].seed,
                  Scheduler::taskSeed(session.config().seed, i + 1));
    }
    // The SK Hynix slice is a strict subset with identical handles.
    const auto &hynix = session.modules(FleetSession::Fleet::SkHynix);
    ASSERT_LT(hynix.size(), table1.size());
    for (const auto &module : hynix) {
        EXPECT_EQ(module.spec->manufacturer, Manufacturer::SkHynix);
        EXPECT_EQ(module.seed, table1[module.index - 1].seed);
    }
}

TEST(FleetSessionTest, ChipsAreCached)
{
    const FleetSession session(CampaignConfig::forTests());
    const auto &module =
        session.modules(FleetSession::Fleet::Table1).front();
    const Chip &first = session.chip(module);
    const Chip &second = session.chip(module);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(session.cacheStats().chipBuilds, 1u);
}

TEST(FleetSessionTest, PairContextsAreMemoized)
{
    const FleetSession session(CampaignConfig::forTests());
    const auto &module =
        session.modules(FleetSession::Fleet::Table1).front();
    const auto &first = session.pairContexts(module);
    const auto &second = session.pairContexts(module);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.size(),
              static_cast<std::size_t>(
                  session.config().banksPerChip *
                  session.config().subarrayPairsPerBank));
}

TEST(FleetSessionTest, PairContextsAreDistinct)
{
    // No module samples a (bank, low subarray) twice, and each keeps
    // its first draw, the one a draw with replacement also makes.
    for (const CampaignConfig &config :
         {CampaignConfig(), CampaignConfig::forTests()}) {
        const FleetSession session(config);
        const auto maxLow = static_cast<std::uint64_t>(
            config.geometry.subarraysPerBank - 1);
        for (const auto &module :
             session.modules(FleetSession::Fleet::Table1)) {
            const auto &contexts = session.pairContexts(module);
            ASSERT_FALSE(contexts.empty());
            std::set<std::pair<BankId, SubarrayId>> seen;
            for (const PairContext &context : contexts) {
                EXPECT_TRUE(
                    seen.emplace(context.bank, context.lowSubarray).second)
                    << "module " << module.index << " repeats bank "
                    << int{context.bank} << " subarray "
                    << context.lowSubarray;
            }
            EXPECT_EQ(contexts.front().bank, 0);
            EXPECT_EQ(contexts.front().lowSubarray,
                      Rng(hashCombine(module.seed, 0x5041)).below(maxLow))
                << "module " << module.index;
        }
    }
}

TEST(FleetSessionTest, RejectsMorePairsThanABankHolds)
{
    // forTests() banks have 4 subarrays, so 3 neighboring pairs.
    CampaignConfig config = CampaignConfig::forTests();
    config.subarrayPairsPerBank = 4;
    EXPECT_THROW(FleetSession{config}, std::invalid_argument);

    // Three pairs take every low subarray, each once.
    config.subarrayPairsPerBank = 3;
    const FleetSession session(config);
    for (const auto &module :
         session.modules(FleetSession::Fleet::Table1)) {
        std::vector<SubarrayId> lows;
        for (const PairContext &context : session.pairContexts(module))
            lows.push_back(context.lowSubarray);
        std::sort(lows.begin(), lows.end());
        EXPECT_EQ(lows, (std::vector<SubarrayId>{0, 1, 2}))
            << "module " << module.index;
    }
}

TEST(FleetSessionTest, MemoizedPairsMatchDirectDiscovery)
{
    const CampaignConfig config = CampaignConfig::forTests();
    const FleetSession session(config);
    const auto &module =
        session.modules(FleetSession::Fleet::SkHynix).front();
    const PairContext context = session.pairContexts(module).front();
    const PairQuery query = PairQuery::square(2);

    const auto &memoized =
        session.qualifyingPairs(module, context, query);
    const auto &again = session.qualifyingPairs(module, context, query);
    EXPECT_EQ(&memoized, &again) << "second lookup must hit the cache";
    EXPECT_GE(session.cacheStats().pairHits, 1u);

    // The cache is transparent: the memoized result is exactly what
    // direct discovery computes from the canonical seed.
    const std::uint64_t seed = hashCombine(
        module.seed,
        hashCombine(query.key(),
                    0xD15CULL + context.bank * 977 +
                        context.lowSubarray * 131));
    const auto direct = findQualifyingPairs(
        session.chip(module), context, query, config.probesPerPair,
        config.pairSamplesPerConfig, seed);
    EXPECT_EQ(memoized, direct);

    // And every discovered pair satisfies the predicate.
    const GeometryConfig &geometry = session.chip(module).geometry();
    for (const auto &[src, dst] : memoized) {
        const RowAddress rf = decomposeRow(geometry, src);
        const RowAddress rl = decomposeRow(geometry, dst);
        EXPECT_EQ(rf.subarray, context.lowSubarray);
        EXPECT_EQ(rl.subarray, context.lowSubarray + 1);
        const ActivationSets sets =
            session.chip(module).decoder().neighborActivation(
                rf.localRow, rl.localRow);
        EXPECT_TRUE(query.matches(sets));
    }
}

TEST(FleetSessionTest, QualifyingPairsAreDistinct)
{
    // Probing draws (RF, RL) with replacement, and every query kind's
    // qualifying set on these small subarrays is smaller than the
    // number of probes, so each kind finds some pair more than once.
    // Discovery keeps it once, whichever query asks.
    const GeometryConfig geometry = test::tinyGeometry();
    const PairContext context{0, 1};
    const std::pair<const char *, PairQuery> queries[] = {
        {"anyWithDest(1)", PairQuery::anyWithDest(1)},
        {"simultaneousWithDest(2)", PairQuery::simultaneousWithDest(2)},
        {"square(2)", PairQuery::square(2)},
        {"sameSubarray(4)", PairQuery::sameSubarray(4)}};
    std::map<std::string, std::size_t> found;
    for (const ChipProfile &profile : test::manufacturerProfiles()) {
        const Chip chip(profile, geometry, 5);
        for (const auto &[name, query] : queries) {
            const auto pairs = findQualifyingPairs(
                chip, context, query, 4000, 1000, query.key());
            const std::set<std::pair<RowId, RowId>> distinct(
                pairs.begin(), pairs.end());
            EXPECT_EQ(distinct.size(), pairs.size())
                << profile.label() << " " << name;
            found[name] += pairs.size();
        }
    }
    for (const auto &[name, query] : queries)
        EXPECT_GT(found[name], 0u) << name;
}

TEST(FleetSessionTest, LogicBaselineMatchesDirectLogicSamples)
{
    // The memo is transparent: every entry is exactly the direct
    // baseline logicSamples call, probability bit for bit, and each
    // cell's row region and opposite region.
    const FleetSession session(CampaignConfig::forTests());
    std::size_t calls = 0;
    std::size_t compared = 0;
    for (const auto &module :
         session.modules(FleetSession::Fleet::SkHynix)) {
        const Chip &chip = session.chip(module);
        if (!chip.profile().supportsLogicOps())
            continue;
        const AnalyticAnalyzer analyzer(chip, session.config().analytic);
        for (const PairContext &context : session.pairContexts(module)) {
            for (const int inputs : {2, 4, 8, 16}) {
                if (inputs > chip.profile().maxLogicInputs())
                    continue;
                for (const auto &[ref, com] : session.qualifyingPairs(
                         module, context, PairQuery::square(inputs))) {
                    for (const BoolOp op : {BoolOp::And, BoolOp::Nand,
                                            BoolOp::Or, BoolOp::Nor}) {
                        const LogicBaseline &memo = session.logicBaseline(
                            module, context.bank, op, ref, com);
                        const auto direct = analyzer.logicSamples(
                            context.bank, op, ref, com, OpConditions(),
                            PatternClass::Random);
                        ASSERT_FALSE(direct.empty());
                        ASSERT_EQ(memo.probability.size(), direct.size());
                        ASSERT_EQ(memo.rowRegion.size() *
                                      memo.columnsPerRow,
                                  direct.size());
                        for (std::size_t i = 0; i < direct.size(); ++i) {
                            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                          memo.probability[i]),
                                      std::bit_cast<std::uint64_t>(
                                          direct[i].probability));
                            EXPECT_EQ(
                                memo.rowRegion[i / memo.columnsPerRow],
                                direct[i].ownRegion);
                            EXPECT_EQ(memo.otherRegion,
                                      direct[i].otherRegion);
                        }
                        EXPECT_EQ(&session.logicBaseline(
                                      module, context.bank, op, ref, com),
                                  &memo)
                            << "second lookup must hit the memo";
                        calls += 2;
                        compared += direct.size();
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 0u);
    const FleetSession::CacheStats stats = session.cacheStats();
    EXPECT_EQ(stats.logicLookups, calls);
    EXPECT_GE(stats.logicHits, calls / 2);
}

TEST(FleetSessionTest, PairQueryPredicates)
{
    ActivationSets sets;
    sets.simultaneous = true;
    sets.firstRows = {1, 2};
    sets.secondRows = {3, 4};
    EXPECT_TRUE(PairQuery::square(2).matches(sets));
    EXPECT_FALSE(PairQuery::square(4).matches(sets));
    EXPECT_TRUE(PairQuery::simultaneousWithDest(2).matches(sets));
    EXPECT_TRUE(PairQuery::anyWithDest(2).matches(sets));
    sets.simultaneous = false;
    sets.sequential = true;
    EXPECT_FALSE(PairQuery::simultaneousWithDest(2).matches(sets));
    EXPECT_TRUE(PairQuery::anyWithDest(2).matches(sets));
    sets.sequential = false;
    EXPECT_FALSE(PairQuery::anyWithDest(2).matches(sets));
    // Distinct queries get distinct canonical keys (distinct caches).
    EXPECT_NE(PairQuery::square(2).key(), PairQuery::square(4).key());
    EXPECT_NE(PairQuery::square(2).key(),
              PairQuery::simultaneousWithDest(2).key());
    EXPECT_NE(PairQuery::anyWithDest(2).key(),
              PairQuery::simultaneousWithDest(2).key());
}

TEST(PairQueryKeyTest, DistinctQueriesGetDistinctKeys)
{
    // The canonical key doubles as a cache-key and a discovery-seed
    // salt, so any two inequivalent queries must disagree.
    std::vector<PairQuery> queries;
    for (const auto activation : {PairQuery::Activation::Any,
                                  PairQuery::Activation::Simultaneous}) {
        for (const int source : {-1, 1, 2, 4, 8, 16}) {
            for (const int dest : {-1, 1, 2, 4, 8, 16}) {
                PairQuery query;
                query.activation = activation;
                query.sourceRows = source;
                query.destRows = dest;
                queries.push_back(query);
            }
        }
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
        for (std::size_t j = i + 1; j < queries.size(); ++j) {
            EXPECT_NE(queries[i].key(), queries[j].key())
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(PairQueryKeyTest, KeyEqualityIsConsistentWithOrdering)
{
    // key() and operator< must induce the same equivalence: two
    // queries compare equal under the ordering iff their keys match.
    std::vector<PairQuery> queries = {
        PairQuery::square(2),          PairQuery::square(2),
        PairQuery::square(4),          PairQuery::anyWithDest(1),
        PairQuery::simultaneousWithDest(1),
        PairQuery::simultaneousWithDest(4),
    };
    for (const PairQuery &a : queries) {
        for (const PairQuery &b : queries) {
            const bool equivalent = !(a < b) && !(b < a);
            EXPECT_EQ(equivalent, a.key() == b.key());
        }
    }
}

TEST(FleetSessionTest, MergeAccumFoldsMapsInModuleOrder)
{
    // runOverFleet folds partial accumulators in module order; the
    // std::map overload must merge value-wise so the fold is
    // deterministic and independent of which worker ran what.
    const auto sampleSet = [](std::initializer_list<double> values) {
        SampleSet set;
        for (const double value : values)
            set.add(value);
        return set;
    };
    std::map<int, SampleSet> first;
    first[1] = sampleSet({1.0, 2.0});
    first[2] = sampleSet({3.0});
    std::map<int, SampleSet> second;
    second[1] = sampleSet({4.0});
    second[3] = sampleSet({5.0});

    std::map<int, SampleSet> result;
    FleetSession::mergeAccum(result, std::move(first));
    FleetSession::mergeAccum(result, std::move(second));

    ASSERT_EQ(result.size(), 3u);
    EXPECT_EQ(result.at(1).values(),
              (std::vector<double>{1.0, 2.0, 4.0}))
        << "module-order append, not interleave";
    EXPECT_EQ(result.at(2).values(), (std::vector<double>{3.0}));
    EXPECT_EQ(result.at(3).values(), (std::vector<double>{5.0}));

    // Nested maps recurse through the same overload.
    std::map<std::string, std::map<int, SampleSet>> nestedInto;
    std::map<std::string, std::map<int, SampleSet>> nestedFrom;
    nestedFrom["op"][2] = sampleSet({7.0});
    FleetSession::mergeAccum(nestedInto, std::move(nestedFrom));
    EXPECT_EQ(nestedInto.at("op").at(2).values(),
              (std::vector<double>{7.0}));
}

namespace {

/** Minimal accumulator for the mergeFrom-based generic fold. */
struct OrderAccum
{
    std::vector<std::size_t> indices;

    void mergeFrom(OrderAccum &&other)
    {
        indices.insert(indices.end(), other.indices.begin(),
                       other.indices.end());
    }
};

} // namespace

TEST(FleetSessionTest, MergeAccumSupportsMergeFromAccumulators)
{
    // Accumulators outside the built-in overload set fold through
    // their mergeFrom member (used by the PuD engine), and
    // runOverFleet visits modules in stable order regardless of the
    // worker count.
    for (const int workers : {1, 4}) {
        const FleetSession session(configWithWorkers(workers));
        const OrderAccum order = session.runOverFleet<OrderAccum>(
            FleetSession::Fleet::Table1,
            [](const FleetSession::ModuleView &view,
               OrderAccum &accum) {
                accum.indices.push_back(view.module.index);
            });
        const auto &modules =
            session.modules(FleetSession::Fleet::Table1);
        ASSERT_EQ(order.indices.size(), modules.size());
        for (std::size_t i = 0; i < modules.size(); ++i)
            EXPECT_EQ(order.indices[i], modules[i].index);
    }
}

namespace {

/** Task visits in fold order, as (module index, context index). */
struct VisitAccum
{
    std::vector<std::pair<std::size_t, std::size_t>> visits;

    void mergeFrom(VisitAccum &&other)
    {
        visits.insert(visits.end(), other.visits.begin(),
                      other.visits.end());
    }
};

/** Every (module, context) of @p fleet in enumeration order. */
std::vector<std::pair<std::size_t, std::size_t>>
allContexts(const FleetSession &session, FleetSession::Fleet fleet)
{
    std::vector<std::pair<std::size_t, std::size_t>> expected;
    for (const auto &module : session.modules(fleet)) {
        for (std::size_t c = 0; c < session.pairContexts(module).size();
             ++c)
            expected.emplace_back(module.index, c);
    }
    return expected;
}

} // namespace

TEST(FleetSessionTest, FanOutsVisitOnceAndFoldInTaskOrder)
{
    for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const FleetSession session(configWithWorkers(workers));
        for (const auto fleet : {FleetSession::Fleet::SkHynix,
                                 FleetSession::Fleet::Table1}) {
            std::mutex mutex;
            std::map<std::pair<std::size_t, std::size_t>, int> counts;
            const VisitAccum byContext =
                session.runOverContexts<VisitAccum>(
                    fleet, [&](const FleetSession::ModuleView &view,
                               const PairContext &context,
                               VisitAccum &accum) {
                        const auto c = static_cast<std::size_t>(
                            &context - view.contexts.data());
                        accum.visits.emplace_back(view.module.index, c);
                        const std::lock_guard<std::mutex> lock(mutex);
                        ++counts[{view.module.index, c}];
                    });
            const auto expected = allContexts(session, fleet);
            ASSERT_FALSE(expected.empty());
            EXPECT_EQ(byContext.visits, expected);
            EXPECT_EQ(counts.size(), expected.size());
            for (const auto &[key, count] : counts)
                EXPECT_EQ(count, 1) << key.first << "/" << key.second;

            const VisitAccum byModule = session.runOverFleet<VisitAccum>(
                fleet, [](const FleetSession::ModuleView &view,
                          VisitAccum &accum) {
                    for (std::size_t c = 0; c < view.contexts.size(); ++c)
                        accum.visits.emplace_back(view.module.index, c);
                });
            EXPECT_EQ(byModule.visits, expected);
        }
    }
}

TEST(FleetSessionTest, FanOutsRethrowLowestIndexedFailure)
{
    // The lowest failing task fails last in wall-clock time; a later
    // one fails at once. Neither the race nor the worker count may
    // change which exception the fan-out rethrows.
    const auto failing = [](std::size_t task, std::size_t first) {
        if (task == first) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("task " + std::to_string(task));
        }
        if (task == first + 3)
            throw std::runtime_error("task " + std::to_string(task));
    };
    for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const FleetSession session(configWithWorkers(workers));
        const auto &modules =
            session.modules(FleetSession::Fleet::Table1);
        const std::size_t perModule =
            session.pairContexts(modules.front()).size();
        try {
            session.runOverContexts<VisitAccum>(
                FleetSession::Fleet::Table1,
                [&](const FleetSession::ModuleView &view,
                    const PairContext &context, VisitAccum &) {
                    const auto c = static_cast<std::size_t>(
                        &context - view.contexts.data());
                    failing((view.module.index - 1) * perModule + c, 2);
                });
            ADD_FAILURE() << "runOverContexts did not throw";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 2");
        }
        try {
            session.runOverFleet<VisitAccum>(
                FleetSession::Fleet::Table1,
                [&](const FleetSession::ModuleView &view, VisitAccum &) {
                    failing(view.module.index - 1, 1);
                });
            ADD_FAILURE() << "runOverFleet did not throw";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 1");
        }
    }
}

TEST(FleetSessionTest, ConcurrentContextTasksShareOneFillPerKey)
{
    // The per-context tasks of a module reach its chip, its contexts
    // and its discovery keys concurrently. Each is built once, and the
    // cache counters match a one-worker run.
    FleetSession::CacheStats stats[2];
    for (const int i : {0, 1}) {
        const FleetSession session(configWithWorkers(i == 0 ? 1 : 4));
        session.runOverContexts<VisitAccum>(
            FleetSession::Fleet::Table1,
            [&](const FleetSession::ModuleView &view,
                const PairContext &context, VisitAccum &) {
                for (const int dest : {1, 2, 4})
                    session.qualifyingPairs(view.module, context,
                                            PairQuery::anyWithDest(dest));
            });
        stats[i] = session.cacheStats();
    }
    EXPECT_EQ(stats[1].chipBuilds,
              static_cast<std::uint64_t>(totalModules(table1Fleet())));
    EXPECT_EQ(stats[1].chipBuilds, stats[0].chipBuilds);
    EXPECT_EQ(stats[1].pairLookups, stats[0].pairLookups);
    EXPECT_EQ(stats[1].pairHits, stats[0].pairHits);
}

TEST(FleetSessionTest, WorkerCountDoesNotChangeResults)
{
    // The determinism contract: a figure experiment run with one
    // worker and with many workers yields bit-identical SampleSets.
    Campaign serial(configWithWorkers(1));
    Campaign parallel(configWithWorkers(4));
    ASSERT_EQ(serial.session()->scheduler().workers(), 1);
    ASSERT_EQ(parallel.session()->scheduler().workers(), 4);

    const auto serial_not = serial.notVsDestRows();
    ASSERT_FALSE(serial_not.empty());
    test::expectSame(parallel.notVsDestRows(), serial_not);
    test::expectSame(parallel.notVsActivationType(),
                     serial.notVsActivationType());
    test::expectSame(parallel.notVsSpeed(), serial.notVsSpeed());
    test::expectSame(parallel.notByDie(), serial.notByDie());

    const auto serial_logic = serial.logicVsInputs();
    ASSERT_FALSE(serial_logic.empty());
    test::expectSame(parallel.logicVsInputs(), serial_logic);
    test::expectSame(parallel.logicDataPattern(),
                     serial.logicDataPattern());
    test::expectSame(parallel.logicVsSpeed(), serial.logicVsSpeed());
    test::expectSame(parallel.logicByDie(), serial.logicByDie());
}

TEST(FleetSessionTest, RepeatedRunsAreBitIdentical)
{
    // Re-running a figure on a warm session (cached chips + pairs)
    // must reproduce the cold run exactly.
    Campaign campaign(configWithWorkers(2));
    const auto cold = campaign.notVsDestRows();
    const std::uint64_t lookups =
        campaign.session()->cacheStats().pairLookups;
    const auto warm = campaign.notVsDestRows();
    const auto stats = campaign.session()->cacheStats();
    EXPECT_EQ(stats.pairLookups, 2 * lookups);
    EXPECT_GE(stats.pairHits, lookups);
    ASSERT_EQ(cold.size(), warm.size());
    for (const auto &[dest, set] : cold)
        EXPECT_EQ(set.values(), warm.at(dest).values());
}

TEST(FleetSessionTest, SharedSessionAcrossCampaigns)
{
    const auto session =
        std::make_shared<FleetSession>(configWithWorkers(2));
    Campaign first(session);
    Campaign second(session);
    const auto a = first.notVsDestRows();
    const std::uint64_t builds = session->cacheStats().chipBuilds;
    const auto b = second.notVsDestRows();
    // The second campaign reuses every chip the first one built.
    EXPECT_EQ(session->cacheStats().chipBuilds, builds);
    for (const auto &[dest, set] : a)
        EXPECT_EQ(set.values(), b.at(dest).values());
}

TEST(FleetSessionTest, CheckoutChipIsPrivate)
{
    const FleetSession session(CampaignConfig::forTests());
    const auto &module =
        session.modules(FleetSession::Fleet::Table1).front();
    Chip checked = session.checkoutChip(module);
    const Chip &cached = session.chip(module);
    EXPECT_NE(&checked, &cached);
    // Same spec, geometry, and seed: identical decoder behaviour.
    EXPECT_EQ(checked.seed(), cached.seed());
    EXPECT_EQ(checked.numBanks(), cached.numBanks());
}

TEST(FleetSessionTest, FindModuleLocatesTable1Designs)
{
    const FleetSession session(CampaignConfig::forTests());
    const auto *module =
        session.findModule(Manufacturer::SkHynix, 4, 'A', 2133);
    ASSERT_NE(module, nullptr);
    EXPECT_EQ(module->spec->densityGbit, 4);
    EXPECT_EQ(module->spec->dieRevision, 'A');
    EXPECT_EQ(session.findModule(Manufacturer::Micron, 8, 'B', 2666),
              nullptr)
        << "Micron modules are not in the Table-1 fleet";
}

} // namespace
} // namespace fcdram
