#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "fcdram/session.hh"
#include "pud/engine.hh"
#include "pud/expr.hh"
#include "pud/plan.hh"
#include "pud/service.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

using namespace fcdram::pud;

/**
 * QueryService lifecycle tests: prepare -> bind -> submit -> collect
 * semantics, plan-cache hit/miss/invalidation counters, equivalence
 * of warm submits with cold fresh-service runs, worker-count
 * invariance of results and ticket ids, concurrent-submit ledger
 * integrity, and the Auto backend default.
 */

std::vector<ExprId>
makeColumns(ExprPool &pool, int count)
{
    std::vector<ExprId> ids;
    for (int i = 0; i < count; ++i)
        ids.push_back(pool.column(std::string("c") + std::to_string(i)));
    return ids;
}

std::map<std::string, BitVector>
makeData(int count, std::size_t bits, std::uint64_t seed)
{
    std::map<std::string, BitVector> data;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        BitVector column(bits);
        column.randomize(rng);
        data.emplace(std::string("c") + std::to_string(i),
                     std::move(column));
    }
    return data;
}

class QueryServiceTest : public ::testing::Test
{
  protected:
    QueryServiceTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests()))
    {
    }

    std::size_t bits() const
    {
        return static_cast<std::size_t>(
            session_->config().geometry.columns);
    }

    const FleetSession::Module &frontModule() const
    {
        return session_->modules(FleetSession::Fleet::SkHynix)
            .front();
    }

    std::shared_ptr<FleetSession> session_;
};

TEST(ExprHashTest, CanonicalAcrossPoolsAndBuildOrder)
{
    ExprPool a;
    const ExprId axs = a.mkAnd(a.column("x"), a.column("y"));

    // Same expression built in the opposite operand order in a
    // different pool: node ids differ, the content hash must not.
    ExprPool b;
    const ExprId bys = b.mkAnd(b.column("y"), b.column("x"));
    EXPECT_EQ(a.hashOf(axs), b.hashOf(bys));

    // Different expressions hash apart.
    EXPECT_NE(a.hashOf(axs),
              a.hashOf(a.mkOr(a.column("x"), a.column("y"))));

    // import() round-trips the content hash and the semantics
    // (operand order within a node is pool-local: ids sort).
    ExprPool c;
    const ExprId imported = c.import(a, axs);
    EXPECT_EQ(c.hashOf(imported), a.hashOf(axs));
    std::map<std::string, BitVector> data;
    Rng rng(3);
    for (const char *name : {"x", "y"}) {
        BitVector column(32);
        column.randomize(rng);
        data.emplace(name, std::move(column));
    }
    EXPECT_EQ(c.evaluate(imported, data), a.evaluate(axs, data));
}

TEST_F(QueryServiceTest, PreparedQueryIsSelfContained)
{
    QueryService service(session_);
    PreparedQuery prepared;
    EXPECT_FALSE(prepared.valid());
    {
        // The caller's pool dies here; the handle must not care.
        ExprPool pool;
        const auto cols = makeColumns(pool, 3);
        prepared = service.prepare(
            pool, pool.mkOr(pool.mkAnd(cols[0], cols[1]), cols[2]));
    }
    ASSERT_TRUE(prepared.valid());
    EXPECT_EQ(prepared.columns(),
              (std::vector<std::string>{"c0", "c1", "c2"}));
    EXPECT_NE(prepared.exprHash(), 0u);
}

TEST_F(QueryServiceTest, WarmSubmitIsBitIdenticalToColdRuns)
{
    // The plan-cache contract: the same PreparedQuery submitted twice
    // must be bit-identical to cold submits on a fresh service, with
    // the second submit served from the plan cache (zero compiles,
    // zero placements).
    EngineOptions options;
    options.redundancy = 3;
    QueryService service(session_, options);
    const FleetSession::Module &module = frontModule();

    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const ExprId root = pool.mkAnd(cols);
    const auto data = makeData(4, bits(), 77);

    const PreparedQuery prepared = service.prepare(pool, root);
    const BoundQuery bound = prepared.bind(data);

    BatchQueryResult first =
        service.collect(service.submit({bound}, module));
    BatchQueryResult second =
        service.collect(service.submit({bound}, module));

    // Cold pass misses and derives; warm pass is all hits.
    EXPECT_GE(first.cache.misses, 1u);
    EXPECT_GE(first.cache.compiles, 1u);
    EXPECT_GE(first.cache.placements, 1u);
    EXPECT_GE(second.cache.hits, 1u);
    EXPECT_EQ(second.cache.misses, 0u);
    EXPECT_EQ(second.cache.compiles, 0u);
    EXPECT_EQ(second.cache.placements, 0u);
    EXPECT_EQ(second.cache.allocatorBuilds, 0u);

    // A separate service with an empty plan cache replays the same
    // query cold, twice.
    const auto coldRun = [&] {
        QueryService fresh(session_, options);
        const PreparedQuery coldPrepared = fresh.prepare(pool, root);
        BatchQueryResult batch = fresh.collect(
            fresh.submit({coldPrepared.bind(data)}, module));
        return std::move(
            batch.queries.front().modules.front().result);
    };
    const QueryResult coldA = coldRun();
    const QueryResult coldB = coldRun();

    const QueryResult &warmA =
        first.queries.front().modules.front().result;
    const QueryResult &warmB =
        second.queries.front().modules.front().result;
    for (const QueryResult *result :
         {&coldA, &coldB, &warmB}) {
        EXPECT_EQ(warmA.output, result->output);
        EXPECT_EQ(warmA.mask, result->mask);
        EXPECT_EQ(warmA.dram.commands, result->dram.commands);
        EXPECT_EQ(warmA.checkedBits, result->checkedBits);
        EXPECT_EQ(warmA.matchingBits, result->matchingBits);
    }
}

TEST_F(QueryServiceTest, PlanCacheSharesAcrossPreparesByContent)
{
    QueryService service(session_);
    const FleetSession::Module &module = frontModule();

    ExprPool poolA;
    const auto colsA = makeColumns(poolA, 2);
    const PreparedQuery a =
        service.prepare(poolA, poolA.mkAnd(colsA[0], colsA[1]));

    // The same expression prepared from a different pool in reversed
    // build order: plans key on content, so this submit is warm.
    ExprPool poolB;
    const ExprId c1 = poolB.column("c1");
    const ExprId c0 = poolB.column("c0");
    const PreparedQuery b = service.prepare(poolB, poolB.mkAnd(c1, c0));
    EXPECT_EQ(a.exprHash(), b.exprHash());

    const auto data = makeData(2, bits(), 91);
    BatchQueryResult cold =
        service.collect(service.submit({a.bind(data)}, module));
    BatchQueryResult warm =
        service.collect(service.submit({b.bind(data)}, module));
    EXPECT_GE(cold.cache.misses, 1u);
    EXPECT_EQ(warm.cache.misses, 0u);
    EXPECT_GE(warm.cache.hits, 1u);
    EXPECT_EQ(
        cold.queries.front().modules.front().result.output,
        warm.queries.front().modules.front().result.output);
}

TEST_F(QueryServiceTest, TemperatureChangeForcesReplan)
{
    EngineOptions options;
    options.redundancy = 3;
    QueryService service(session_, options);
    const FleetSession::Module &module = frontModule();

    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const PreparedQuery prepared =
        service.prepare(pool, pool.mkAnd(cols[0], cols[1]));
    const auto data = makeData(2, bits(), 101);
    const BoundQuery bound = prepared.bind(data);

    BatchQueryResult cold =
        service.collect(service.submit({bound}, module));
    EXPECT_EQ(cold.cache.invalidations, 0u);

    // A hotter deployment: the cached plan's masks are stale and must
    // be re-derived (new allocator + placement), never trusted.
    service.setTemperature(kDefaultTemperature + 20.0);
    BatchQueryResult hot =
        service.collect(service.submit({bound}, module));
    EXPECT_GE(hot.cache.invalidations, 1u);
    EXPECT_GE(hot.cache.placements, 1u);
    EXPECT_GE(hot.cache.allocatorBuilds, 1u);
    // The program is temperature-independent: no recompilation.
    EXPECT_EQ(hot.cache.compiles, 0u);

    // The contract holds at the new temperature too.
    const QueryResult &result =
        hot.queries.front().modules.front().result;
    EXPECT_TRUE(result.placed);
    EXPECT_EQ(result.matchingBits, result.checkedBits);
    EXPECT_EQ(result.output, result.golden);

    // Back to the default temperature: the hot plan is stale again.
    service.clearTemperature();
    BatchQueryResult back =
        service.collect(service.submit({bound}, module));
    EXPECT_GE(back.cache.invalidations, 1u);
    EXPECT_EQ(
        back.queries.front().modules.front().result.output,
        cold.queries.front().modules.front().result.output);
}

TEST_F(QueryServiceTest, FleetSubmitIsWorkerCountInvariant)
{
    // workers=1 and workers=N must produce identical QueryResults
    // AND identical ticket ids (ids derive from submit order and
    // batch content, not from scheduling).
    CampaignConfig serial = CampaignConfig::forTests();
    serial.workers = 1;
    CampaignConfig parallel = CampaignConfig::forTests();
    parallel.workers = 4;

    std::vector<std::uint64_t> ticketIds;
    std::vector<BatchQueryResult> results;
    for (const CampaignConfig &config : {serial, parallel}) {
        QueryService service(
            std::make_shared<FleetSession>(config));
        ExprPool pool;
        const auto cols = makeColumns(pool, 4);
        const PreparedQuery and4 =
            service.prepare(pool, pool.mkAnd(cols));
        const PreparedQuery or4 =
            service.prepare(pool, pool.mkOr(cols));
        const QueryTicket ticket =
            service.submit({and4.bindSeeded(), or4.bindSeeded()},
                           FleetSession::Fleet::SkHynix);
        ticketIds.push_back(ticket.id);
        results.push_back(service.collect(ticket));
    }

    EXPECT_EQ(ticketIds[0], ticketIds[1]);
    ASSERT_EQ(results[0].queries.size(), 2u);
    ASSERT_EQ(results[0].queries.size(), results[1].queries.size());
    for (std::size_t q = 0; q < results[0].queries.size(); ++q) {
        const FleetQueryStats &a = results[0].queries[q];
        const FleetQueryStats &b = results[1].queries[q];
        ASSERT_EQ(a.modules.size(), b.modules.size());
        ASSERT_FALSE(a.modules.empty());
        for (std::size_t i = 0; i < a.modules.size(); ++i) {
            EXPECT_EQ(a.modules[i].moduleIndex,
                      b.modules[i].moduleIndex);
            EXPECT_EQ(a.modules[i].result.output,
                      b.modules[i].result.output);
            EXPECT_EQ(a.modules[i].result.dram.commands,
                      b.modules[i].result.dram.commands);
        }
    }
    EXPECT_EQ(results[0].serialLatencyNs, results[1].serialLatencyNs);
    EXPECT_EQ(results[0].interleavedLatencyNs,
              results[1].interleavedLatencyNs);
}

TEST_F(QueryServiceTest, BatchSharesResidencyAndInterleavesBanks)
{
    QueryService service(session_);
    const FleetSession::Module &module = frontModule();

    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    // Three queries over the same four columns: the batch ledger must
    // dedupe the resident columns (staged once, not three times).
    const auto data = makeData(4, bits(), 131);
    std::vector<BoundQuery> batch;
    for (const ExprId root :
         {pool.mkAnd(cols), pool.mkOr(cols),
          pool.mkXor(cols[0], cols[1])})
        batch.push_back(service.prepare(pool, root).bind(data));

    BatchQueryResult result =
        service.collect(service.submit(batch, module));
    ASSERT_EQ(result.queries.size(), 3u);
    EXPECT_GT(result.naiveLoad.commands, 0u);
    EXPECT_LT(result.residentLoad.commands,
              result.naiveLoad.commands);
    EXPECT_GT(result.serialLatencyNs, 0.0);
    // Interleaving can only help, and a batch is never faster than
    // its slowest member.
    EXPECT_LE(result.interleavedLatencyNs, result.serialLatencyNs);
    double slowest = 0.0;
    for (const FleetQueryStats &stats : result.queries) {
        slowest = std::max(
            slowest,
            stats.modules.front().result.dram.latencyNs);
    }
    EXPECT_GE(result.interleavedLatencyNs, slowest);
}

TEST_F(QueryServiceTest, TicketsCollectExactlyOnce)
{
    QueryService service(session_);
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const PreparedQuery prepared =
        service.prepare(pool, pool.mkAnd(cols[0], cols[1]));
    const auto data = makeData(2, bits(), 151);

    const QueryTicket ticket =
        service.submit({prepared.bind(data)}, frontModule());
    ASSERT_TRUE(ticket.valid());
    service.collect(ticket);
    EXPECT_THROW(service.collect(ticket), std::invalid_argument);
    EXPECT_THROW(service.collect(QueryTicket{}),
                 std::invalid_argument);
}

TEST_F(QueryServiceTest, SubmitValidatesBindings)
{
    QueryService service(session_);
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const PreparedQuery prepared =
        service.prepare(pool, pool.mkAnd(cols[0], cols[1]));

    // Empty batch and unbound entries are rejected.
    EXPECT_THROW(service.submit({}, frontModule()),
                 std::invalid_argument);
    EXPECT_THROW(service.submit({BoundQuery()}, frontModule()),
                 std::invalid_argument);

    // Missing column.
    EXPECT_THROW(
        service.submit({prepared.bind(makeData(1, bits(), 7))},
                       frontModule()),
        std::invalid_argument);

    // Wrong geometry.
    EXPECT_THROW(
        service.submit({prepared.bind(makeData(2, bits() + 1, 7))},
                       frontModule()),
        std::invalid_argument);
}

TEST_F(QueryServiceTest, ConcurrentSubmitsKeepLedgerExact)
{
    // Satellite of the serving tier: N client threads hammer ONE
    // QueryService with disjoint prepared batches; the sharded plan
    // cache must keep the stats ledger exact under the race
    // (collect() itself throws on a torn hits + misses != lookups).
    QueryService service(session_);
    const auto &modules = session_->modules(FleetSession::Fleet::SkHynix);

    constexpr int kThreads = 4;
    constexpr int kSubmitsPerThread = 8;

    // One plan shape per thread so every thread exercises its own
    // cold-miss path before going warm.
    std::vector<PreparedQuery> prepared;
    std::vector<ExprPool> pools(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        const auto cols = makeColumns(pools[t], 2 + t);
        prepared.push_back(
            service.prepare(pools[t], pools[t].mkAnd(cols)));
    }

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kSubmitsPerThread; ++i) {
                const auto &module =
                    modules[static_cast<std::size_t>(
                                t * kSubmitsPerThread + i) %
                            modules.size()];
                const QueryTicket ticket = service.submit(
                    {prepared[static_cast<std::size_t>(t)].bindSeeded(
                        static_cast<std::uint64_t>(t * 100 + i))},
                    module);
                const BatchQueryResult result =
                    service.collect(ticket);
                ASSERT_EQ(result.queries.size(), 1u);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    const PlanCacheStats stats = service.planCacheStats();
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    EXPECT_EQ(stats.lookups,
              static_cast<std::uint64_t>(kThreads * kSubmitsPerThread));
}

TEST_F(QueryServiceTest, AutoBackendIsTheDefaultAndPicksSimra)
{
    // The satellite bugfix: EngineOptions must default to Auto so a
    // SiMRA-capable profile gets the MAJ basis without explicit
    // opt-in, while non-capable designs keep NAND/NOR.
    const EngineOptions options;
    EXPECT_EQ(options.backend, BackendChoice::Auto);

    PudEngine engine(session_);
    const auto backendOn = [&](const ChipProfile &profile) {
        return engine.backendCapability(session_->checkoutChip(profile, 21))
            .first;
    };
    EXPECT_EQ(backendOn(test::idealProfile()), ComputeBackend::SimraMaj);
    EXPECT_EQ(backendOn(ChipProfile::make(Manufacturer::Samsung, 8, 'A',
                                          8, 2666)),
              ComputeBackend::NandNor);

    // End to end with default options on a SiMRA-capable chip: the
    // executed program is on the MAJ basis without any opt-in.
    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 171);
    Chip chip = session_->checkoutChip(test::idealProfile(), 21);
    const QueryResult result =
        engine.runOnChip(chip, 17, pool, pool.mkAnd(cols), data);
    EXPECT_EQ(result.backend, ComputeBackend::SimraMaj);
    EXPECT_GT(result.majOps, 0);
    EXPECT_EQ(result.output, result.golden);
}

} // namespace
} // namespace fcdram
