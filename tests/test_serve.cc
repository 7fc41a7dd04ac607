#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "fcdram/session.hh"
#include "obs/telemetry.hh"
#include "pud/service.hh"
#include "serve/server.hh"
#include "verify/verifier.hh"

namespace fcdram {
namespace {

using namespace fcdram::pud;
using namespace fcdram::serve;

/**
 * Serving-tier tests: response identity against direct submits,
 * serveId/shard-count determinism, request coalescing and window
 * compatibility (plan hash, temperature epoch), backpressure,
 * weighted tenant fairness, priority classes, the drain order
 * against a reference model of the policy, concurrent clients with
 * tenant churn, and error propagation through futures (admission +
 * verify).
 */

std::vector<ExprId>
makeColumns(ExprPool &pool, int count)
{
    std::vector<ExprId> ids;
    for (int i = 0; i < count; ++i)
        ids.push_back(
            pool.column(std::string("c") + std::to_string(i)));
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

class QueryServerTest : public ::testing::Test
{
  protected:
    QueryServerTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests()))
    {
    }

    std::size_t bits() const
    {
        return static_cast<std::size_t>(
            session_->config().geometry.columns);
    }

    const std::vector<FleetSession::Module> &modules() const
    {
        return session_->modules(FleetSession::Fleet::SkHynix);
    }

    std::shared_ptr<QueryService> makeService() const
    {
        return std::make_shared<QueryService>(session_);
    }

    /** A distinct prepared query per shape index. */
    PreparedQuery prepareShape(QueryService &service,
                               int shape) const
    {
        ExprPool pool;
        const auto cols = makeColumns(pool, 2 + shape % 2);
        ExprId root;
        switch (shape % 3) {
        case 0:
            root = pool.mkAnd(cols);
            break;
        case 1:
            root = pool.mkOr(cols);
            break;
        default:
            root = pool.mkOr(pool.mkAnd(cols[0], cols[1]),
                             cols.back());
            break;
        }
        return service.prepare(pool, root);
    }

    std::shared_ptr<FleetSession> session_;
};

TEST_F(QueryServerTest, ResponsesMatchDirectSubmitsAndServeIdsOrder)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 2;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    const auto data = std::make_shared<
        const std::map<std::string, BitVector>>(
        makeData(2, bits(), 11));

    std::vector<std::future<QueryResponse>> futures;
    std::vector<std::size_t> moduleOf;
    for (int i = 0; i < 8; ++i) {
        const FleetSession::Module &module =
            modules()[static_cast<std::size_t>(i) %
                      modules().size()];
        moduleOf.push_back(module.index);
        futures.push_back(
            server.enqueue(prepared.bind(data), module));
    }
    server.drain();

    // A fresh service replays each query directly (cold caches, same
    // determinism contract).
    QueryService direct(session_);
    const PreparedQuery directPrepared = prepareShape(direct, 0);
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const QueryResponse response = futures[i].get();
        EXPECT_EQ(response.serveId, i + 1);
        const FleetSession::Module &module =
            modules()[i % modules().size()];
        ASSERT_EQ(module.index, moduleOf[i]);
        BatchQueryResult expected = direct.collect(
            direct.submit({directPrepared.bind(data)}, module));
        const QueryResult &want =
            expected.queries.front().modules.front().result;
        EXPECT_EQ(response.stats.moduleIndex, module.index);
        EXPECT_EQ(response.stats.result.output, want.output);
        EXPECT_EQ(response.stats.result.mask, want.mask);
        EXPECT_EQ(response.stats.result.checkedBits,
                  want.checkedBits);
        EXPECT_EQ(response.stats.result.matchingBits,
                  want.matchingBits);
        EXPECT_EQ(response.stats.result.dram.commands,
                  want.dram.commands);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.enqueued, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(QueryServerTest, ResultsAreShardCountInvariant)
{
    const auto runWith = [&](int shards) {
        auto service = makeService();
        ServerOptions options;
        options.shards = shards;
        QueryServer server(service, options);
        const PreparedQuery prepared = prepareShape(*service, 2);
        std::vector<std::future<QueryResponse>> futures;
        for (int i = 0; i < 12; ++i) {
            const FleetSession::Module &module =
                modules()[static_cast<std::size_t>(i) %
                          modules().size()];
            futures.push_back(server.enqueue(
                prepared.bindSeeded(1000 + i % 4), module));
        }
        server.drain();
        std::vector<QueryResult> results;
        for (auto &future : futures)
            results.push_back(std::move(future.get().stats.result));
        return results;
    };

    const std::vector<QueryResult> one = runWith(1);
    const std::vector<QueryResult> three = runWith(3);
    ASSERT_EQ(one.size(), three.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].output, three[i].output);
        EXPECT_EQ(one[i].mask, three[i].mask);
        EXPECT_EQ(one[i].checkedBits, three[i].checkedBits);
        EXPECT_EQ(one[i].matchingBits, three[i].matchingBits);
        EXPECT_EQ(one[i].dram.commands, three[i].dram.commands);
    }
}

TEST_F(QueryServerTest, IdenticalQueriesCoalesceOntoOneExecution)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.maxBatch = 16;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    const FleetSession::Module &module = modules().front();

    // Same plan, same dataKey (one seeded salt): one execution must
    // serve every waiter.
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(
            server.enqueue(prepared.bindSeeded(42), module));
    }
    server.resume();
    server.drain();

    std::set<std::uint64_t> batchIds;
    for (auto &future : futures) {
        const QueryResponse response = future.get();
        EXPECT_EQ(response.shareCount, 6u);
        EXPECT_EQ(response.batchQueries, 6u);
        batchIds.insert(response.batchId);
    }
    EXPECT_EQ(batchIds.size(), 1u);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.executions, 1u);
    EXPECT_EQ(stats.coalesced, 5u);
}

TEST_F(QueryServerTest, WindowsSplitByPlanAndShareByData)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery planA = prepareShape(*service, 0);
    const PreparedQuery planB = prepareShape(*service, 1);
    ASSERT_NE(planA.exprHash(), planB.exprHash());
    const FleetSession::Module &module = modules().front();

    // Queue order: A(salt 1), B(salt 1), A(salt 2). The first window
    // seeds on A and coalesces the other A across the incompatible B;
    // distinct salts stay distinct executions in one submit.
    auto a1 = server.enqueue(planA.bindSeeded(1), module);
    auto b1 = server.enqueue(planB.bindSeeded(1), module);
    auto a2 = server.enqueue(planA.bindSeeded(2), module);
    server.resume();
    server.drain();

    const QueryResponse ra1 = a1.get();
    const QueryResponse rb1 = b1.get();
    const QueryResponse ra2 = a2.get();
    EXPECT_EQ(ra1.batchId, ra2.batchId);
    EXPECT_NE(ra1.batchId, rb1.batchId);
    EXPECT_EQ(ra1.batchQueries, 2u);
    EXPECT_EQ(ra1.shareCount, 1u);
    EXPECT_EQ(ra2.shareCount, 1u);
    EXPECT_EQ(rb1.batchQueries, 1u);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.executions, 3u);
    EXPECT_EQ(stats.coalesced, 0u);
}

TEST_F(QueryServerTest, TemperatureEpochSplitsWindows)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    const FleetSession::Module &module = modules().front();

    auto before = server.enqueue(prepared.bindSeeded(7), module);
    // Same temperature value (the chip default), but the epoch bump
    // must still split the window: the server may not assume the
    // override landed on the same side of both executions.
    service->setTemperature(session_->chip(module).temperature());
    auto after = server.enqueue(prepared.bindSeeded(7), module);
    server.resume();
    server.drain();

    const QueryResponse first = before.get();
    const QueryResponse second = after.get();
    EXPECT_NE(first.batchId, second.batchId);
    // Same (module, plan, data, temperature) -> identical results
    // even across the epoch split.
    EXPECT_EQ(first.stats.result.output, second.stats.result.output);
    EXPECT_EQ(server.stats().batches, 2u);
}

TEST_F(QueryServerTest, BackpressureRejectsWithRetryAfter)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.maxQueueDepth = 4;
    options.retryAfterMs = 2.0;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    const FleetSession::Module &module = modules().front();

    std::vector<std::future<QueryResponse>> admitted;
    for (int i = 0; i < 4; ++i) {
        admitted.push_back(
            server.enqueue(prepared.bindSeeded(i), module));
    }
    try {
        server.enqueue(prepared.bindSeeded(99), module);
        FAIL() << "enqueue beyond the cap was admitted";
    } catch (const AdmissionError &error) {
        EXPECT_GE(error.retryAfterMs(), options.retryAfterMs);
        EXPECT_NE(std::string(error.what()).find("retry"),
                  std::string::npos);
    }

    server.resume();
    server.drain();
    for (auto &future : admitted)
        EXPECT_NO_THROW(future.get());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.maxDepth, 4u);
}

TEST_F(QueryServerTest, WeightedFairnessDrainOrder)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.maxBatch = 4;
    options.startPaused = true;
    options.tenantWeights["tenantB"] = 3.0;
    QueryServer server(service, options);

    const PreparedQuery planA = prepareShape(*service, 0);
    const PreparedQuery planB = prepareShape(*service, 1);
    const FleetSession::Module &module = modules().front();

    std::vector<std::future<QueryResponse>> tenantA;
    std::vector<std::future<QueryResponse>> tenantB;
    for (int i = 0; i < 8; ++i) {
        tenantA.push_back(server.enqueue(planA.bindSeeded(1), module,
                                         {"tenantA", 0}));
    }
    for (int i = 0; i < 8; ++i) {
        tenantB.push_back(server.enqueue(planB.bindSeeded(1), module,
                                         {"tenantB", 0}));
    }
    server.resume();
    server.drain();

    // Weighted-FIFO with weights A=1, B=3 and windows of 4 drains
    // A, B, B, A: the tie seeds A first (lexicographic), then B's
    // weight keeps its served/weight ratio below A's for two whole
    // windows.
    std::set<std::uint64_t> aBatches;
    std::set<std::uint64_t> bBatches;
    for (auto &future : tenantA)
        aBatches.insert(future.get().batchId);
    for (auto &future : tenantB)
        bBatches.insert(future.get().batchId);
    ASSERT_EQ(aBatches.size(), 2u);
    ASSERT_EQ(bBatches.size(), 2u);
    const std::uint64_t a1 = *aBatches.begin();
    const std::uint64_t a2 = *aBatches.rbegin();
    const std::uint64_t b1 = *bBatches.begin();
    const std::uint64_t b2 = *bBatches.rbegin();
    EXPECT_LT(a1, b1);
    EXPECT_LT(b1, b2);
    EXPECT_LT(b2, a2);
}

TEST_F(QueryServerTest, HigherPriorityDrainsFirst)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery planLow = prepareShape(*service, 0);
    const PreparedQuery planHigh = prepareShape(*service, 1);
    const FleetSession::Module &module = modules().front();

    auto low = server.enqueue(planLow.bindSeeded(1), module,
                              {"tenant", 0});
    auto high = server.enqueue(planHigh.bindSeeded(1), module,
                               {"tenant", 5});
    server.resume();
    server.drain();

    EXPECT_LT(high.get().batchId, low.get().batchId);
}

TEST_F(QueryServerTest, ResumeNeverLosesTheWakeup)
{
    // An enqueue's notify wakes the paused drain thread; a resume()
    // landing between that thread's predicate check and its wait must
    // still wake it, or the entry stays queued forever.
    auto service = makeService();
    const PreparedQuery prepared = prepareShape(*service, 0);
    const FleetSession::Module &module = modules().front();
    ServerOptions options;
    options.shards = 1;
    options.startPaused = true;
    for (int i = 0; i < 2000; ++i) {
        QueryServer server(service, options);
        auto future = server.enqueue(prepared.bindSeeded(1), module);
        // Sweep the resume over 0-50 us so that some iterations land
        // it inside the drain thread's wake -> check -> wait cycle.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(250 * (i % 200));
        while (std::chrono::steady_clock::now() < until) {
        }
        server.resume();
        ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "iteration " << i;
    }
}

/**
 * Test-local reference of the shard drain policy: the highest
 * priority present first; within it the tenant with the smallest
 * served/weight ratio (lexicographic tie-break); then every entry
 * sharing the seed's (module, plan hash, temperature epoch) across
 * all tenant queues in (priority, tenant) order, FIFO within a
 * queue, up to maxBatch. The served ledger spans drains.
 */
class DrainPolicyModel
{
  public:
    struct Entry
    {
        std::uint64_t serveId = 0;
        std::size_t moduleIndex = 0;
        std::uint64_t exprHash = 0;
        std::uint64_t epoch = 0;
        std::uint64_t salt = 0;

        bool sameBatch(const Entry &other) const
        {
            return moduleIndex == other.moduleIndex &&
                   exprHash == other.exprHash && epoch == other.epoch;
        }
    };

    DrainPolicyModel(std::size_t maxBatch,
                     std::map<std::string, double> weights)
        : maxBatch_(maxBatch), weights_(std::move(weights))
    {
    }

    void enqueue(const std::string &tenant, int priority,
                 const Entry &entry)
    {
        queues_[{-priority, tenant}].push_back(entry);
    }

    /** Every window until the queues are empty, in drain order. */
    std::vector<std::vector<Entry>> drain()
    {
        std::vector<std::vector<Entry>> windows;
        for (;;) {
            auto seedIt = queues_.end();
            double bestScore = 0.0;
            for (auto it = queues_.begin(); it != queues_.end();
                 ++it) {
                if (it->second.empty())
                    continue;
                if (seedIt != queues_.end() &&
                    it->first.first != seedIt->first.first)
                    break;
                const std::string &tenant = it->first.second;
                const double score =
                    served_[tenant] / weights_.at(tenant);
                if (seedIt == queues_.end() || score < bestScore) {
                    seedIt = it;
                    bestScore = score;
                }
            }
            if (seedIt == queues_.end())
                return windows;

            std::vector<Entry> window{seedIt->second.front()};
            seedIt->second.pop_front();
            served_[seedIt->first.second] += 1.0;
            for (auto &[key, queue] : queues_) {
                for (auto it = queue.begin();
                     it != queue.end() && window.size() < maxBatch_;) {
                    if (it->sameBatch(window.front())) {
                        served_[key.second] += 1.0;
                        window.push_back(*it);
                        it = queue.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
            windows.push_back(std::move(window));
        }
    }

  private:
    std::size_t maxBatch_;
    std::map<std::string, double> weights_;
    std::map<std::pair<int, std::string>, std::deque<Entry>> queues_;
    std::map<std::string, double> served_;
};

TEST_F(QueryServerTest, DrainOrderMatchesReferencePolicy)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 1;
    options.maxBatch = 4;
    options.startPaused = true;
    constexpr int kTenants = 24;
    const auto tenantName = [](std::uint64_t t) {
        return "tenant" + std::to_string(t);
    };
    for (int t = 0; t < kTenants; ++t)
        options.tenantWeights[tenantName(t)] = 1.0 + t % 3;
    QueryServer server(service, options);
    DrainPolicyModel model(options.maxBatch, options.tenantWeights);

    const std::vector<PreparedQuery> shapes{prepareShape(*service, 0),
                                            prepareShape(*service, 1),
                                            prepareShape(*service, 2)};
    ASSERT_GE(modules().size(), 2u);
    const std::vector<FleetSession::Module> targets{modules()[0],
                                                    modules()[1]};

    // Three preload -> resume -> drain -> pause phases: tenants whose
    // queues emptied come back with their served counts intact, and
    // one epoch bump mid-preload splits otherwise compatible entries.
    Rng rng(1811);
    constexpr int kPhases = 3;
    constexpr int kPerPhase = 40;
    std::uint64_t nextServeId = 1;
    std::size_t sharedResponses = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        std::vector<std::future<QueryResponse>> futures;
        for (int i = 0; i < kPerPhase; ++i) {
            if (phase == 1 && i == kPerPhase / 2) {
                service->setTemperature(
                    session_->chip(targets[0]).temperature());
            }
            const std::string tenant = tenantName(rng.below(kTenants));
            const int priority = 2 * static_cast<int>(rng.below(2));
            const PreparedQuery &shape = shapes[rng.below(3)];
            const FleetSession::Module &module = targets[rng.below(2)];
            const std::uint64_t salt = 1 + rng.below(3);
            model.enqueue(tenant, priority,
                          {nextServeId++, module.index,
                           shape.exprHash(),
                           service->temperatureEpoch(), salt});
            futures.push_back(server.enqueue(shape.bindSeeded(salt),
                                             module,
                                             {tenant, priority}));
        }
        server.resume();
        server.drain();
        server.pause();

        std::map<std::uint64_t, std::set<std::uint64_t>> batches;
        std::map<std::uint64_t, std::size_t> shareCounts;
        for (auto &future : futures) {
            const QueryResponse response = future.get();
            batches[response.batchId].insert(response.serveId);
            shareCounts[response.serveId] = response.shareCount;
        }

        const auto windows = model.drain();
        ASSERT_EQ(batches.size(), windows.size()) << "phase " << phase;
        auto batchIt = batches.begin();
        for (std::size_t w = 0; w < windows.size(); ++w, ++batchIt) {
            std::set<std::uint64_t> want;
            for (const auto &entry : windows[w]) {
                want.insert(entry.serveId);
                const auto shared = static_cast<std::size_t>(
                    std::count_if(windows[w].begin(),
                                  windows[w].end(),
                                  [&](const auto &peer) {
                                      return peer.salt == entry.salt;
                                  }));
                EXPECT_EQ(shareCounts[entry.serveId], shared)
                    << "phase " << phase << " serveId "
                    << entry.serveId;
                if (shared > 1)
                    ++sharedResponses;
            }
            EXPECT_EQ(batchIt->second, want)
                << "phase " << phase << " window " << w;
        }
    }
    EXPECT_EQ(server.stats().completed,
              static_cast<std::uint64_t>(kPhases * kPerPhase));
    // The trace must actually exercise coalescing and dedup.
    EXPECT_LT(server.stats().batches,
              static_cast<std::uint64_t>(kPhases * kPerPhase));
    EXPECT_GT(sharedResponses, 0u);
}

TEST_F(QueryServerTest, ConcurrentClientsAllComplete)
{
    auto service = makeService();
    ServerOptions options;
    options.shards = 2;
    options.maxQueueDepth = 4096;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    // Every client cycles over the same tenants at two priorities, so
    // tenant queues are created and emptied while both shards drain.
    constexpr int kTenants = 50;

    std::vector<std::thread> clients;
    std::vector<std::vector<std::future<QueryResponse>>> futures(
        kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const FleetSession::Module &module =
                    modules()[static_cast<std::size_t>(i) %
                              modules().size()];
                futures[static_cast<std::size_t>(t)].push_back(
                    server.enqueue(
                        prepared.bindSeeded(
                            static_cast<std::uint64_t>(t) * 1000 +
                            static_cast<std::uint64_t>(i % 5)),
                        module,
                        {"tenant" + std::to_string(i % kTenants),
                         (i / kTenants) % 2}));
            }
        });
    }
    for (auto &client : clients)
        client.join();
    server.drain();

    std::size_t completed = 0;
    for (auto &perThread : futures) {
        for (auto &future : perThread) {
            const QueryResponse response = future.get();
            EXPECT_EQ(response.stats.result.output.size(), bits());
            ++completed;
        }
    }
    EXPECT_EQ(completed,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(server.stats().completed,
              static_cast<std::uint64_t>(kThreads * kPerThread));

    // The sharded plan cache's ledger must stay exact under the
    // concurrent drain threads.
    const PlanCacheStats cache = service->planCacheStats();
    EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
}

TEST_F(QueryServerTest, VerifyErrorPropagatesThroughEveryFuture)
{
    EngineOptions engineOptions;
    engineOptions.slo.maxColumnErrorBound = 0.0; // Unmeetable.
    ASSERT_EQ(engineOptions.verify, VerifyPolicy::Enforce);
    auto service =
        std::make_shared<QueryService>(session_, engineOptions);

    ServerOptions options;
    options.shards = 1;
    options.startPaused = true;
    QueryServer server(service, options);

    const PreparedQuery prepared = prepareShape(*service, 0);
    // The SK Hynix 'A' 2133 module certifies nonzero error bounds
    // under the service allocator, so the zero-bound SLO is
    // infeasible there (same module test_certify.cc uses).
    const FleetSession::Module *module =
        session_->findModule(Manufacturer::SkHynix, 4, 'A', 2133);
    ASSERT_NE(module, nullptr);

    auto first = server.enqueue(prepared.bindSeeded(1), *module);
    auto second = server.enqueue(prepared.bindSeeded(2), *module);
    server.resume();
    server.drain();

    // One window = one plan: the SLO rejection lands in both futures.
    EXPECT_THROW(first.get(), verify::VerifyError);
    EXPECT_THROW(second.get(), verify::VerifyError);
    EXPECT_EQ(server.stats().completed, 2u);
}

TEST_F(QueryServerTest, InvalidBindingAndStoppedServerRejectAtEnqueue)
{
    auto service = makeService();
    QueryServer server(service, ServerOptions{});

    const PreparedQuery prepared = prepareShape(*service, 0);
    const FleetSession::Module &module = modules().front();

    // Missing columns fail synchronously, before any batch forms.
    EXPECT_THROW(server.enqueue(prepared.bind(
                                    std::map<std::string, BitVector>{}),
                                module),
                 std::invalid_argument);

    server.stop();
    EXPECT_THROW(server.enqueue(prepared.bindSeeded(1), module),
                 std::logic_error);
}

} // namespace
} // namespace fcdram
