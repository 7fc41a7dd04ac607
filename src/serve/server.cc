#include "serve/server.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "fcdram/scheduler.hh"
#include "obs/telemetry.hh"

namespace fcdram::serve {

namespace {

/** Wall-clock latency buckets (µs): admission -> flush/complete. */
const std::vector<double> &
latencyBoundsUs()
{
    static const std::vector<double> bounds{
        1.0,   2.0,   5.0,   10.0,  20.0,  50.0,  100.0,
        200.0, 500.0, 1e3,   2e3,   5e3,   1e4,   2e4,
        5e4,   1e5,   2e5,   5e5,   1e6};
    return bounds;
}

} // namespace

/** One queued enqueue: the bound query plus its completion channel. */
struct QueryServer::Entry
{
    std::uint64_t serveId = 0;
    pud::BoundQuery query;
    FleetSession::Module module;
    BatchKey key; ///< Computed once, at admission.
    std::promise<QueryResponse> promise;

    /** Admission timestamp; 0 unless the wallClock pillar is on. */
    double admitUs = 0.0;
};

/**
 * One live (non-empty) tenant queue. It carries the tenant's weight
 * and its served-ledger slot, so seed selection looks nothing up.
 */
struct QueryServer::TenantQueue
{
    std::deque<Entry> entries;
    double weight = 1.0;
    double *served = nullptr; ///< Node of Shard::served (stable).
};

/**
 * One shard: tenant queues plus the dedicated drain thread. Only
 * non-empty queues exist (gatherWindow relies on it). depth counts
 * queued entries, inflight counts entries inside a flush; drain()
 * waits for both to reach zero (idleCv).
 */
struct QueryServer::Shard
{
    std::mutex mutex;
    std::condition_variable cv;
    std::condition_variable idleCv;

    std::map<QueueKey, TenantQueue> queues;

    /** Weighted-fairness ledger: entries drained per tenant. Outlives
     * the tenant's queue. */
    std::map<std::string, double> served;

    std::size_t depth = 0;
    std::size_t inflight = 0;

    std::thread worker;
};

QueryServer::QueryServer(std::shared_ptr<pud::QueryService> service,
                         ServerOptions options)
    : service_(std::move(service)), options_(options)
{
    if (service_ == nullptr) {
        throw std::invalid_argument(
            "QueryServer: null query service");
    }
    if (options_.maxBatch == 0) {
        throw std::invalid_argument(
            "QueryServer: maxBatch must be at least 1");
    }
    if (options_.maxQueueDepth == 0) {
        throw std::invalid_argument(
            "QueryServer: maxQueueDepth must be at least 1");
    }
    int shardCount = options_.shards;
    if (shardCount <= 0)
        shardCount = Scheduler::hardwareWorkers();
    options_.shards = shardCount;
    paused_.store(options_.startPaused, std::memory_order_release);

    shards_.reserve(static_cast<std::size_t>(shardCount));
    for (int s = 0; s < shardCount; ++s)
        shards_.push_back(std::make_unique<Shard>());
    for (auto &shard : shards_) {
        shard->worker = std::thread(
            [this, raw = shard.get()] { drainLoop(*raw); });
    }
}

QueryServer::~QueryServer() { stop(); }

double
QueryServer::tenantWeight(const std::string &tenant) const
{
    const auto it = options_.tenantWeights.find(tenant);
    if (it == options_.tenantWeights.end() || it->second <= 0.0)
        return 1.0;
    return it->second;
}

std::future<QueryResponse>
QueryServer::enqueue(pud::BoundQuery query,
                     const FleetSession::Module &module,
                     const ClientId &client)
{
    obs::Telemetry &tel = obs::global();
    obs::Span span(tel, "serve.enqueue");
    span.arg("module", static_cast<std::uint64_t>(module.index));

    if (stopping_.load(std::memory_order_acquire)) {
        throw std::logic_error(
            "QueryServer::enqueue: server stopped");
    }
    // Fail invalid bindings at admission: a window is one plan, and
    // flush-time validation failures would reject innocent peers.
    service_->validateBound(query);

    Shard &shard =
        *shards_[module.index % shards_.size()];

    Entry entry;
    entry.key = BatchKey{module.index, query.query().exprHash(),
                         service_->temperatureEpoch()};
    entry.query = std::move(query);
    entry.module = module;
    if (tel.wallClockOn())
        entry.admitUs = obs::Telemetry::nowUs();
    std::future<QueryResponse> future = entry.promise.get_future();

    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.depth >= options_.maxQueueDepth) {
            if (tel.metricsOn())
                tel.add(tel.counter("serve.rejected"));
            {
                const std::lock_guard<std::mutex> statsLock(
                    statsMutex_);
                ++stats_.rejected;
            }
            // The hint scales with the observed overload: a queue at
            // twice the cap suggests waiting twice the base.
            const double hint =
                options_.retryAfterMs *
                (static_cast<double>(shard.depth) /
                 static_cast<double>(options_.maxQueueDepth));
            std::ostringstream message;
            message << "QueryServer::enqueue: shard "
                    << module.index % shards_.size() << " at depth "
                    << shard.depth << " (cap "
                    << options_.maxQueueDepth
                    << "); retry after " << hint << " ms";
            throw AdmissionError(message.str(), hint);
        }
        entry.serveId =
            nextServeId_.fetch_add(1, std::memory_order_relaxed);
        span.arg("serve_id", entry.serveId);
        const auto [queueIt, fresh] = shard.queues.try_emplace(
            QueueKey{-client.priority, client.tenant});
        if (fresh) {
            queueIt->second.weight = tenantWeight(client.tenant);
            queueIt->second.served = &shard.served[client.tenant];
        }
        queueIt->second.entries.push_back(std::move(entry));
        ++shard.depth;
        {
            const std::lock_guard<std::mutex> statsLock(statsMutex_);
            ++stats_.enqueued;
            stats_.maxDepth = std::max<std::uint64_t>(
                stats_.maxDepth, shard.depth);
        }
    }
    if (tel.metricsOn())
        tel.add(tel.counter("serve.enqueued"));
    shard.cv.notify_one();
    return future;
}

std::vector<QueryServer::Entry>
QueryServer::gatherWindow(Shard &shard)
{
    // Caller holds shard.mutex.
    //
    // Seed selection: among the (all non-empty) queues of the highest
    // priority present, the tenant with the smallest served/weight
    // ratio wins; strict < keeps the lexicographically first tenant
    // on ties (map order), so the drain order is fully deterministic
    // given the queue state.
    if (shard.queues.empty())
        return {};
    const int activePriority = shard.queues.begin()->first.first;
    auto seedIt = shard.queues.begin();
    double bestScore = *seedIt->second.served / seedIt->second.weight;
    for (auto it = std::next(seedIt);
         it != shard.queues.end() && it->first.first == activePriority;
         ++it) {
        const double score = *it->second.served / it->second.weight;
        if (score < bestScore) {
            seedIt = it;
            bestScore = score;
        }
    }

    std::vector<Entry> window;
    window.reserve(options_.maxBatch);
    window.push_back(std::move(seedIt->second.entries.front()));
    seedIt->second.entries.pop_front();
    *seedIt->second.served += 1.0;
    if (seedIt->second.entries.empty())
        shard.queues.erase(seedIt);
    const BatchKey key = window.front().key;

    // Coalesce compatible entries from EVERY tenant queue (same
    // module, plan hash, and temperature epoch), preserving each
    // queue's FIFO order among the entries taken. Cross-tenant
    // coalescing is the point: thousands of tenants sharing a few
    // hot query shapes dedup onto shared executions.
    for (auto it = shard.queues.begin();
         it != shard.queues.end() && window.size() < options_.maxBatch;) {
        std::deque<Entry> &queue = it->second.entries;
        for (auto entryIt = queue.begin();
             entryIt != queue.end() &&
             window.size() < options_.maxBatch;) {
            if (entryIt->key == key) {
                *it->second.served += 1.0;
                window.push_back(std::move(*entryIt));
                entryIt = queue.erase(entryIt);
            } else {
                ++entryIt;
            }
        }
        it = queue.empty() ? shard.queues.erase(it) : std::next(it);
    }
    shard.depth -= window.size();
    shard.inflight += window.size();
    return window;
}

void
QueryServer::flushWindow(Shard &shard, std::vector<Entry> window)
{
    obs::Telemetry &tel = obs::global();
    const std::uint64_t batchId =
        nextBatchId_.fetch_add(1, std::memory_order_relaxed);
    obs::Span span(tel, "serve.flush");
    span.arg("batch", batchId);
    span.arg("queries", static_cast<std::uint64_t>(window.size()));
    span.arg("module", static_cast<std::uint64_t>(
                           window.front().module.index));

    // Dedup identical (plan, dataKey) entries onto one execution:
    // execution is a pure function of (module, plan, data,
    // temperature), so one chip pass serves every duplicate
    // bit-identically. First-seen order keeps the submit
    // deterministic in the window order.
    std::vector<std::size_t> groupOf(window.size(), 0);
    std::vector<pud::BoundQuery> representatives;
    std::vector<std::size_t> shareCounts;
    std::map<std::pair<bool, std::uint64_t>, std::size_t> groups;
    for (std::size_t i = 0; i < window.size(); ++i) {
        const auto dataKey = window[i].query.dataKey();
        const auto [it, fresh] =
            groups.emplace(dataKey, representatives.size());
        if (fresh) {
            representatives.push_back(window[i].query);
            shareCounts.push_back(0);
        }
        groupOf[i] = it->second;
        ++shareCounts[it->second];
    }

    const bool wallClock = tel.wallClockOn();
    const double flushStartUs =
        wallClock ? obs::Telemetry::nowUs() : 0.0;

    std::size_t executed = 0;
    try {
        const pud::QueryTicket ticket = service_->submit(
            representatives, window.front().module);
        pud::BatchQueryResult result = service_->collect(ticket);
        executed = representatives.size();
        const double doneUs =
            wallClock ? obs::Telemetry::nowUs() : 0.0;

        if (tel.metricsOn()) {
            tel.add(tel.counter("serve.batches"));
            tel.add(tel.counter("serve.batched_queries"),
                    window.size());
            tel.add(tel.counter("serve.executions"),
                    representatives.size());
            if (window.size() > representatives.size()) {
                tel.add(tel.counter("serve.coalesced"),
                        window.size() - representatives.size());
            }
        }

        for (std::size_t i = 0; i < window.size(); ++i) {
            Entry &entry = window[i];
            QueryResponse response;
            response.serveId = entry.serveId;
            response.batchId = batchId;
            response.batchQueries = window.size();
            response.shareCount = shareCounts[groupOf[i]];
            // Copy, not move: duplicates fan one execution out to
            // several waiters.
            response.stats =
                result.queries[groupOf[i]].modules.front();
            if (wallClock) {
                response.queueUs =
                    std::max(0.0, flushStartUs - entry.admitUs);
                response.e2eUs =
                    std::max(0.0, doneUs - entry.admitUs);
                if (tel.metricsOn()) {
                    tel.observe(tel.histogram("serve.queue_us",
                                              latencyBoundsUs()),
                                response.queueUs);
                    tel.observe(tel.histogram("serve.e2e_us",
                                              latencyBoundsUs()),
                                response.e2eUs);
                }
            }
            entry.promise.set_value(std::move(response));
        }
    } catch (...) {
        // One window = one plan: a submit-time rejection (e.g.
        // verify::VerifyError) holds for every entry of the window
        // identically.
        const std::exception_ptr error = std::current_exception();
        for (Entry &entry : window)
            entry.promise.set_exception(error);
    }

    // Stats first, inflight last: once drain() observes an idle
    // shard, every completed window is already on the ledger.
    {
        const std::lock_guard<std::mutex> statsLock(statsMutex_);
        stats_.completed += window.size();
        ++stats_.batches;
        stats_.executions += executed;
        if (executed != 0)
            stats_.coalesced += window.size() - executed;
    }

    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        shard.inflight -= window.size();
    }
    shard.idleCv.notify_all();
}

void
QueryServer::drainLoop(Shard &shard)
{
    for (;;) {
        std::vector<Entry> window;
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            shard.cv.wait(lock, [&] {
                return stopping_.load(std::memory_order_acquire) ||
                       (!paused_.load(std::memory_order_acquire) &&
                        shard.depth > 0);
            });
            const bool stopping =
                stopping_.load(std::memory_order_acquire);
            if (shard.depth > 0 &&
                (stopping ||
                 !paused_.load(std::memory_order_acquire)))
                window = gatherWindow(shard);
            else if (stopping)
                return; // Queue empty and shutting down.
        }
        if (!window.empty())
            flushWindow(shard, std::move(window));
    }
}

void
QueryServer::drain()
{
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        std::unique_lock<std::mutex> lock(shard.mutex);
        shard.idleCv.wait(lock, [&] {
            return shard.depth == 0 && shard.inflight == 0;
        });
    }
}

void
QueryServer::pause()
{
    paused_.store(true, std::memory_order_release);
}

void
QueryServer::resume()
{
    paused_.store(false, std::memory_order_release);
    // Lock-step with each drain thread's predicate check so the
    // wakeup cannot be lost.
    for (auto &shard : shards_) {
        { const std::lock_guard<std::mutex> lock(shard->mutex); }
        shard->cv.notify_all();
    }
}

void
QueryServer::stop()
{
    const std::lock_guard<std::mutex> lock(stopMutex_);
    stopping_.store(true, std::memory_order_release);
    paused_.store(false, std::memory_order_release);
    for (auto &shard : shards_) { // Lock-step as in resume().
        { const std::lock_guard<std::mutex> shardLock(shard->mutex); }
        shard->cv.notify_all();
    }
    for (auto &shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
    }
    // An enqueue that raced the shutdown may have slipped an entry in
    // after its worker exited; flush inline so no future ever hangs.
    for (auto &shardPtr : shards_) {
        for (;;) {
            std::vector<Entry> window;
            {
                const std::lock_guard<std::mutex> shardLock(
                    shardPtr->mutex);
                window = gatherWindow(*shardPtr);
            }
            if (window.empty())
                break;
            flushWindow(*shardPtr, std::move(window));
        }
    }
}

ServerStats
QueryServer::stats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

} // namespace fcdram::serve
