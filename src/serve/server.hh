/**
 * @file
 * QueryServer: the concurrent serving tier over the prepared-query
 * lifecycle (pud/service.hh).
 *
 *   enqueue(bound, module, client) -> std::future<QueryResponse>
 *
 * Clients enqueue bound queries against fleet modules and block on
 * futures; dedicated per-shard drain threads batch and flush them
 * through one shared QueryService. The pipeline per query:
 *
 *   enqueue   admission control (bounded per-shard queue depth,
 *             synchronous AdmissionError with a retry-after hint
 *             beyond the cap) + validation (invalid bindings fail
 *             here, never poisoning a batch) + routing: module m
 *             always lands on shard m % shards, so the batching
 *             composition is invariant to the shard count;
 *   shard     weighted-FIFO fairness across tenants: queues are keyed
 *             (priority desc, tenant) and a shard holds only
 *             non-empty ones — a drained queue is erased, while the
 *             tenant's served count outlives it; the drain thread
 *             serves the highest priority present and, within it,
 *             the tenant with the smallest served/weight ratio
 *             (lexicographic tie-break — fully deterministic for
 *             tests);
 *   batch     a batching window coalesces queries compatible with the
 *             selected seed query — same module, same plan hash
 *             (hence same resolved backend/capability), same
 *             temperature epoch, keyed once at admission — up to
 *             maxBatch entries, pulling compatible entries from every
 *             tenant queue; a window's cost grows with the entries
 *             queued on its shard, not with the tenants it has seen;
 *   flush     entries with identical (plan, dataKey) share ONE chip
 *             execution and the result fans out to every waiter
 *             (QueryResponse::shareCount); distinct datasets ride the
 *             same submit as one fleet pass over the module. A
 *             VerifyError applies to the whole window (one plan) and
 *             is delivered through every future.
 *
 * Determinism contract under concurrency: per-query results are a
 * pure function of (module, plan, data, temperature) — the service
 * executes every query on a fresh chip with a module-seeded RNG — so
 * the same query set yields bit-identical per-query results for ANY
 * shard/worker count and ANY batching composition (enforced by test
 * and by the CI RESULT_HASH diff). serveIds follow the enqueue call
 * order. Batch composition itself (which queries shared a window)
 * is timing-dependent; tests pin it with pause()/resume().
 */

#ifndef FCDRAM_SERVE_SERVER_HH
#define FCDRAM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pud/service.hh"

namespace fcdram::serve {

/** Admission, batching, and fairness policy of one QueryServer. */
struct ServerOptions
{
    /**
     * Shard (= drain thread) count; <= 0 selects the hardware worker
     * count (Scheduler::hardwareWorkers). Module m is always routed
     * to shard m % shards.
     */
    int shards = 0;

    /** Most entries one batching window coalesces (before dedup). */
    std::size_t maxBatch = 32;

    /**
     * Per-shard admission cap: an enqueue finding this many entries
     * already queued is rejected with AdmissionError.
     */
    std::size_t maxQueueDepth = 1024;

    /**
     * Base of the AdmissionError retry-after hint; the hint scales
     * with the observed overload (depth / maxQueueDepth).
     */
    double retryAfterMs = 1.0;

    /**
     * Weighted-FIFO shares per tenant; unlisted tenants weigh 1.
     * A tenant with weight w gets w times the drain share of a
     * weight-1 tenant under contention.
     */
    std::map<std::string, double> tenantWeights;

    /**
     * Construct paused: entries queue but nothing drains until
     * resume(). Tests use this to pin the batching composition.
     */
    bool startPaused = false;
};

/** Client identity and scheduling class of one enqueue. */
struct ClientId
{
    std::string tenant = "default";
    int priority = 0; ///< Higher priority drains strictly first.
};

/**
 * Synchronous admission rejection (backpressure): the shard queue is
 * at its policy cap. Carries a retry-after hint proportional to the
 * observed overload.
 */
class AdmissionError : public std::runtime_error
{
  public:
    AdmissionError(const std::string &what, double retryAfterMs)
        : std::runtime_error(what), retryAfterMs_(retryAfterMs)
    {
    }

    double retryAfterMs() const { return retryAfterMs_; }

  private:
    double retryAfterMs_;
};

/** What an enqueue's future resolves to. */
struct QueryResponse
{
    /** Enqueue sequence number (deterministic in the call order). */
    std::uint64_t serveId = 0;

    /** Execution result + certificate on the routed module. */
    pud::ModuleQueryStats stats;

    /** Flush batch this query rode (informational, timing-shaped). */
    std::uint64_t batchId = 0;

    /** Entries coalesced into that flush window. */
    std::size_t batchQueries = 0;

    /**
     * Waiters served by this query's single chip execution: > 1 when
     * identical (plan, dataKey) requests were deduplicated onto one
     * execution and fanned out.
     */
    std::size_t shareCount = 1;

    /** Admission -> flush-start wall clock; 0 unless the wallClock
     * telemetry pillar is on. */
    double queueUs = 0.0;

    /** Admission -> completion wall clock; 0 unless wallClock is on. */
    double e2eUs = 0.0;
};

/** Cumulative serving counters (QueryServer::stats). */
struct ServerStats
{
    std::uint64_t enqueued = 0;
    std::uint64_t rejected = 0;  ///< AdmissionError throws.
    std::uint64_t completed = 0; ///< Futures fulfilled (incl. errors).
    std::uint64_t batches = 0;   ///< Flush windows executed.
    std::uint64_t executions = 0; ///< Chip executions after dedup.
    std::uint64_t coalesced = 0; ///< completed - executions share.
    std::uint64_t maxDepth = 0;  ///< High-water queue depth, any shard.
};

/**
 * Asynchronous sharded front-end over one QueryService. Thread safe:
 * any number of client threads may enqueue concurrently while the
 * shard drain threads flush. Destruction drains every queued entry
 * (futures all complete) before joining the threads.
 */
class QueryServer
{
  public:
    explicit QueryServer(std::shared_ptr<pud::QueryService> service,
                         ServerOptions options = ServerOptions());

    /** Stops accepting work, drains the queues, joins the threads. */
    ~QueryServer();

    QueryServer(const QueryServer &) = delete;
    QueryServer &operator=(const QueryServer &) = delete;

    const ServerOptions &options() const { return options_; }
    const std::shared_ptr<pud::QueryService> &service() const
    {
        return service_;
    }

    /** Resolved shard count. */
    std::size_t shards() const { return shards_.size(); }

    /**
     * Queue @p query for execution on @p module. Returns a future
     * resolving to the result (or to the submit-time exception, e.g.
     * verify::VerifyError under VerifyPolicy::Enforce).
     *
     * @throws AdmissionError when the shard queue is at the policy
     *         cap (backpressure; retry after the carried hint).
     * @throws std::invalid_argument when the binding is invalid at
     *         the session geometry (validated here, at admission).
     * @throws std::logic_error after stop().
     */
    std::future<QueryResponse>
    enqueue(pud::BoundQuery query, const FleetSession::Module &module,
            const ClientId &client = ClientId());

    /** Block until every queued and in-flight entry has completed. */
    void drain();

    /**
     * Stop draining after the current flush; entries keep queueing.
     * Tests pause, preload a window, then resume to make the batch
     * composition deterministic.
     */
    void pause();

    /** Resume draining after pause() (or a paused construction). */
    void resume();

    /**
     * Reject new enqueues, drain everything queued, join the drain
     * threads. Idempotent; also run by the destructor.
     */
    void stop();

    ServerStats stats() const;

  private:
    struct Entry;
    struct TenantQueue;
    struct Shard;

    /** Queue key: (-priority, tenant) — map order = drain order. */
    using QueueKey = std::pair<int, std::string>;

    /** Batching-compatibility key of one window. */
    struct BatchKey
    {
        std::size_t moduleIndex = 0;
        std::uint64_t exprHash = 0;
        std::uint64_t temperatureEpoch = 0;

        bool operator==(const BatchKey &other) const
        {
            return moduleIndex == other.moduleIndex &&
                   exprHash == other.exprHash &&
                   temperatureEpoch == other.temperatureEpoch;
        }
    };

    double tenantWeight(const std::string &tenant) const;

    void drainLoop(Shard &shard);

    /** Pop the next batching window; empty when nothing is queued. */
    std::vector<Entry> gatherWindow(Shard &shard);

    void flushWindow(Shard &shard, std::vector<Entry> window);

    std::shared_ptr<pud::QueryService> service_;
    ServerOptions options_;

    std::vector<std::unique_ptr<Shard>> shards_;

    std::atomic<std::uint64_t> nextServeId_{1};
    std::atomic<std::uint64_t> nextBatchId_{1};
    std::atomic<bool> paused_{false};
    std::atomic<bool> stopping_{false};

    /** Serializes stop() callers (destructor included). */
    std::mutex stopMutex_;

    mutable std::mutex statsMutex_;
    ServerStats stats_;
};

} // namespace fcdram::serve

#endif // FCDRAM_SERVE_SERVER_HH
