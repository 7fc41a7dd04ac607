/**
 * @file
 * QueryService: the prepared-query lifecycle API of the PuD engine.
 *
 *   prepare(pool, expr)  -> PreparedQuery   (self-contained handle)
 *   PreparedQuery::bind  -> BoundQuery      (data, separate from plan)
 *   submit(batch, fleet) -> QueryTicket     (one fleet pass)
 *   collect(ticket)      -> BatchQueryResult (results + cache counters)
 *
 * A one-shot run would re-pay compilation, slot ranking, and
 * reliability-mask derivation on every call; the service
 * amortizes them the way bulk-bitwise substrates assume queries are
 * issued repeatedly over resident data (Buddy-RAM): prepare caches
 * the compiled μprogram per backend shape, and a lazily built
 * per-module PlacementPlan (allocator slots + masks, pud/plan.hh)
 * keyed by (expression hash, resolved backend, chip profile,
 * temperature) serves every later submit. Plans go stale when the
 * submit temperature changes and are re-derived through the
 * stale-mask machinery rather than trusted.
 *
 * submit() batches any number of bound queries into ONE fleet pass
 * over FleetSession::runOverFleet: each module is visited once, all
 * queries of the batch execute against it there (copy-in staging is
 * shared — the batch ledger reports the deduplicated resident-column
 * load next to the naive per-query sum), and the analytic latency
 * model additionally interleaves the queries' waves across banks.
 * Ticket ids are the submit sequence, so they are deterministic and
 * independent of the worker count, as are all results
 * (module-ordered accumulator fold).
 */

#ifndef FCDRAM_PUD_SERVICE_HH
#define FCDRAM_PUD_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pud/engine.hh"
#include "pud/plan.hh"

namespace fcdram::pud {

class BoundQuery;

/** Default data-seed salt of seeded bindings (fleet sweeps). */
inline constexpr std::uint64_t kDefaultDataSeedSalt = 0xDA7AULL;

/**
 * Value-semantic handle on a prepared query. Self-contained: the
 * expression is deep-copied into a private pool at prepare() time, so
 * the caller's ExprPool may go away. Cheap to copy (shared immutable
 * state) and usable with any QueryService — plan caches key on the
 * expression content hash, not on the handle.
 */
class PreparedQuery
{
  public:
    PreparedQuery() = default;

    bool valid() const { return state_ != nullptr; }

    /** Canonical content hash (ExprPool::hashOf) — the plan key. */
    std::uint64_t exprHash() const;

    /** Sorted unique names of the columns the query reads. */
    const std::vector<std::string> &columns() const;

    /** Prefix-notation rendering (tests and logs). */
    std::string toString() const;

    /**
     * Attach explicit column data. Every referenced column must be
     * present; submit() validates names and sizes against the
     * session geometry (std::invalid_argument otherwise). On a fleet
     * submit the same data runs on every module.
     */
    BoundQuery bind(std::map<std::string, BitVector> columns) const;

    /**
     * Same, sharing an existing immutable dataset: binding N queries
     * of one batch to one shared_ptr keeps a single copy of the
     * bitmaps instead of N.
     */
    BoundQuery
    bind(std::shared_ptr<const std::map<std::string, BitVector>>
             columns) const;

    /**
     * Attach per-module deterministic random data derived from
     * hashCombine(module seed, @p dataSeedSalt) — the fleet-sweep
     * binding used by fleet benchmarks and campaign sweeps.
     */
    BoundQuery
    bindSeeded(std::uint64_t dataSeedSalt = kDefaultDataSeedSalt)
        const;

  private:
    friend class QueryService;
    friend class BoundQuery;

    struct State
    {
        ExprPool pool;
        ExprId root = kNoExpr;
        std::uint64_t hash = 0;
        std::vector<std::string> columnNames;
    };

    std::shared_ptr<const State> state_;
};

/**
 * A prepared query with its input data: the submit unit. Plans stay
 * on the service; binding only carries columns (or the seed recipe
 * for per-module data), so one PreparedQuery serves any number of
 * concurrent bindings.
 */
class BoundQuery
{
  public:
    BoundQuery() = default;

    bool valid() const { return query_.valid(); }
    const PreparedQuery &query() const { return query_; }

    /** True for bindSeeded (per-module data from the module seed). */
    bool seeded() const { return seeded_; }

    /**
     * Identity key of the bound dataset, for request coalescing in
     * the serving tier: two bindings with equal keys are guaranteed
     * to feed identical column data to any given module. Seeded
     * bindings compare by data-seed salt (their data is a pure
     * function of module seed and salt); explicit bindings compare by
     * the identity of the shared immutable dataset (the pointer), so
     * equal keys mean the same object, never a deep comparison.
     */
    std::pair<bool, std::uint64_t> dataKey() const;

  private:
    friend class PreparedQuery;
    friend class QueryService;

    PreparedQuery query_;
    std::shared_ptr<const std::map<std::string, BitVector>> columns_;
    bool seeded_ = false;
    std::uint64_t dataSeedSalt_ = kDefaultDataSeedSalt;
};

/**
 * Handle on a submitted batch. Ids are the service's submit
 * sequence: deterministic in the submit call order (never in the
 * worker count), and never 0.
 */
struct QueryTicket
{
    std::uint64_t id = 0;

    bool valid() const { return id != 0; }
};

/** What collect() returns: per-query fleet stats plus the ledgers. */
struct BatchQueryResult
{
    /** One entry per bound query, in submit order. */
    std::vector<FleetQueryStats> queries;

    /**
     * Plan-cache counter delta attributable to this submit,
     * computed as a snapshot difference over the shared cache.
     * Exact when submits are serialized (the usual pattern, and what
     * the benches assert on); submits racing on one service fold
     * each other's activity into overlapping deltas — cumulative
     * totals (QueryService::planCacheStats) stay exact either way.
     */
    PlanCacheStats cache;

    /**
     * Analytic batch timing, summed over modules: serial is the sum
     * of the queries' individual DRAM latencies; interleaved overlaps
     * the queries' per-bank busy time across banks (lower-bounded by
     * the slowest single query — its waves still serialize).
     */
    double serialLatencyNs = 0.0;
    double interleavedLatencyNs = 0.0;

    /**
     * Copy-in staging ledger, summed over modules: naive charges
     * every query its own column loads; resident dedupes columns
     * shared between the batch's queries (they are staged once).
     */
    QueryCost naiveLoad;
    QueryCost residentLoad;
};

/**
 * The prepared-query service over one fleet session. Thread safe;
 * ticket ids follow the submit call order. The concurrent serving
 * tier (serve/server.hh) layers batching windows, admission control,
 * and tenant fairness on top of this class.
 */
class QueryService
{
  public:
    explicit QueryService(std::shared_ptr<FleetSession> session,
                          EngineOptions options = EngineOptions());

    const EngineOptions &options() const { return engine_.options(); }
    const std::shared_ptr<FleetSession> &session() const
    {
        return session_;
    }

    /** The compile/execute core the service schedules over. */
    const PudEngine &engine() const { return engine_; }

    /** Compile-and-cache a query; see PreparedQuery. */
    PreparedQuery prepare(const ExprPool &pool, ExprId root);

    /**
     * Execute @p batch in one pass over every module of @p fleet.
     * Blocking (results are ready when the call returns); collect()
     * hands them out exactly once. @throws std::invalid_argument on
     * an empty batch, an invalid binding, or explicit columns that
     * do not cover the query at the session geometry. @throws
     * verify::VerifyError when a derived plan carries Error
     * diagnostics.
     */
    QueryTicket submit(std::vector<BoundQuery> batch,
                       FleetSession::Fleet fleet);

    /** Same, on a single module (explicit or seeded bindings). */
    QueryTicket submit(std::vector<BoundQuery> batch,
                       const FleetSession::Module &module);

    /**
     * Hand out a submitted batch's results. Each ticket collects
     * exactly once. @throws std::invalid_argument for an unknown or
     * already collected ticket.
     */
    BatchQueryResult collect(const QueryTicket &ticket);

    /**
     * Temperature subsequent submits execute at (and derive masks
     * for). Plans prepared at another temperature are invalidated
     * lazily on their next lookup. Default: the session chips'
     * temperature.
     */
    void setTemperature(Celsius temperature);
    void clearTemperature();

    /**
     * Monotone counter bumped by every setTemperature /
     * clearTemperature call. The serving tier stamps queries with the
     * epoch at enqueue time so one batching window never coalesces
     * bindings from both sides of a temperature change.
     */
    std::uint64_t temperatureEpoch() const;

    /**
     * Validate one binding exactly as submit() would: a bound query
     * whose explicit columns cover the expression at the session
     * geometry. @throws std::invalid_argument otherwise. The serving
     * tier fails invalid queries synchronously at enqueue instead of
     * poisoning a whole batch at flush time.
     */
    void validateBound(const BoundQuery &bound) const;

    /** Cumulative plan-cache counters (per-submit deltas ride the
     * BatchQueryResult). */
    PlanCacheStats planCacheStats() const { return cache_.stats(); }

  private:
    struct BatchAccum;

    void runBatchOnModule(const FleetSession::Module &module,
                          const std::vector<BoundQuery> &batch,
                          BatchAccum &accum);

    BatchQueryResult packageResult(BatchAccum &&accum,
                                   const PlanCacheStats &before);

    void validate(const std::vector<BoundQuery> &batch) const;

    QueryTicket store(BatchQueryResult result);

    std::shared_ptr<FleetSession> session_;
    PudEngine engine_;
    PlanCache cache_;

    mutable std::mutex mutex_;
    std::optional<Celsius> temperatureOverride_;
    std::uint64_t temperatureEpoch_ = 0;
    std::uint64_t nextSequence_ = 1;
    std::map<std::uint64_t, BatchQueryResult> pending_;
};

} // namespace fcdram::pud

#endif // FCDRAM_PUD_SERVICE_HH
