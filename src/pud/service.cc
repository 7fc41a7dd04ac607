#include "pud/service.hh"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hh"
#include "obs/telemetry.hh"
#include "verify/verifier.hh"

namespace fcdram::pud {

namespace {

/** Componentwise scaling (all column loads cost the same write). */
QueryCost
scaleCost(const QueryCost &cost, double fraction)
{
    QueryCost scaled;
    scaled.commands = static_cast<std::uint64_t>(
        static_cast<double>(cost.commands) * fraction + 0.5);
    scaled.latencyNs = cost.latencyNs * fraction;
    scaled.energyNj = cost.energyNj * fraction;
    return scaled;
}

} // namespace

std::uint64_t
PreparedQuery::exprHash() const
{
    assert(state_ != nullptr);
    return state_->hash;
}

const std::vector<std::string> &
PreparedQuery::columns() const
{
    assert(state_ != nullptr);
    return state_->columnNames;
}

std::string
PreparedQuery::toString() const
{
    assert(state_ != nullptr);
    return state_->pool.toString(state_->root);
}

BoundQuery
PreparedQuery::bind(std::map<std::string, BitVector> columns) const
{
    return bind(
        std::make_shared<const std::map<std::string, BitVector>>(
            std::move(columns)));
}

BoundQuery
PreparedQuery::bind(
    std::shared_ptr<const std::map<std::string, BitVector>> columns)
    const
{
    assert(state_ != nullptr);
    if (columns == nullptr) {
        throw std::invalid_argument(
            "PreparedQuery::bind: null column data");
    }
    obs::Span span(obs::global(), "service.bind");
    span.arg("expr", state_->hash);
    BoundQuery bound;
    bound.query_ = *this;
    bound.columns_ = std::move(columns);
    return bound;
}

BoundQuery
PreparedQuery::bindSeeded(std::uint64_t dataSeedSalt) const
{
    assert(state_ != nullptr);
    BoundQuery bound;
    bound.query_ = *this;
    bound.seeded_ = true;
    bound.dataSeedSalt_ = dataSeedSalt;
    return bound;
}

std::pair<bool, std::uint64_t>
BoundQuery::dataKey() const
{
    if (seeded_)
        return {true, dataSeedSalt_};
    return {false,
            static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(columns_.get()))};
}

/**
 * Per-module fold of one submit: per-query rows plus the batch
 * ledgers. Folded in module order by runOverFleet (mergeFrom), so
 * every field is independent of the worker count.
 */
struct QueryService::BatchAccum
{
    std::vector<FleetQueryStats> queries;
    double serialLatencyNs = 0.0;
    double interleavedLatencyNs = 0.0;
    QueryCost naiveLoad;
    QueryCost residentLoad;

    void mergeFrom(BatchAccum &&other)
    {
        if (queries.size() < other.queries.size())
            queries.resize(other.queries.size());
        for (std::size_t i = 0; i < other.queries.size(); ++i)
            queries[i].mergeFrom(std::move(other.queries[i]));
        serialLatencyNs += other.serialLatencyNs;
        interleavedLatencyNs += other.interleavedLatencyNs;
        naiveLoad.add(other.naiveLoad);
        residentLoad.add(other.residentLoad);
    }
};

QueryService::QueryService(std::shared_ptr<FleetSession> session,
                           EngineOptions options)
    : session_(std::move(session)), engine_(session_, options),
      cache_(engine_)
{
}

PreparedQuery
QueryService::prepare(const ExprPool &pool, ExprId root)
{
    obs::Telemetry &tel = obs::global();
    obs::Span span(tel, "service.prepare");
    if (tel.metricsOn())
        tel.add(tel.counter("service.prepares"));
    auto state = std::make_shared<PreparedQuery::State>();
    // Deep-copy the expression so the handle outlives the caller's
    // pool; the canonical content hash keys every cache below.
    state->root = state->pool.import(pool, root);
    state->hash = state->pool.hashOf(state->root);
    state->columnNames = state->pool.columnsOf(state->root);
    span.arg("expr", state->hash);
    PreparedQuery prepared;
    prepared.state_ = std::move(state);
    return prepared;
}

void
QueryService::validateBound(const BoundQuery &bound) const
{
    if (!bound.valid()) {
        throw std::invalid_argument(
            "QueryService::submit: unbound query in batch");
    }
    if (bound.seeded_)
        return;
    if (bound.columns_ == nullptr) {
        // Defense in depth for release builds: the contract is
        // std::invalid_argument, never a null dereference.
        throw std::invalid_argument(
            "QueryService::submit: binding carries no data");
    }
    const auto bits = static_cast<std::size_t>(
        session_->config().geometry.columns);
    for (const std::string &name : bound.query_.state_->columnNames) {
        const auto it = bound.columns_->find(name);
        if (it == bound.columns_->end()) {
            throw std::invalid_argument(
                "QueryService::submit: bound data misses "
                "column '" +
                name + "'");
        }
        if (it->second.size() != bits) {
            std::ostringstream message;
            message << "QueryService::submit: column '" << name
                    << "' has " << it->second.size()
                    << " bits, session geometry needs " << bits;
            throw std::invalid_argument(message.str());
        }
    }
}

void
QueryService::validate(const std::vector<BoundQuery> &batch) const
{
    if (batch.empty()) {
        throw std::invalid_argument(
            "QueryService::submit: empty batch");
    }
    for (const BoundQuery &bound : batch)
        validateBound(bound);
}

void
QueryService::runBatchOnModule(const FleetSession::Module &module,
                               const std::vector<BoundQuery> &batch,
                               BatchAccum &accum)
{
    obs::Telemetry &tel = obs::global();
    // Direct single-module submits bypass runOverFleet, so (re)apply
    // the module scope here; under a fleet run this is idempotent.
    const obs::MetricScope scope(module.index);
    obs::Span batchSpan(tel, "module_batch");
    batchSpan.arg("module",
                  static_cast<std::uint64_t>(module.index));
    batchSpan.arg("queries",
                  static_cast<std::uint64_t>(batch.size()));

    const auto bits = static_cast<std::size_t>(
        session_->config().geometry.columns);
    const Celsius temperature = [&] {
        const std::lock_guard<std::mutex> lock(mutex_);
        return temperatureOverride_.value_or(
            session_->chip(module).temperature());
    }();

    // One label per module visit: ModuleSpec::profile() builds the
    // whole ChipProfile.
    const std::string label = module.spec->profile().label() + " #" +
                              std::to_string(module.index);

    accum.queries.resize(batch.size());
    std::map<int, double> bankBusyNs;
    double serialNs = 0.0;
    double slowestNs = 0.0;
    QueryCost naive;
    double totalLoads = 0.0;
    std::set<std::string> residentColumns;

    for (std::size_t q = 0; q < batch.size(); ++q) {
        const BoundQuery &bound = batch[q];
        const PreparedQuery::State &state = *bound.query_.state_;
        obs::Span querySpan(tel, "query");
        querySpan.arg("expr", state.hash);
        querySpan.arg("index", static_cast<std::uint64_t>(q));
        const std::shared_ptr<const PlacementPlan> plan =
            cache_.plan(state.hash, state.pool, state.root, module,
                        temperature);
        // Error-bearing plans must not touch the chip under Enforce.
        // Throwing here propagates through the scheduler (run()
        // rethrows the first task exception) out of submit().
        if (engine_.options().verify == VerifyPolicy::Enforce &&
            plan->verification.hasErrors()) {
            const bool sloViolation = std::any_of(
                plan->verification.diagnostics().begin(),
                plan->verification.diagnostics().end(),
                [](const verify::Diagnostic &diagnostic) {
                    return diagnostic.rule == "UPL202";
                });
            if (tel.metricsOn()) {
                tel.add(tel.counter("verify.rejected_plans"));
                if (sloViolation)
                    tel.add(tel.counter("verify.slo_rejections"));
            }
            std::ostringstream message;
            message << "QueryService::submit: plan for query '"
                    << bound.query_.toString() << "' on module "
                    << module.index << " fails static verification ("
                    << verify::summarizeVerdict(plan->verification)
                    << ")";
            throw verify::VerifyError(message.str(),
                                      plan->verification);
        }
        // Explicit bindings are shared immutable data: point at
        // them instead of deep-copying the bitmaps per module and
        // submit (the warm path must not re-pay data movement).
        std::map<std::string, BitVector> seededData;
        if (bound.seeded_) {
            seededData = PudEngine::randomColumns(
                state.columnNames, bits,
                hashCombine(module.seed, bound.dataSeedSalt_));
        }
        const std::map<std::string, BitVector> &data =
            bound.seeded_ ? seededData : *bound.columns_;

        // Fresh chip per query: command-level execution mutates rows,
        // and the contract is bit-identity with a cold one-shot run.
        Chip chip = session_->checkoutChip(module);
        chip.setTemperature(temperature);

        ModuleQueryStats stats;
        stats.moduleIndex = module.index;
        stats.label = label;
        stats.certificate = plan->certificate;
        stats.result = engine_.execute(
            *plan->program, plan->placement, plan->temperature, chip,
            hashCombine(module.seed,
                        engine_.options().benderSeedSalt),
            data);

        serialNs += stats.result.dram.latencyNs;
        slowestNs = std::max(slowestNs, stats.result.dram.latencyNs);
        for (const auto &[bank, ns] : stats.result.bankBusyNs)
            bankBusyNs[bank] += ns;
        naive.add(stats.result.load);
        totalLoads += plan->program->loadOps();
        residentColumns.insert(state.columnNames.begin(),
                               state.columnNames.end());

        accum.queries[q].modules.push_back(std::move(stats));
    }

    // Interleaving model: across the queries of one batch, wave
    // execution overlaps across banks. The batch can finish no
    // earlier than its slowest single query (waves serialize within
    // a query) and no earlier than the busiest bank's total command
    // time (the bank bus serializes).
    double busiestBankNs = 0.0;
    for (const auto &[bank, ns] : bankBusyNs)
        busiestBankNs = std::max(busiestBankNs, ns);
    accum.serialLatencyNs += serialNs;
    accum.interleavedLatencyNs += std::max(slowestNs, busiestBankNs);

    // Copy-in staging: columns shared between the batch's queries are
    // resident once; the naive ledger charges every query its own
    // loads, the resident ledger dedupes them.
    accum.naiveLoad.add(naive);
    const double fraction =
        totalLoads == 0.0
            ? 1.0
            : static_cast<double>(residentColumns.size()) /
                  totalLoads;
    accum.residentLoad.add(scaleCost(naive, fraction));
}

QueryTicket
QueryService::store(BatchQueryResult result)
{
    // Ticket ids are the submit sequence: unique, never 0, and
    // deterministic in the submit call order (never in the worker
    // count).
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = nextSequence_++;
    pending_.emplace(id, std::move(result));
    return QueryTicket{id};
}

BatchQueryResult
QueryService::packageResult(BatchAccum &&accum,
                            const PlanCacheStats &before)
{
    BatchQueryResult result;
    result.queries = std::move(accum.queries);
    result.serialLatencyNs = accum.serialLatencyNs;
    result.interleavedLatencyNs = accum.interleavedLatencyNs;
    result.naiveLoad = accum.naiveLoad;
    result.residentLoad = accum.residentLoad;
    result.cache = cache_.stats() - before;
    return result;
}

QueryTicket
QueryService::submit(std::vector<BoundQuery> batch,
                     FleetSession::Fleet fleet)
{
    obs::Telemetry &tel = obs::global();
    obs::Span span(tel, "service.submit");
    span.arg("queries", static_cast<std::uint64_t>(batch.size()));
    if (tel.metricsOn()) {
        tel.add(tel.counter("service.submits"));
        tel.add(tel.counter("service.queries"), batch.size());
    }
    validate(batch);
    const PlanCacheStats before = cache_.stats();
    BatchAccum accum = session_->runOverFleet<BatchAccum>(
        fleet, [&](const FleetSession::ModuleView &view,
                   BatchAccum &partial) {
            runBatchOnModule(view.module, batch, partial);
        });
    const QueryTicket ticket =
        store(packageResult(std::move(accum), before));
    span.arg("ticket", ticket.id);
    return ticket;
}

QueryTicket
QueryService::submit(std::vector<BoundQuery> batch,
                     const FleetSession::Module &module)
{
    obs::Telemetry &tel = obs::global();
    obs::Span span(tel, "service.submit");
    span.arg("queries", static_cast<std::uint64_t>(batch.size()));
    span.arg("module", static_cast<std::uint64_t>(module.index));
    if (tel.metricsOn()) {
        tel.add(tel.counter("service.submits"));
        tel.add(tel.counter("service.queries"), batch.size());
    }
    validate(batch);
    const PlanCacheStats before = cache_.stats();
    BatchAccum accum;
    runBatchOnModule(module, batch, accum);
    const QueryTicket ticket =
        store(packageResult(std::move(accum), before));
    span.arg("ticket", ticket.id);
    return ticket;
}

BatchQueryResult
QueryService::collect(const QueryTicket &ticket)
{
    obs::Telemetry &tel = obs::global();
    obs::Span span(tel, "service.collect");
    span.arg("ticket", ticket.id);
    if (tel.metricsOn())
        tel.add(tel.counter("service.collects"));

    // The cache ledger must classify every lookup as exactly one of
    // hit or miss; a drift here means a counting bug upstream, so
    // fail loudly at the API boundary instead of shipping skewed
    // cache deltas in results.
    const PlanCacheStats cacheNow = cache_.stats();
    if (cacheNow.hits + cacheNow.misses != cacheNow.lookups) {
        std::ostringstream message;
        message << "QueryService::collect: plan cache ledger "
                   "inconsistent (hits "
                << cacheNow.hits << " + misses " << cacheNow.misses
                << " != lookups " << cacheNow.lookups << ")";
        throw std::logic_error(message.str());
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(ticket.id);
    if (it == pending_.end()) {
        std::ostringstream message;
        message << "QueryService::collect: unknown or already "
                   "collected ticket "
                << ticket.id;
        throw std::invalid_argument(message.str());
    }
    BatchQueryResult result = std::move(it->second);
    pending_.erase(it);
    return result;
}

void
QueryService::setTemperature(Celsius temperature)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    temperatureOverride_ = temperature;
    ++temperatureEpoch_;
}

void
QueryService::clearTemperature()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    temperatureOverride_.reset();
    ++temperatureEpoch_;
}

std::uint64_t
QueryService::temperatureEpoch() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return temperatureEpoch_;
}

} // namespace fcdram::pud
