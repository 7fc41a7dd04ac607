/**
 * @file
 * Placement plans and the plan cache behind the prepared-query
 * lifecycle (pud/service.hh).
 *
 * A PlacementPlan is everything expensive about running one query on
 * one module: the compiled μprogram and its placement onto allocator
 * slots with reliability masks. The PlanCache memoizes three layers:
 *
 *  - compiled μprograms, keyed by (expression content hash, resolved
 *    backend, gate fan-in capability) — a program is chip-profile
 *    dependent only through that pair, so one compile serves every
 *    module resolving to the same shape;
 *  - row allocators, keyed by (module, mask temperature) — slot
 *    discovery rides the session's memoized qualifying-pair cache and
 *    is shared by every query against the module;
 *  - plans, keyed by (expression content hash, module) — the entry
 *    records the temperature its masks were derived at and is
 *    invalidated and re-derived when a submit executes at a different
 *    temperature (the stale-mask contract: PudEngine::execute rejects
 *    a temperature mismatch as a hard error, so the cache re-plans
 *    instead of ever trusting stale masks).
 *
 * Every derived plan is also statically verified
 * (verify::verifyPlan) at derivation time; the verdict is cached in
 * the PlacementPlan (warm submits re-check nothing) and mirrored into
 * the verify.* telemetry counters.
 *
 * Keys use ExprPool::hashOf, a canonical 64-bit structural hash; two
 * prepared queries with the same content share plans (hash collisions
 * are treated as identity, which at 64 bits is vanishingly unlikely
 * for in-memory cache lifetimes).
 */

#ifndef FCDRAM_PUD_PLAN_HH
#define FCDRAM_PUD_PLAN_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <utility>

#include "pud/allocator.hh"
#include "pud/engine.hh"
#include "verify/diagnostics.hh"

namespace fcdram::pud {

/**
 * Cache effectiveness counters. Cumulative over a PlanCache's
 * lifetime; QueryService reports the per-submit delta with every
 * collected batch, and bench_pud_query asserts that a warm submit of
 * a prepared batch performs zero compiles and zero placements.
 */
struct PlanCacheStats
{
    std::uint64_t lookups = 0; ///< plan() calls.
    std::uint64_t hits = 0;    ///< ... served entirely from cache.
    std::uint64_t misses = 0;  ///< ... that derived a new plan.

    /** Plans dropped because the submit temperature changed. */
    std::uint64_t invalidations = 0;

    std::uint64_t compiles = 0;        ///< Compiler invocations.
    std::uint64_t placements = 0;      ///< RowAllocator::place calls.
    std::uint64_t allocatorBuilds = 0; ///< RowAllocator constructions.

    /** Fieldwise difference (per-submit deltas from snapshots). */
    PlanCacheStats operator-(const PlanCacheStats &other) const;
};

/**
 * One query's cached execution recipe on one module: the compiled
 * μprogram (shared with every module of the same backend shape) and
 * its placement onto reliability-masked slots, stamped with the
 * temperature the masks were derived at.
 */
struct PlacementPlan
{
    std::shared_ptr<const MicroProgram> program;
    Placement placement;

    ComputeBackend backend = ComputeBackend::NandNor;
    int capability = 0;

    /** Mask-derivation temperature (must match execution). */
    Celsius temperature = kDefaultTemperature;

    std::uint64_t exprHash = 0;
    std::size_t moduleIndex = 0;

    /**
     * Cached static-verification verdict (src/verify/), derived once
     * with the plan. QueryService::submit rejects plans whose verdict
     * carries Errors. An SLO-violating certificate (UPL202) and
     * over-budget rows (UPL201) land in the same sink.
     */
    verify::DiagnosticSink verification;

    /**
     * Certified per-column error bounds of the plan's result value
     * (verify/certify.hh), derived with the verdict at the engine's
     * redundancy.
     */
    verify::PlanCertificate certificate;

    /** Static activation census of one execution of this plan. */
    verify::ActivationPressureProfile pressure;
};

/**
 * Thread-safe memoization of programs, allocators, and plans for one
 * QueryService. Entries are immutable once published and derivation
 * runs outside every cache lock.
 *
 * Built for the concurrent serving tier: the plan map is split into
 * fixed shards, each guarded by a reader-writer lock, and the program
 * map is reader-writer locked too, so warm concurrent submits (all
 * hits) take only shared locks on the memoization structures and
 * never serialize against each other. Two racing derivations of the
 * same key both compute the identical immutable plan (derivation is
 * pure) and the second publish overwrites the first harmlessly.
 *
 * The effectiveness ledger stays a single small mutex: its critical
 * sections are a couple of integer increments, and keeping every
 * counter behind one lock preserves the collect()-asserted invariant
 * hits + misses == lookups at every instant (per-counter atomics
 * could be snapshotted between the pairwise increments).
 */
class PlanCache
{
  public:
    /** @p engine must outlive the cache (QueryService owns both). */
    explicit PlanCache(const PudEngine &engine);

    /**
     * The plan for (@p exprHash, @p module) at @p temperature,
     * deriving (and caching) the program, allocator, and placement on
     * a miss. @p pool / @p root are only read on a compile miss.
     */
    std::shared_ptr<const PlacementPlan>
    plan(std::uint64_t exprHash, const ExprPool &pool, ExprId root,
         const FleetSession::Module &module, Celsius temperature);

    /** Snapshot of the cumulative counters. */
    PlanCacheStats stats() const;

  private:
    /**
     * Plan-map shard count. A small power of two: shards only need to
     * spread (expression, module) keys across locks well enough that
     * warm submits from a handful of serving workers rarely meet on
     * one shared_mutex.
     */
    static constexpr std::size_t kPlanShards = 16;

    struct PlanShard
    {
        mutable std::shared_mutex mutex;
        std::map<std::pair<std::uint64_t, std::size_t>,
                 std::shared_ptr<const PlacementPlan>>
            plans;
    };

    PlanShard &shardOf(std::uint64_t exprHash, std::size_t module);

    std::shared_ptr<const MicroProgram>
    programFor(std::uint64_t exprHash, const ExprPool &pool,
               ExprId root, const Chip &chip, ComputeBackend backend,
               int capability);

    /**
     * Shared so an in-flight placement keeps its allocator alive:
     * creating a module's allocator at a NEW temperature evicts the
     * module's other-temperature entries (bounding the cache at one
     * allocator per module under drifting setTemperature), and the
     * evicted allocator must outlive any concurrent place() call.
     */
    std::shared_ptr<const RowAllocator>
    allocatorFor(const FleetSession::Module &module,
                 Celsius temperature);

    const PudEngine *engine_;

    mutable std::shared_mutex programMutex_;
    std::map<std::tuple<std::uint64_t, std::uint8_t, int>,
             std::shared_ptr<const MicroProgram>>
        programs_;

    /** Allocator builds are rare (one per module and temperature). */
    std::mutex allocatorMutex_;
    std::map<std::pair<std::size_t, Celsius>,
             std::shared_ptr<const RowAllocator>>
        allocators_;

    std::array<PlanShard, kPlanShards> planShards_;

    mutable std::mutex statsMutex_;
    PlanCacheStats stats_;
};

} // namespace fcdram::pud

#endif // FCDRAM_PUD_PLAN_HH
