/**
 * @file
 * FleetSession: the experiment-orchestration engine behind the
 * characterization campaign.
 *
 * A session owns one lazily-constructed, immutable Chip per module of
 * the Table-1 fleet, memoizes subarray-pair sampling and
 * qualifying-pair discovery keyed by (module, pair context, predicate
 * class), and fans experiment work out over a deterministic
 * thread-pool scheduler. Per-module seeds derive from the campaign
 * seed and the module's stable fleet index, so single-threaded and
 * multi-threaded runs produce bit-identical results, and every figure
 * experiment shares the same discovery caches: the O(figures x
 * probes) redundant (RF, RL) probing the old per-figure orchestration
 * paid becomes O(probes), done once. Every memo fills an entry once:
 * a concurrent lookup of the same key waits for that fill rather than
 * repeating it, so cache counters do not depend on the worker count.
 *
 * Every figure fans out one task per (module, pair context) through
 * runOverContexts: its binomial draws are keyed by the cells they
 * sample (AnalyticAnalyzer::drawKey), not drawn from a stream, so no
 * task depends on another's draws. runOverFleet, one task per module,
 * serves the PuD query service and the simulator microbenchmarks.
 * Both fold each task's partial into the result in task order as soon
 * as every earlier task has finished, and release it once folded.
 * Each bank's pair contexts are distinct subarray pairs.
 *
 * The session also memoizes the baseline logic sweep: the
 * default-condition, random-data logicSamples call that Figs. 15 and
 * 17-21 all evaluate, keyed by (module, bank, op, reference row,
 * compute row). An entry keeps 8 bytes per cell (its probability)
 * plus one region per measured row. With the figure configuration
 * each of those figures looks up 9,088 keys (4.29M cells), on seed 1
 * all distinct, so the memo holds about 34 MB. Only a session that
 * runs several logic figures reuses it; a single-figure bench binary
 * pays that memory for almost no hits.
 */

#ifndef FCDRAM_FCDRAM_SESSION_HH
#define FCDRAM_FCDRAM_SESSION_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "config/fleet.hh"
#include "dram/chip.hh"
#include "fcdram/analytic.hh"
#include "fcdram/scheduler.hh"
#include "obs/telemetry.hh"
#include "stats/summary.hh"

namespace fcdram {

/** Campaign-wide knobs. */
struct CampaignConfig
{
    /** Simulated chip dimensions (defaults to a bench-sized chip). */
    GeometryConfig geometry;

    /** Banks sampled per chip. */
    int banksPerChip = 1;

    /**
     * Distinct neighboring subarray pairs sampled per bank, at most
     * subarraysPerBank - 1 (FleetSession throws otherwise).
     */
    int subarrayPairsPerBank = 4;

    /** Qualifying (RF, RL) pairs kept per chip and configuration. */
    int pairSamplesPerConfig = 8;

    /** Random (RF, RL) probes used to find qualifying pairs. */
    int probesPerPair = 4000;

    /** Analytic engine options (trial budget etc.). */
    AnalyticConfig analytic;

    /** Scheduler worker threads; <= 0 selects hardware concurrency. */
    int workers = 0;

    std::uint64_t seed = 0xF00DULL;

    CampaignConfig();

    /** Scaled-down configuration for unit tests. */
    static CampaignConfig forTests();
};

/** One sampled subarray-pair context on a chip. */
struct PairContext
{
    BankId bank = 0;
    SubarrayId lowSubarray = 0; ///< Pairs with lowSubarray + 1.
};

/**
 * Predicate class over activation sets for qualifying-pair discovery.
 * Queries are small value types (not opaque callables) so that
 * discovery results can be memoized per (module, context, query) and
 * shared by every experiment asking the same question.
 */
struct PairQuery
{
    /** Accepted neighbor-activation kinds. */
    enum class Activation : std::uint8_t {
        Any,          ///< Simultaneous or sequential.
        Simultaneous, ///< Simultaneous only.

        /**
         * Same-subarray simultaneous activation (SiMRA row groups):
         * both probed rows live in the context's low subarray and
         * destRows constrains the masked-expansion group size.
         */
        SameSubarray,
    };

    Activation activation = Activation::Simultaneous;
    int sourceRows = -1; ///< Required NRF; -1 leaves it unconstrained.
    int destRows = -1;   ///< Required NRL; -1 leaves it unconstrained.

    /** Sim-or-seq activation reaching @p dest destination rows. */
    static PairQuery anyWithDest(int dest);

    /** Simultaneous activation reaching @p dest destination rows. */
    static PairQuery simultaneousWithDest(int dest);

    /** Simultaneous N:N activation (logic ops with N inputs). */
    static PairQuery square(int inputs);

    /** Same-subarray simultaneous activation of @p rows rows. */
    static PairQuery sameSubarray(int rows);

    /** Whether an activation-set observation satisfies the query. */
    bool matches(const ActivationSets &sets) const;

    /**
     * Canonical 64-bit key. Also salts the discovery seed, so two
     * experiments asking the same question probe the same pairs (and
     * hit the session cache) regardless of which figure asked first.
     */
    std::uint64_t key() const;

    bool operator<(const PairQuery &other) const;
};

/**
 * Qualifying (RF, RL) discovery core: probe random local-row pairs of
 * a subarray-pair context and keep those whose neighbor activation
 * satisfies @p query, as global row ids, each pair at most once (a
 * probe that finds a kept pair again is skipped). Pure in (chip,
 * seed); the session memoizes it.
 */
std::vector<std::pair<RowId, RowId>>
findQualifyingPairs(const Chip &chip, const PairContext &context,
                    const PairQuery &query, int probes, int maxPairs,
                    std::uint64_t seed);

/**
 * What the logic figures read of one baseline logicSamples call
 * (OpConditions(), PatternClass::Random): each cell's probability in
 * logicSamples order and each measured row's region. Cell i belongs
 * to row i / columnsPerRow.
 */
struct LogicBaseline
{
    std::vector<double> probability; ///< Per cell, logicSamples order.
    std::vector<Region> rowRegion;   ///< ownRegion per measured row.
    std::size_t columnsPerRow = 0;
    Region otherRegion = Region::Middle; ///< Shared by every cell.
};

/**
 * Fleet-scale experiment engine with cached per-module state. Thread
 * safe: all caches are internally synchronized, and cached values are
 * immutable once published.
 */
class FleetSession
{
  public:
    /** Fleet slice an experiment runs over. */
    enum class Fleet {
        SkHynix, ///< SK Hynix rows of Table 1 (logic-capable designs).
        Table1,  ///< Full Table-1 fleet (SK Hynix + Samsung).
    };

    /** Stable handle on one module of the Table-1 fleet. */
    struct Module
    {
        const ModuleSpec *spec = nullptr;
        std::size_t index = 0;  ///< Stable 1-based fleet enumeration.
        std::uint64_t seed = 0; ///< taskSeed(campaign seed, index).
    };

    /** Per-module view handed to experiment visitors. */
    struct ModuleView
    {
        const Module &module;
        const ModuleSpec &spec;
        const Chip &chip;
        std::uint64_t seed;
        const std::vector<PairContext> &contexts;
    };

    /** Cache effectiveness counters (see cacheStats()). */
    struct CacheStats
    {
        std::uint64_t chipBuilds = 0;  ///< Chips constructed so far.
        std::uint64_t pairLookups = 0; ///< qualifyingPairs() calls.
        std::uint64_t pairHits = 0;    ///< ... served from the cache.
        std::uint64_t logicLookups = 0; ///< logicBaseline() calls.
        std::uint64_t logicHits = 0;    ///< ... served from the memo.
    };

    explicit FleetSession(
        const CampaignConfig &config = CampaignConfig());

    const CampaignConfig &config() const { return config_; }
    const Scheduler &scheduler() const { return scheduler_; }

    /** Modules of a fleet slice, in stable enumeration order. */
    const std::vector<Module> &modules(Fleet fleet) const;

    /** Module specs of a fleet slice (one entry per Table-1 row). */
    const std::vector<ModuleSpec> &specs(Fleet fleet) const;

    /** First module matching a design, or nullptr. */
    const Module *findModule(Manufacturer manufacturer, int densityGbit,
                             char dieRevision,
                             std::uint32_t speedMt) const;

    /** Cached immutable chip of a module (lazily constructed). */
    const Chip &chip(const Module &module) const;

    /** Memoized sampled subarray-pair contexts (distinct per bank). */
    const std::vector<PairContext> &
    pairContexts(const Module &module) const;

    /** Memoized qualifying pairs for (module, context, query). */
    const std::vector<std::pair<RowId, RowId>> &
    qualifyingPairs(const Module &module, const PairContext &context,
                    const PairQuery &query) const;

    /**
     * Memoized baseline logic sweep of one (module, bank, op, ref,
     * com): exactly what AnalyticAnalyzer::logicSamples(bank, op, ref,
     * com, OpConditions(), PatternClass::Random) computes on the
     * module's chip, reduced to probabilities and row regions.
     */
    const LogicBaseline &logicBaseline(const Module &module, BankId bank,
                                       BoolOp op, RowId ref,
                                       RowId com) const;

    /**
     * Fresh private chip for command-level (mutating) flows such as
     * DramBender sessions; shares the session geometry.
     */
    Chip checkoutChip(const Module &module) const;
    Chip checkoutChip(const ChipProfile &profile,
                      std::uint64_t seed) const;

    /** Snapshot of the cache counters. */
    CacheStats cacheStats() const;

    /**
     * Run @p visit(view, partial) once per module of @p fleet on the
     * scheduler and fold the per-module partials in module order
     * (mergeAccum), which makes the result independent of the worker
     * count. The visitor must derive all randomness from the view's
     * seed.
     */
    template <class Accum, class Visit>
    Accum runOverFleet(Fleet fleet, Visit visit) const
    {
        const std::vector<Module> &fleetModules = modules(fleet);
        return fanOut<Accum>(
            fleetModules.size(), [&](std::size_t i, Accum &partial) {
                const Module &module = fleetModules[i];
                const obs::MetricScope scope(module.index);
                obs::Span span(obs::global(), "fleet.task");
                span.arg("module",
                         static_cast<std::uint64_t>(module.index));
                visit(view(module), partial);
            });
    }

    /**
     * Run @p visit(view, context, partial) once per (module, pair
     * context) of @p fleet on the scheduler and fold the partials in
     * (module, context) order. Each task sees one context, so anything
     * it draws must be keyed by that context and what it measures.
     */
    template <class Accum, class Visit>
    Accum runOverContexts(Fleet fleet, Visit visit) const
    {
        const std::vector<Module> &fleetModules = modules(fleet);
        const std::size_t perModule = contextsPerModule();
        return fanOut<Accum>(
            fleetModules.size() * perModule,
            [&](std::size_t i, Accum &partial) {
                const Module &module = fleetModules[i / perModule];
                const std::size_t context = i % perModule;
                const obs::MetricScope scope(module.index);
                obs::Span span(obs::global(), "fleet.task");
                span.arg("module",
                         static_cast<std::uint64_t>(module.index));
                span.arg("context",
                         static_cast<std::uint64_t>(context));
                const ModuleView moduleView = view(module);
                assert(moduleView.contexts.size() == perModule);
                visit(moduleView, moduleView.contexts[context], partial);
            });
    }

    /** Accumulator folds used by the fan-outs. */
    static void mergeAccum(SampleSet &into, SampleSet &&from)
    {
        into.merge(std::move(from));
    }

    template <class A, class B>
    static void mergeAccum(std::pair<A, B> &into, std::pair<A, B> &&from)
    {
        mergeAccum(into.first, std::move(from.first));
        mergeAccum(into.second, std::move(from.second));
    }

    template <class T, std::size_t N>
    static void mergeAccum(std::array<T, N> &into,
                           std::array<T, N> &&from)
    {
        for (std::size_t i = 0; i < N; ++i)
            mergeAccum(into[i], std::move(from[i]));
    }

    template <class K, class V, class C>
    static void mergeAccum(std::map<K, V, C> &into,
                           std::map<K, V, C> &&from)
    {
        for (auto &[key, value] : from)
            mergeAccum(into[key], std::move(value));
    }

    /**
     * Any accumulator exposing mergeFrom(T&&) folds through it, so
     * subsystems (e.g. the PuD query engine) can define fleet
     * accumulators without editing this overload set.
     */
    template <class T>
    static auto mergeAccum(T &into, T &&from)
        -> decltype(into.mergeFrom(std::move(from)), void())
    {
        into.mergeFrom(std::move(from));
    }

  private:
    /**
     * Memo table that fills each key once. A lookup finds or creates
     * the key's slot under the table lock and fills a new slot outside
     * it, so distinct keys fill in parallel, while a concurrent lookup
     * of the same key waits for that fill instead of repeating it.
     * Exactly the lookup that creates a slot misses, whatever the
     * worker count; values never move once filled.
     */
    template <class Key, class Value>
    class OnceMemo
    {
      public:
        /** The value of @p key, filled by fill() on first use. */
        template <class Fill>
        const Value &get(const Key &key, bool &hit, Fill &&fill)
        {
            Slot *slot = nullptr;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto [it, created] = slots_.try_emplace(key);
                if (created)
                    it->second = std::make_unique<Slot>();
                slot = it->second.get();
                hit = !created;
            }
            std::lock_guard<std::mutex> lock(slot->mutex);
            if (!slot->filled) {
                slot->value = fill();
                slot->filled = true;
            }
            return slot->value;
        }

      private:
        struct Slot
        {
            std::mutex mutex;
            bool filled = false;
            Value value;
        };

        std::mutex mutex_;
        std::map<Key, std::unique_ptr<Slot>> slots_;
    };

    struct PairCacheKey
    {
        std::size_t module = 0;
        BankId bank = 0;
        SubarrayId lowSubarray = 0;
        PairQuery query;

        bool operator<(const PairCacheKey &other) const;
    };

    struct LogicCacheKey
    {
        std::size_t module = 0;
        BankId bank = 0;
        BoolOp op = BoolOp::And;
        RowId ref = 0;
        RowId com = 0;

        bool operator<(const LogicCacheKey &other) const;
    };

    /** Pair contexts each module samples (the same for every chip). */
    std::size_t contextsPerModule() const;

    /** The visitor's view of @p module (chip and contexts built). */
    ModuleView view(const Module &module) const
    {
        return {module, *module.spec, chip(module), module.seed,
                pairContexts(module)};
    }

    /**
     * Fan-out core of runOverFleet and runOverContexts: run
     * task(i, partial) for every i < numTasks on the scheduler, each
     * into its own partial, and fold the partials into the result in
     * task order. A task that finishes folds, under the fold mutex,
     * every partial from the first unfolded one up to the next task
     * still running, and releases each as it goes, so a partial lives
     * only until all earlier tasks are done. The fold order does not
     * depend on the worker count or on timing. If tasks throw, the
     * scheduler rethrows the lowest-indexed failure.
     */
    template <class Accum, class Task>
    Accum fanOut(std::size_t numTasks, const Task &task) const
    {
        std::vector<Accum> partials(numTasks);
        std::vector<bool> finished(numTasks, false);
        std::size_t folded = 0;
        std::mutex foldMutex;
        Accum result{};
        scheduler_.run(numTasks, [&](std::size_t i) {
            task(i, partials[i]);
            const std::lock_guard<std::mutex> lock(foldMutex);
            finished[i] = true;
            for (; folded < numTasks && finished[folded]; ++folded) {
                mergeAccum(result, std::move(partials[folded]));
                partials[folded] = Accum{};
            }
        });
        return result;
    }

    CampaignConfig config_;
    Scheduler scheduler_;
    std::vector<Module> table1Modules_;
    std::vector<Module> skHynixModules_;
    std::vector<ModuleSpec> skHynixSpecs_;

    mutable OnceMemo<std::size_t, std::unique_ptr<Chip>> chips_;
    mutable OnceMemo<std::size_t, std::vector<PairContext>> contexts_;
    mutable OnceMemo<PairCacheKey, std::vector<std::pair<RowId, RowId>>>
        pairs_;
    mutable OnceMemo<LogicCacheKey, LogicBaseline> logic_;

    /** Guards stats_. */
    mutable std::mutex statsMutex_;
    mutable CacheStats stats_;
};

} // namespace fcdram

#endif // FCDRAM_FCDRAM_SESSION_HH
