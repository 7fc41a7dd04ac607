/**
 * @file
 * Fleet telemetry: an always-compiled observability subsystem with
 * three pillars, each independently switchable and near-free when off.
 *
 *  - Metrics registry: counters, gauges, and fixed-bucket histograms
 *    registered by name. Values live in per-module shards selected
 *    by a thread-local MetricScope (set by the FleetSession fan-out
 *    template) and merge in deterministic sorted shard order,
 *    so enabling metrics never breaks the worker-count-invariance
 *    contract: every registered value is an integer (counts, or sums
 *    of llround'd observations), addition is order-independent, and
 *    wall-clock time is deliberately kept out of the registry (it
 *    lives in spans and BenchReport laps instead).
 *
 *  - Query spans: RAII trace events (Span) wrapping the prepared-query
 *    lifecycle, compiles, placements, copy-in, executor waves, and
 *    scheduler tasks, carrying ids (expr hash, ticket, module, bank)
 *    as args. Buffered per thread; spans on one thread are strictly
 *    stack-nested by construction.
 *
 *  - DRAM command trace: optional per-bank recording of issued
 *    command programs (ACT/PRE/RD/WR plus a semantic epoch label such
 *    as "MAJ" or "RowClone") with modeled start/end nanoseconds,
 *    rendered as one Perfetto track per (module, bank).
 *
 * Everything exports to Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing) plus a deterministic plain-text metrics dump.
 *
 * Intended call-site pattern (cheap single branch when disabled):
 *
 *     obs::Telemetry &tel = obs::global();
 *     if (tel.metricsOn())
 *         tel.add(tel.counter("bender.programs"));
 *     obs::Span span(tel, "engine.execute"); // no-op unless spansOn
 *
 * This directory is layer 0 (like common/): it must not include
 * headers from dram/, bender/, fcdram/, or pud/, because those layers
 * (including the header-only FleetSession templates) include it.
 */

#ifndef FCDRAM_OBS_TELEMETRY_HH
#define FCDRAM_OBS_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fcdram::obs {

/** Pillar switches; all off by default (the near-zero-cost state). */
struct TelemetryConfig
{
    bool metrics = false;   ///< Metrics registry records.
    bool spans = false;     ///< Trace spans record.
    bool dramTrace = false; ///< DRAM command programs record.

    /**
     * Allow wall-clock duration observations into the metrics
     * registry (e.g. the plan-certifier's verify.certify_ns
     * histogram). Off by default — and kept off by every
     * determinism-checked path — because wall-clock values break the
     * byte-identical-across-worker-counts metrics contract. Only
     * effective when metrics is also on.
     */
    bool wallClock = false;

    bool any() const { return metrics || spans || dramTrace; }
};

/** Stable handle of one registered metric (index into the registry). */
using MetricId = std::size_t;

class Span;

/**
 * One telemetry sink. The library instruments against the process
 * global (obs::global()); independent instances exist for tests and
 * for opting subsystems out (a null sink pointer skips every hook).
 */
class Telemetry
{
  public:
    Telemetry();
    ~Telemetry();
    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Replace the pillar configuration. */
    void configure(const TelemetryConfig &config);

    /** Turn on the pillars set in @p config (never turns any off). */
    void enable(const TelemetryConfig &config);

    TelemetryConfig config() const;

    bool metricsOn() const
    {
        return metricsOn_.load(std::memory_order_relaxed);
    }
    bool spansOn() const
    {
        return spansOn_.load(std::memory_order_relaxed);
    }
    bool dramOn() const
    {
        return dramOn_.load(std::memory_order_relaxed);
    }
    bool wallClockOn() const
    {
        return wallClockOn_.load(std::memory_order_relaxed);
    }

    /**
     * Drop all recorded values, events, and trace state and disable
     * every pillar. Registered metric definitions survive (handles
     * stay valid). Only call while no instrumented work is in flight.
     */
    void reset();

    /**
     * Register (or look up) a metric. Idempotent by name; re-register
     * with a different kind or bucket set throws std::logic_error.
     * Names are dot-separated `<subsystem>.<noun>[_<unit>]`.
     */
    MetricId counter(const std::string &name);
    MetricId gauge(const std::string &name);
    MetricId histogram(const std::string &name,
                       const std::vector<double> &bucketBounds);

    /** Add @p delta to a counter in the current shard. */
    void add(MetricId id, std::uint64_t delta = 1);

    /**
     * Set a gauge in the current shard. Shards merge gauges by max
     * (order-independent), so fleet-wide a gauge reads "largest value
     * any shard saw".
     */
    void set(MetricId id, std::uint64_t value);

    /** Record one histogram observation (value in the metric's unit). */
    void observe(MetricId id, double value);

    /** One modeled DRAM command handed to recordDramProgram. */
    enum class DramCmdKind : std::uint8_t { Act, Pre, Rd, Wr, Other };
    struct DramCmd
    {
        DramCmdKind kind = DramCmdKind::Other;
        std::uint64_t bank = 0;
        std::uint64_t row = 0;
        double issueNs = 0.0; ///< Modeled issue time within the program.
    };

    /**
     * Record one executed command program on the current module's
     * modeled timeline: per-command events on per-bank tracks plus one
     * enclosing epoch event named @p label per participating bank.
     * No-op unless the dramTrace pillar is on.
     */
    void recordDramProgram(const std::vector<DramCmd> &commands,
                           const char *label);

    // ---- snapshots (tests, benches) ------------------------------

    /**
     * Merged value of a registered counter or gauge; 0 when the name
     * is unknown. Throws std::logic_error for a histogram name.
     */
    std::uint64_t value(const std::string &name) const;

    /**
     * Merged cells of a histogram: per-bucket counts (bucket i counts
     * observations <= bound i, non-cumulative), then the overflow
     * count, then the sum of llround'd observations. Empty when the
     * name is unknown.
     */
    std::vector<std::uint64_t>
    histogramCells(const std::string &name) const;

    /**
     * Bucket upper bounds of a registered histogram (the `le` labels
     * of the text dump, overflow excluded). Empty when the name is
     * unknown or not a histogram.
     */
    std::vector<double> histogramBounds(const std::string &name) const;

    /**
     * Estimated q-quantile (q in [0, 1]) of a registered histogram,
     * linearly interpolated within the covering bucket
     * (quantileFromHistogramCells over this histogram's merged
     * cells). 0 when the name is unknown or the histogram is empty.
     */
    double histogramQuantile(const std::string &name, double q) const;

    std::size_t spanEventCount() const;
    std::size_t dramEventCount() const;

    // ---- export ---------------------------------------------------

    /**
     * Deterministic plain-text dump of every registered metric,
     * sorted by name; histograms render as cumulative `name{le=B} n`
     * lines plus `.sum` / `.count`. Byte-identical across worker
     * counts by the sharding contract.
     */
    void writeMetricsText(std::ostream &os) const;

    /** Chrome trace-event JSON with spans and DRAM tracks. */
    void writeChromeTrace(std::ostream &os) const;

    /** File helpers; false (with no partial file kept open) on I/O error. */
    bool writeMetricsFile(const std::string &path) const;
    bool writeTraceFile(const std::string &path) const;

    /** Microseconds since the process-wide trace epoch. */
    static double nowUs();

  private:
    friend class Span;

    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct MetricDef
    {
        std::string name;
        Kind kind = Kind::Counter;
        std::vector<double> bounds; ///< Histogram bucket upper bounds.
        std::size_t slot = 0;       ///< First cell in shard storage.
        std::size_t cells = 1;      ///< Cells this metric occupies.
    };

    struct Shard
    {
        std::vector<std::uint64_t> cells;
    };

    struct TraceEvent
    {
        std::string name;
        double tsUs = 0.0;
        double durUs = 0.0;
        std::uint64_t pid = 0;
        std::uint64_t tid = 0;
        std::vector<std::pair<std::string, std::string>> args;
    };

    struct ThreadBuf
    {
        std::uint64_t tid = 0;
        std::vector<TraceEvent> events;
    };

    MetricId registerMetric(const std::string &name, Kind kind,
                            std::vector<double> bounds);
    const MetricDef *findDef(const std::string &name) const;

    /** Shard of the calling thread's module scope. */
    Shard &shardLocked();

    /** Merged cell values over all shards, in slot order. */
    std::vector<std::uint64_t> mergedCells() const;

    void endSpan(const Span &span);
    ThreadBuf &threadBuf();

    std::atomic<bool> metricsOn_{false};
    std::atomic<bool> spansOn_{false};
    std::atomic<bool> dramOn_{false};
    std::atomic<bool> wallClockOn_{false};

    /**
     * Validates thread-local caches together with the instance
     * address. Drawn from a process-global counter at construction
     * and on reset(), so values are unique across instance lifetimes.
     */
    std::atomic<std::uint64_t> generation_{0};

    mutable std::mutex regMutex_;
    std::vector<MetricDef> defs_;
    std::map<std::string, MetricId> names_;
    std::size_t totalCells_ = 0;

    mutable std::mutex dataMutex_;
    std::map<std::uint64_t, std::unique_ptr<Shard>> shards_;
    std::vector<std::unique_ptr<ThreadBuf>> threadBufs_;
    std::vector<TraceEvent> dramEvents_;
    std::map<std::uint64_t, double> dramCursorNs_;
    std::uint64_t dramDropped_ = 0;
};

/** The process-wide sink the library instruments against. */
Telemetry &global();

/**
 * Estimated q-quantile (q in [0, 1], clamped) from a histogram's
 * bucket layout: @p bounds are the bucket upper bounds and @p cells
 * is the Telemetry::histogramCells layout (per-bucket counts, then
 * overflow, then sum). Linear interpolation within the covering
 * bucket, Prometheus-style: the first bucket interpolates from 0 (or
 * from its bound when that is negative), and a rank landing in the
 * overflow bucket saturates to the last bound. 0 when @p bounds is
 * empty, @p cells is malformed, or no observations were recorded.
 */
double quantileFromHistogramCells(const std::vector<double> &bounds,
                                  const std::vector<std::uint64_t> &cells,
                                  double q);

/**
 * RAII per-module shard selector for the calling thread. Set by the
 * FleetSession fan-out template around each per-module task, so
 * metric writes land in deterministic shards and DRAM trace events
 * land on the right module timeline. Nests (saves and restores).
 */
class MetricScope
{
  public:
    explicit MetricScope(std::uint64_t module);
    ~MetricScope();
    MetricScope(const MetricScope &) = delete;
    MetricScope &operator=(const MetricScope &) = delete;

  private:
    std::uint64_t savedModule_;
};

/**
 * RAII trace span: records a complete ("X") event from construction
 * to destruction on the calling thread's track. Fully inert (one
 * branch) when the spans pillar is off. Movable so std::optional can
 * hold a resettable span (e.g. per executor wave).
 */
class Span
{
  public:
    Span(Telemetry &telemetry, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    Span(Span &&other) noexcept;
    Span &operator=(Span &&other) noexcept;

    /** Attach an arg (no-op when the span is inert). */
    void arg(const char *key, std::uint64_t value);
    void arg(const char *key, const std::string &value);
    void arg(const char *key, const char *value);

    /** End the span now instead of at destruction. */
    void end();

    bool active() const { return telemetry_ != nullptr; }

  private:
    friend class Telemetry;

    Telemetry *telemetry_ = nullptr;
    const char *name_ = "";
    double startUs_ = 0.0;
    std::vector<std::pair<std::string, std::string>> args_;
};

/**
 * RAII semantic label for DRAM programs executed within its lifetime
 * ("MAJ", "NOT", "RowClone", "Frac", "Logic", "RowRead"); names the
 * per-bank epoch events in the command trace. Trivially cheap; set
 * unconditionally by the fcdram op builders.
 */
class DramLabel
{
  public:
    explicit DramLabel(const char *label);
    ~DramLabel();
    DramLabel(const DramLabel &) = delete;
    DramLabel &operator=(const DramLabel &) = delete;

    /** Label of the innermost live DramLabel ("program" if none). */
    static const char *current();

  private:
    const char *saved_;
};

} // namespace fcdram::obs

#endif // FCDRAM_OBS_TELEMETRY_HH
