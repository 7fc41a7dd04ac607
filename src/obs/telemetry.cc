#include "obs/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/jsonio.hh"

namespace fcdram::obs {

namespace {

/** Track-id base for DRAM module timelines (spans live on pid 1). */
constexpr std::uint64_t kDramPidBase = 100;

/** Safety cap so an accidental always-on trace cannot eat all RAM. */
constexpr std::size_t kMaxDramEvents = 1'500'000;

/** Modeled width of a command with no successor on its bank. */
constexpr double kTailCmdNs = 8.0;

/** Idle gap inserted between recorded programs on one timeline. */
constexpr double kInterProgramGapNs = 10.0;

/** Calling thread's 1-based module scope; 0 selects the global shard. */
thread_local std::uint64_t tls_module = 0;

thread_local const char *tls_dram_label = nullptr;

struct TlsShardCache
{
    const void *owner = nullptr;
    std::uint64_t generation = 0;
    std::uint64_t module = 0;
    void *shard = nullptr;
};
thread_local TlsShardCache tls_shard;

struct TlsBufCache
{
    const void *owner = nullptr;
    std::uint64_t generation = 0;
    void *buf = nullptr;
};
thread_local TlsBufCache tls_buf;

const char *
dramCmdName(Telemetry::DramCmdKind kind)
{
    switch (kind) {
      case Telemetry::DramCmdKind::Act:
        return "ACT";
      case Telemetry::DramCmdKind::Pre:
        return "PRE";
      case Telemetry::DramCmdKind::Rd:
        return "RD";
      case Telemetry::DramCmdKind::Wr:
        return "WR";
      case Telemetry::DramCmdKind::Other:
        break;
    }
    return "CMD";
}

} // namespace

namespace {

/**
 * Process-global generation source. Generations key the thread-local
 * shard/buffer caches together with the owner pointer; drawing them
 * from one monotonic counter guarantees a new instance constructed at
 * a dead instance's address can never revalidate that instance's
 * cached pointers.
 */
std::uint64_t
nextGeneration()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Telemetry::Telemetry()
{
    generation_.store(nextGeneration(), std::memory_order_relaxed);
}

Telemetry::~Telemetry() = default;

Telemetry &
global()
{
    static Telemetry instance;
    return instance;
}

double
Telemetry::nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch)
        .count();
}

void
Telemetry::configure(const TelemetryConfig &config)
{
    metricsOn_.store(config.metrics, std::memory_order_relaxed);
    spansOn_.store(config.spans, std::memory_order_relaxed);
    dramOn_.store(config.dramTrace, std::memory_order_relaxed);
    wallClockOn_.store(config.wallClock, std::memory_order_relaxed);
}

void
Telemetry::enable(const TelemetryConfig &config)
{
    if (config.metrics)
        metricsOn_.store(true, std::memory_order_relaxed);
    if (config.spans)
        spansOn_.store(true, std::memory_order_relaxed);
    if (config.dramTrace)
        dramOn_.store(true, std::memory_order_relaxed);
    if (config.wallClock)
        wallClockOn_.store(true, std::memory_order_relaxed);
}

TelemetryConfig
Telemetry::config() const
{
    TelemetryConfig config;
    config.metrics = metricsOn();
    config.spans = spansOn();
    config.dramTrace = dramOn();
    config.wallClock = wallClockOn();
    return config;
}

void
Telemetry::reset()
{
    configure(TelemetryConfig{});
    const std::lock_guard<std::mutex> lock(dataMutex_);
    shards_.clear();
    threadBufs_.clear();
    dramEvents_.clear();
    dramCursorNs_.clear();
    dramDropped_ = 0;
    generation_.store(nextGeneration(), std::memory_order_relaxed);
}

MetricId
Telemetry::registerMetric(const std::string &name, Kind kind,
                          std::vector<double> bounds)
{
    if (name.empty())
        throw std::logic_error("Telemetry: empty metric name");
    if (kind == Kind::Histogram) {
        if (bounds.empty() ||
            !std::is_sorted(bounds.begin(), bounds.end()) ||
            std::adjacent_find(bounds.begin(), bounds.end()) !=
                bounds.end()) {
            throw std::logic_error(
                "Telemetry: histogram '" + name +
                "' needs strictly increasing bucket bounds");
        }
    }
    const std::lock_guard<std::mutex> lock(regMutex_);
    const auto it = names_.find(name);
    if (it != names_.end()) {
        const MetricDef &def = defs_[it->second];
        if (def.kind != kind || def.bounds != bounds) {
            throw std::logic_error(
                "Telemetry: metric '" + name +
                "' re-registered with a different kind or buckets");
        }
        return it->second;
    }
    MetricDef def;
    def.name = name;
    def.kind = kind;
    def.bounds = std::move(bounds);
    def.slot = totalCells_;
    def.cells =
        kind == Kind::Histogram ? def.bounds.size() + 2 : 1;
    totalCells_ += def.cells;
    defs_.push_back(std::move(def));
    const MetricId id = defs_.size() - 1;
    names_.emplace(name, id);
    return id;
}

MetricId
Telemetry::counter(const std::string &name)
{
    return registerMetric(name, Kind::Counter, {});
}

MetricId
Telemetry::gauge(const std::string &name)
{
    return registerMetric(name, Kind::Gauge, {});
}

MetricId
Telemetry::histogram(const std::string &name,
                     const std::vector<double> &bucketBounds)
{
    return registerMetric(name, Kind::Histogram, bucketBounds);
}

const Telemetry::MetricDef *
Telemetry::findDef(const std::string &name) const
{
    const auto it = names_.find(name);
    return it == names_.end() ? nullptr : &defs_[it->second];
}

Telemetry::Shard &
Telemetry::shardLocked()
{
    const std::uint64_t generation =
        generation_.load(std::memory_order_relaxed);
    if (tls_shard.owner == this &&
        tls_shard.generation == generation &&
        tls_shard.module == tls_module) {
        return *static_cast<Shard *>(tls_shard.shard);
    }
    std::unique_ptr<Shard> &slot = shards_[tls_module];
    if (slot == nullptr)
        slot = std::make_unique<Shard>();
    tls_shard = {this, generation, tls_module, slot.get()};
    return *slot;
}

void
Telemetry::add(MetricId id, std::uint64_t delta)
{
    if (!metricsOn())
        return;
    std::size_t slot;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        if (id >= defs_.size() || defs_[id].kind == Kind::Histogram)
            throw std::logic_error("Telemetry::add: bad metric id");
        slot = defs_[id].slot;
    }
    const std::lock_guard<std::mutex> lock(dataMutex_);
    Shard &shard = shardLocked();
    if (shard.cells.size() <= slot)
        shard.cells.resize(slot + 1, 0);
    shard.cells[slot] += delta;
}

void
Telemetry::set(MetricId id, std::uint64_t value)
{
    if (!metricsOn())
        return;
    std::size_t slot;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        if (id >= defs_.size() || defs_[id].kind != Kind::Gauge)
            throw std::logic_error("Telemetry::set: not a gauge");
        slot = defs_[id].slot;
    }
    const std::lock_guard<std::mutex> lock(dataMutex_);
    Shard &shard = shardLocked();
    if (shard.cells.size() <= slot)
        shard.cells.resize(slot + 1, 0);
    shard.cells[slot] = value;
}

void
Telemetry::observe(MetricId id, double value)
{
    if (!metricsOn())
        return;
    std::size_t slot;
    std::size_t bucket;
    std::size_t numBounds;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        if (id >= defs_.size() || defs_[id].kind != Kind::Histogram)
            throw std::logic_error(
                "Telemetry::observe: not a histogram");
        const MetricDef &def = defs_[id];
        slot = def.slot;
        numBounds = def.bounds.size();
        bucket = static_cast<std::size_t>(
            std::lower_bound(def.bounds.begin(), def.bounds.end(),
                             value) -
            def.bounds.begin());
    }
    // Sums are llround'd so shard merging stays integer-exact (the
    // worker-invariance contract); negative observations clamp to 0.
    const auto rounded = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, value)));
    const std::lock_guard<std::mutex> lock(dataMutex_);
    Shard &shard = shardLocked();
    if (shard.cells.size() < slot + numBounds + 2)
        shard.cells.resize(slot + numBounds + 2, 0);
    shard.cells[slot + bucket] += 1; // bucket == numBounds: overflow.
    shard.cells[slot + numBounds + 1] += rounded;
}

void
Telemetry::recordDramProgram(const std::vector<DramCmd> &commands,
                             const char *label)
{
    if (!dramOn() || commands.empty())
        return;
    const std::lock_guard<std::mutex> lock(dataMutex_);
    if (dramEvents_.size() >= kMaxDramEvents) {
        ++dramDropped_;
        return;
    }
    const std::uint64_t pid = kDramPidBase + tls_module;
    double &cursorNs = dramCursorNs_[pid];

    // Duration of command i: gap to the next command on the same
    // bank, or a fixed tail width when none follows.
    const std::size_t n = commands.size();
    std::vector<double> durNs(n, kTailCmdNs);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (commands[j].bank == commands[i].bank) {
                durNs[i] = std::max(
                    0.5, commands[j].issueNs - commands[i].issueNs);
                break;
            }
        }
    }

    // One enclosing epoch event per participating bank, named after
    // the semantic label, so Perfetto shows "MAJ"/"RowClone" blocks
    // with the raw commands nested inside.
    std::map<std::uint64_t, std::pair<double, double>> bankWindow;
    for (std::size_t i = 0; i < n; ++i) {
        auto [it, inserted] = bankWindow.try_emplace(
            commands[i].bank, commands[i].issueNs,
            commands[i].issueNs + durNs[i]);
        if (!inserted) {
            it->second.first =
                std::min(it->second.first, commands[i].issueNs);
            it->second.second = std::max(
                it->second.second, commands[i].issueNs + durNs[i]);
        }
    }

    double endNs = 0.0;
    for (const auto &[bank, window] : bankWindow) {
        TraceEvent epoch;
        epoch.name = label != nullptr ? label : "program";
        epoch.tsUs = (cursorNs + window.first) / 1000.0;
        epoch.durUs = (window.second - window.first) / 1000.0;
        epoch.pid = pid;
        epoch.tid = bank;
        dramEvents_.push_back(std::move(epoch));
        endNs = std::max(endNs, window.second);
    }
    for (std::size_t i = 0; i < n; ++i) {
        TraceEvent event;
        event.name = dramCmdName(commands[i].kind);
        event.tsUs = (cursorNs + commands[i].issueNs) / 1000.0;
        event.durUs = durNs[i] / 1000.0;
        event.pid = pid;
        event.tid = commands[i].bank;
        if (commands[i].kind == DramCmdKind::Act ||
            commands[i].kind == DramCmdKind::Wr ||
            commands[i].kind == DramCmdKind::Rd) {
            event.args.emplace_back(
                "row", jsonNumber(std::uint64_t{commands[i].row}));
        }
        dramEvents_.push_back(std::move(event));
    }
    cursorNs += endNs + kInterProgramGapNs;
}

Telemetry::ThreadBuf &
Telemetry::threadBuf()
{
    // Caller holds dataMutex_.
    const std::uint64_t generation =
        generation_.load(std::memory_order_relaxed);
    if (tls_buf.owner == this && tls_buf.generation == generation)
        return *static_cast<ThreadBuf *>(tls_buf.buf);
    threadBufs_.push_back(std::make_unique<ThreadBuf>());
    ThreadBuf *buf = threadBufs_.back().get();
    buf->tid = threadBufs_.size();
    tls_buf = {this, generation, buf};
    return *buf;
}

void
Telemetry::endSpan(const Span &span)
{
    const double endUs = nowUs();
    TraceEvent event;
    event.name = span.name_;
    event.tsUs = span.startUs_;
    event.durUs = std::max(0.0, endUs - span.startUs_);
    event.pid = 1;
    event.args = span.args_;
    const std::lock_guard<std::mutex> lock(dataMutex_);
    ThreadBuf &buf = threadBuf();
    event.tid = buf.tid;
    buf.events.push_back(std::move(event));
}

std::vector<std::uint64_t>
Telemetry::mergedCells() const
{
    std::size_t total;
    std::vector<char> isGauge;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        total = totalCells_;
        isGauge.assign(total, 0);
        for (const MetricDef &def : defs_) {
            if (def.kind == Kind::Gauge)
                isGauge[def.slot] = 1;
        }
    }
    std::vector<std::uint64_t> merged(total, 0);
    const std::lock_guard<std::mutex> lock(dataMutex_);
    // Shards merge in sorted module order (std::map).
    // Counter/histogram cells are sums and gauges are maxima, so the
    // merged view is order-independent by construction; the sorted
    // walk is belt and braces (and what the tests pin down).
    for (const auto &[key, shard] : shards_) {
        const std::size_t n = std::min(shard->cells.size(), total);
        for (std::size_t i = 0; i < n; ++i) {
            if (isGauge[i])
                merged[i] = std::max(merged[i], shard->cells[i]);
            else
                merged[i] += shard->cells[i];
        }
    }
    return merged;
}

std::uint64_t
Telemetry::value(const std::string &name) const
{
    std::size_t slot;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        const MetricDef *def = findDef(name);
        if (def == nullptr)
            return 0;
        if (def->kind == Kind::Histogram)
            throw std::logic_error("Telemetry::value: '" + name +
                                   "' is a histogram");
        slot = def->slot;
    }
    const std::vector<std::uint64_t> merged = mergedCells();
    return slot < merged.size() ? merged[slot] : 0;
}

std::vector<std::uint64_t>
Telemetry::histogramCells(const std::string &name) const
{
    std::size_t slot;
    std::size_t cells;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        const MetricDef *def = findDef(name);
        if (def == nullptr || def->kind != Kind::Histogram)
            return {};
        slot = def->slot;
        cells = def->cells;
    }
    const std::vector<std::uint64_t> merged = mergedCells();
    if (slot + cells > merged.size())
        return {};
    return {merged.begin() + static_cast<std::ptrdiff_t>(slot),
            merged.begin() + static_cast<std::ptrdiff_t>(slot + cells)};
}

std::vector<double>
Telemetry::histogramBounds(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(regMutex_);
    const MetricDef *def = findDef(name);
    if (def == nullptr || def->kind != Kind::Histogram)
        return {};
    return def->bounds;
}

double
Telemetry::histogramQuantile(const std::string &name, double q) const
{
    return quantileFromHistogramCells(histogramBounds(name),
                                      histogramCells(name), q);
}

double
quantileFromHistogramCells(const std::vector<double> &bounds,
                           const std::vector<std::uint64_t> &cells,
                           double q)
{
    // Layout contract: one count per bound, then overflow, then sum.
    if (bounds.empty() || cells.size() < bounds.size() + 2)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= bounds.size(); ++i)
        total += cells[i];
    if (total == 0)
        return 0.0;
    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        const std::uint64_t next = cumulative + cells[i];
        if (cells[i] != 0 && static_cast<double>(next) >= rank) {
            const double hi = bounds[i];
            const double lo =
                i == 0 ? std::min(0.0, hi) : bounds[i - 1];
            const double within =
                (rank - static_cast<double>(cumulative)) /
                static_cast<double>(cells[i]);
            return lo + (hi - lo) * within;
        }
        cumulative = next;
    }
    // Rank lands in the overflow bucket: the layout records no upper
    // edge there, so the estimate saturates at the last bound.
    return bounds.back();
}

std::size_t
Telemetry::spanEventCount() const
{
    const std::lock_guard<std::mutex> lock(dataMutex_);
    std::size_t count = 0;
    for (const auto &buf : threadBufs_)
        count += buf->events.size();
    return count;
}

std::size_t
Telemetry::dramEventCount() const
{
    const std::lock_guard<std::mutex> lock(dataMutex_);
    return dramEvents_.size();
}

void
Telemetry::writeMetricsText(std::ostream &os) const
{
    std::vector<MetricDef> defs;
    std::map<std::string, MetricId> names;
    {
        const std::lock_guard<std::mutex> lock(regMutex_);
        defs = defs_;
        names = names_;
    }
    const std::vector<std::uint64_t> merged = mergedCells();
    const auto cell = [&](std::size_t index) -> std::uint64_t {
        return index < merged.size() ? merged[index] : 0;
    };
    for (const auto &[name, id] : names) {
        const MetricDef &def = defs[id];
        if (def.kind != Kind::Histogram) {
            os << name << ' ' << jsonNumber(cell(def.slot)) << '\n';
            continue;
        }
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < def.bounds.size(); ++b) {
            cumulative += cell(def.slot + b);
            os << name << "{le=" << jsonNumber(def.bounds[b]) << "} "
               << jsonNumber(cumulative) << '\n';
        }
        cumulative += cell(def.slot + def.bounds.size());
        os << name << "{le=+Inf} " << jsonNumber(cumulative) << '\n';
        os << name << ".sum "
           << jsonNumber(cell(def.slot + def.bounds.size() + 1))
           << '\n';
        os << name << ".count " << jsonNumber(cumulative) << '\n';
    }
}

void
Telemetry::writeChromeTrace(std::ostream &os) const
{
    std::vector<std::pair<std::uint64_t, std::vector<TraceEvent>>>
        spanBufs;
    std::vector<TraceEvent> dram;
    {
        const std::lock_guard<std::mutex> lock(dataMutex_);
        spanBufs.reserve(threadBufs_.size());
        for (const auto &buf : threadBufs_)
            spanBufs.emplace_back(buf->tid, buf->events);
        dram = dramEvents_;
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto comma = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };
    const auto meta = [&](std::uint64_t pid, const std::uint64_t *tid,
                          const char *what, const std::string &name) {
        comma();
        os << "{\"ph\":\"M\",\"pid\":" << jsonNumber(pid);
        if (tid != nullptr)
            os << ",\"tid\":" << jsonNumber(*tid);
        os << ",\"name\":\"" << what << "\",\"args\":{\"name\":"
           << jsonQuote(name) << "}}";
    };
    const auto emit = [&](const TraceEvent &event) {
        comma();
        os << "{\"name\":" << jsonQuote(event.name)
           << ",\"ph\":\"X\",\"ts\":" << jsonNumber(event.tsUs)
           << ",\"dur\":" << jsonNumber(event.durUs)
           << ",\"pid\":" << jsonNumber(event.pid)
           << ",\"tid\":" << jsonNumber(event.tid) << ",\"args\":{";
        for (std::size_t i = 0; i < event.args.size(); ++i) {
            os << (i == 0 ? "" : ",")
               << jsonQuote(event.args[i].first) << ":"
               << jsonQuote(event.args[i].second);
        }
        os << "}}";
    };

    bool anySpans = false;
    for (const auto &[tid, events] : spanBufs)
        anySpans = anySpans || !events.empty();
    if (anySpans)
        meta(1, nullptr, "process_name", "pud queries");
    for (const auto &[tid, events] : spanBufs) {
        if (events.empty())
            continue;
        meta(1, &tid, "thread_name",
             "worker " + std::to_string(tid));
    }
    std::map<std::uint64_t, std::map<std::uint64_t, bool>> dramTracks;
    for (const TraceEvent &event : dram)
        dramTracks[event.pid][event.tid] = true;
    for (const auto &[pid, banks] : dramTracks) {
        const std::uint64_t module = pid - kDramPidBase;
        meta(pid, nullptr, "process_name",
             module == 0 ? std::string("dram (unscoped)")
                         : "dram module " + std::to_string(module));
        for (const auto &[bank, unused] : banks) {
            (void)unused;
            meta(pid, &bank, "thread_name",
                 "bank " + std::to_string(bank));
        }
    }

    for (const auto &[tid, events] : spanBufs) {
        (void)tid;
        for (const TraceEvent &event : events)
            emit(event);
    }
    for (const TraceEvent &event : dram)
        emit(event);
    os << "\n]}\n";
}

bool
Telemetry::writeMetricsFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        return false;
    writeMetricsText(file);
    return static_cast<bool>(file);
}

bool
Telemetry::writeTraceFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        return false;
    writeChromeTrace(file);
    return static_cast<bool>(file);
}

MetricScope::MetricScope(std::uint64_t module) : savedModule_(tls_module)
{
    tls_module = module + 1; // 0 stays the unscoped shard.
}

MetricScope::~MetricScope()
{
    tls_module = savedModule_;
}

Span::Span(Telemetry &telemetry, const char *name)
{
    if (telemetry.spansOn()) {
        telemetry_ = &telemetry;
        name_ = name;
        startUs_ = Telemetry::nowUs();
    }
}

Span::Span(Span &&other) noexcept
    : telemetry_(other.telemetry_), name_(other.name_),
      startUs_(other.startUs_), args_(std::move(other.args_))
{
    other.telemetry_ = nullptr;
}

Span &
Span::operator=(Span &&other) noexcept
{
    if (this != &other) {
        end();
        telemetry_ = other.telemetry_;
        name_ = other.name_;
        startUs_ = other.startUs_;
        args_ = std::move(other.args_);
        other.telemetry_ = nullptr;
    }
    return *this;
}

Span::~Span()
{
    end();
}

void
Span::end()
{
    if (telemetry_ == nullptr)
        return;
    telemetry_->endSpan(*this);
    telemetry_ = nullptr;
}

void
Span::arg(const char *key, std::uint64_t value)
{
    if (telemetry_ != nullptr)
        args_.emplace_back(key, jsonNumber(value));
}

void
Span::arg(const char *key, const std::string &value)
{
    if (telemetry_ != nullptr)
        args_.emplace_back(key, value);
}

void
Span::arg(const char *key, const char *value)
{
    if (telemetry_ != nullptr)
        args_.emplace_back(key, value);
}

DramLabel::DramLabel(const char *label) : saved_(tls_dram_label)
{
    tls_dram_label = label;
}

DramLabel::~DramLabel()
{
    tls_dram_label = saved_;
}

const char *
DramLabel::current()
{
    return tls_dram_label != nullptr ? tls_dram_label : "program";
}

} // namespace fcdram::obs
