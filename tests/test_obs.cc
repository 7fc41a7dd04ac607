#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "fcdram/session.hh"
#include "obs/telemetry.hh"
#include "pud/service.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

using namespace fcdram::pud;

/**
 * Telemetry tests: registry semantics (counters, gauges, histogram
 * bucketing, scope sharding, gauge max-merge), disabled-pillar
 * no-op guarantees, span nesting well-formedness, a full trace JSON
 * round-trip through a minimal parser, the worker-count invariance
 * of the merged metrics dump under a real QueryService workload, and
 * the plan-cache ledger mirrored into the registry.
 */

using test::JsonParser;
using test::JsonValue;

obs::TelemetryConfig
allPillars()
{
    obs::TelemetryConfig config;
    config.metrics = true;
    config.spans = true;
    config.dramTrace = true;
    return config;
}

obs::TelemetryConfig
metricsOnly()
{
    obs::TelemetryConfig config;
    config.metrics = true;
    return config;
}

/** RAII guard: resets the global sink on entry and exit so tests
 *  that drive obs::global() cannot leak state into each other. */
struct GlobalTelemetryGuard
{
    GlobalTelemetryGuard() { obs::global().reset(); }
    ~GlobalTelemetryGuard() { obs::global().reset(); }
};

// ---- registry semantics on a private instance ----------------------

TEST(TelemetryRegistry, CountersAccumulateAcrossScopesAndMerge)
{
    obs::Telemetry tel;
    tel.configure(metricsOnly());
    const obs::MetricId c = tel.counter("t.count");
    tel.add(c);
    {
        const obs::MetricScope scope(0);
        tel.add(c, 2);
    }
    {
        const obs::MetricScope scope(1);
        tel.add(c, 4);
    }
    EXPECT_EQ(tel.value("t.count"), 7u);
    EXPECT_EQ(tel.value("t.unregistered"), 0u);
}

TEST(TelemetryRegistry, GaugesMergeByMaxAcrossShards)
{
    obs::Telemetry tel;
    tel.configure(metricsOnly());
    const obs::MetricId g = tel.gauge("t.gauge");
    {
        const obs::MetricScope scope(0);
        tel.set(g, 5);
    }
    {
        const obs::MetricScope scope(1);
        tel.set(g, 9);
    }
    {
        const obs::MetricScope scope(2);
        tel.set(g, 3);
    }
    EXPECT_EQ(tel.value("t.gauge"), 9u);
}

TEST(TelemetryRegistry, HistogramBucketBoundaries)
{
    obs::Telemetry tel;
    tel.configure(metricsOnly());
    const obs::MetricId h = tel.histogram("t.hist", {1.0, 10.0, 100.0});
    // A value exactly on a bound lands in that bound's bucket
    // (le semantics); above the last bound lands in overflow.
    tel.observe(h, 0.5);
    tel.observe(h, 1.0);
    tel.observe(h, 1.5);
    tel.observe(h, 100.0);
    tel.observe(h, 100.5);
    const std::vector<std::uint64_t> cells =
        tel.histogramCells("t.hist");
    ASSERT_EQ(cells.size(), 5u); // 3 buckets + overflow + sum.
    EXPECT_EQ(cells[0], 2u);     // <= 1
    EXPECT_EQ(cells[1], 1u);     // (1, 10]
    EXPECT_EQ(cells[2], 1u);     // (10, 100]
    EXPECT_EQ(cells[3], 1u);     // > 100
    // Sum of llround'd observations: 1 + 1 + 2 + 100 + 101.
    EXPECT_EQ(cells[4], 205u);

    // Negative observations clamp to 0 in the sum but still count.
    tel.observe(h, -5.0);
    EXPECT_EQ(tel.histogramCells("t.hist")[0], 3u);
    EXPECT_EQ(tel.histogramCells("t.hist")[4], 205u);

    EXPECT_THROW((void)tel.value("t.hist"), std::logic_error);
    EXPECT_TRUE(tel.histogramCells("t.count.missing").empty());
}

TEST(TelemetryRegistry, HistogramQuantileFromRegistry)
{
    obs::Telemetry tel;
    tel.configure(metricsOnly());
    const obs::MetricId h =
        tel.histogram("t.lat", {1.0, 2.0, 4.0, 8.0});
    // Ten observations per bucket: quantiles hit bucket edges at the
    // cumulative fractions and interpolate linearly in between.
    for (int i = 0; i < 10; ++i) {
        tel.observe(h, 0.5);
        tel.observe(h, 1.5);
        tel.observe(h, 3.0);
        tel.observe(h, 6.0);
    }
    EXPECT_EQ(tel.histogramBounds("t.lat"),
              (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 0.25), 1.0);
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 0.5), 2.0);
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 0.75), 4.0);
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 0.125), 0.5);
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 0.625), 3.0);
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.lat", 1.0), 8.0);
    EXPECT_TRUE(tel.histogramBounds("t.missing").empty());
    EXPECT_DOUBLE_EQ(tel.histogramQuantile("t.missing", 0.5), 0.0);
}

TEST(TelemetryRegistry, QuantileFromCellsOverflowAndMalformed)
{
    const std::vector<double> bounds{1.0, 2.0};
    // Cells layout: per-bucket counts, overflow, sum. One in-range
    // observation and nine in overflow: the tail quantile saturates
    // at the last bound because overflow has no upper edge.
    const std::vector<std::uint64_t> cells{1, 0, 9, 123};
    EXPECT_DOUBLE_EQ(
        obs::quantileFromHistogramCells(bounds, cells, 0.99), 2.0);
    EXPECT_DOUBLE_EQ(
        obs::quantileFromHistogramCells(bounds, cells, 0.05), 0.5);
    EXPECT_DOUBLE_EQ(obs::quantileFromHistogramCells({}, cells, 0.5),
                     0.0);
    EXPECT_DOUBLE_EQ(
        obs::quantileFromHistogramCells(bounds, {1, 2}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(
        obs::quantileFromHistogramCells(bounds, {0, 0, 0, 0}, 0.5),
        0.0);
}

TEST(TelemetryRegistry, ReRegistrationIsIdempotentByNameOnly)
{
    obs::Telemetry tel;
    const obs::MetricId c = tel.counter("t.metric");
    EXPECT_EQ(tel.counter("t.metric"), c);
    EXPECT_THROW((void)tel.gauge("t.metric"), std::logic_error);
    EXPECT_THROW((void)tel.histogram("t.metric", {1.0}),
                 std::logic_error);
    const obs::MetricId h = tel.histogram("t.h", {1.0, 2.0});
    EXPECT_EQ(tel.histogram("t.h", {1.0, 2.0}), h);
    EXPECT_THROW((void)tel.histogram("t.h", {1.0, 3.0}),
                 std::logic_error);
    EXPECT_THROW((void)tel.histogram("t.bad", {2.0, 1.0}),
                 std::logic_error);
    EXPECT_THROW((void)tel.histogram("t.bad2", {}), std::logic_error);
}

TEST(TelemetryRegistry, DisabledConfigRecordsNothing)
{
    obs::Telemetry tel; // All pillars default off.
    const obs::MetricId c = tel.counter("t.count");
    const obs::MetricId g = tel.gauge("t.gauge");
    const obs::MetricId h = tel.histogram("t.hist", {1.0});
    tel.add(c, 10);
    tel.set(g, 10);
    tel.observe(h, 10.0);
    {
        obs::Span span(tel, "t.span");
        EXPECT_FALSE(span.active());
        span.arg("k", std::uint64_t{1});
    }
    tel.recordDramProgram(
        {{obs::Telemetry::DramCmdKind::Act, 0, 1, 0.0}}, "MAJ");

    EXPECT_EQ(tel.value("t.count"), 0u);
    EXPECT_EQ(tel.value("t.gauge"), 0u);
    EXPECT_EQ(tel.histogramCells("t.hist"),
              (std::vector<std::uint64_t>{0, 0, 0}));
    EXPECT_EQ(tel.spanEventCount(), 0u);
    EXPECT_EQ(tel.dramEventCount(), 0u);

    std::ostringstream trace;
    tel.writeChromeTrace(trace);
    const JsonValue root = JsonParser(trace.str()).parse();
    EXPECT_TRUE(root.at("traceEvents").array.empty());
}

TEST(TelemetryRegistry, ResetClearsDataButKeepsDefinitions)
{
    obs::Telemetry tel;
    tel.configure(allPillars());
    const obs::MetricId c = tel.counter("t.count");
    tel.add(c, 3);
    { obs::Span span(tel, "t.span"); }
    tel.recordDramProgram(
        {{obs::Telemetry::DramCmdKind::Act, 0, 1, 0.0}}, "NOT");
    EXPECT_EQ(tel.value("t.count"), 3u);
    EXPECT_GT(tel.spanEventCount(), 0u);
    EXPECT_GT(tel.dramEventCount(), 0u);

    tel.reset();
    EXPECT_FALSE(tel.metricsOn());
    EXPECT_EQ(tel.value("t.count"), 0u);
    EXPECT_EQ(tel.spanEventCount(), 0u);
    EXPECT_EQ(tel.dramEventCount(), 0u);

    // The handle survives and counts again once re-enabled.
    tel.configure(metricsOnly());
    tel.add(c, 2);
    EXPECT_EQ(tel.value("t.count"), 2u);
}

// ---- trace export ---------------------------------------------------

TEST(TelemetryTrace, SpansNestAndRoundTripThroughJson)
{
    obs::Telemetry tel;
    tel.configure(allPillars());
    {
        obs::Span outer(tel, "outer");
        outer.arg("module", std::uint64_t{3});
        outer.arg("label", "warm \"quoted\"\n");
        {
            obs::Span inner(tel, "inner");
            inner.arg("index", std::uint64_t{0});
        }
        { obs::Span sibling(tel, "sibling"); }
    }
    tel.recordDramProgram(
        {
            {obs::Telemetry::DramCmdKind::Act, 0, 7, 0.0},
            {obs::Telemetry::DramCmdKind::Pre, 0, 0, 36.0},
            {obs::Telemetry::DramCmdKind::Act, 1, 9, 40.0},
        },
        "Logic");
    EXPECT_EQ(tel.spanEventCount(), 3u);
    // Two per-bank Logic epochs + three commands.
    EXPECT_EQ(tel.dramEventCount(), 5u);

    std::ostringstream os;
    tel.writeChromeTrace(os);
    const JsonValue root = JsonParser(os.str()).parse();
    EXPECT_EQ(root.at("displayTimeUnit").string, "ms");

    struct Complete
    {
        std::string name;
        double ts, dur;
        std::uint64_t pid, tid;
    };
    std::vector<Complete> spans;
    std::vector<Complete> dram;
    bool sawOuterArgs = false;
    for (const JsonValue &event : root.at("traceEvents").array) {
        ASSERT_EQ(event.type, JsonValue::Type::Object);
        const std::string ph = event.at("ph").string;
        if (ph == "M")
            continue;
        ASSERT_EQ(ph, "X");
        Complete c{event.at("name").string, event.at("ts").number,
                   event.at("dur").number,
                   static_cast<std::uint64_t>(
                       event.at("pid").number),
                   static_cast<std::uint64_t>(
                       event.at("tid").number)};
        if (c.name == "outer") {
            EXPECT_EQ(event.at("args").at("module").string, "3");
            EXPECT_EQ(event.at("args").at("label").string,
                      "warm \"quoted\"\n");
            sawOuterArgs = true;
        }
        (c.pid == 1 ? spans : dram).push_back(c);
    }
    EXPECT_TRUE(sawOuterArgs);
    ASSERT_EQ(spans.size(), 3u);
    ASSERT_EQ(dram.size(), 5u);

    // DRAM events live on pid >= 100 (module tracks), spans on pid 1.
    for (const Complete &c : dram)
        EXPECT_GE(c.pid, 100u);

    // Well-formed nesting per (pid, tid): sorted by start time, every
    // event either nests inside the open event or starts after it.
    std::sort(spans.begin(), spans.end(),
              [](const Complete &a, const Complete &b) {
                  return a.ts < b.ts;
              });
    std::vector<const Complete *> stack;
    const double eps = 1e-6;
    for (const Complete &c : spans) {
        while (!stack.empty() &&
               c.ts >= stack.back()->ts + stack.back()->dur - eps)
            stack.pop_back();
        if (!stack.empty()) {
            EXPECT_LE(c.ts + c.dur,
                      stack.back()->ts + stack.back()->dur + eps);
        }
        stack.push_back(&c);
    }

    // The "outer" span must contain "inner" and "sibling".
    EXPECT_EQ(spans.front().name, "outer");
    EXPECT_GE(spans[1].ts, spans[0].ts - eps);
    EXPECT_LE(spans[1].ts + spans[1].dur,
              spans[0].ts + spans[0].dur + eps);
}

TEST(TelemetryTrace, DramProgramsAdvanceTheModuleTimeline)
{
    obs::Telemetry tel;
    tel.configure(allPillars());
    const std::vector<obs::Telemetry::DramCmd> program = {
        {obs::Telemetry::DramCmdKind::Act, 0, 1, 0.0},
        {obs::Telemetry::DramCmdKind::Pre, 0, 0, 30.0},
    };
    const obs::MetricScope scope(2);
    tel.recordDramProgram(program, "MAJ");
    tel.recordDramProgram(program, "MAJ");

    std::ostringstream os;
    tel.writeChromeTrace(os);
    const JsonValue root = JsonParser(os.str()).parse();
    std::vector<double> epochStarts;
    for (const JsonValue &event : root.at("traceEvents").array) {
        if (event.at("ph").string == "X" &&
            event.at("name").string == "MAJ") {
            // Scope module 2 renders as dram pid 100 + (2 + 1).
            EXPECT_EQ(event.at("pid").number, 103.0);
            epochStarts.push_back(event.at("ts").number);
        }
    }
    ASSERT_EQ(epochStarts.size(), 2u);
    // The second program starts strictly after the first ends.
    EXPECT_GT(epochStarts[1], epochStarts[0]);
}

// ---- worker-count invariance under a real workload ------------------

std::string
runServiceWorkload(int workers)
{
    obs::Telemetry &tel = obs::global();
    tel.reset();
    tel.configure(metricsOnly());

    CampaignConfig config = CampaignConfig::forTests();
    config.workers = workers;
    const auto session = std::make_shared<FleetSession>(config);
    QueryService service(session);

    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < 4; ++i) {
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));
    }
    const PreparedQuery prepared =
        service.prepare(pool, pool.mkAnd(cols));

    std::map<std::string, BitVector> data;
    Rng rng(0x0B5);
    for (int i = 0; i < 4; ++i) {
        BitVector column(static_cast<std::size_t>(
            config.geometry.columns));
        column.randomize(rng);
        data.emplace(std::string("c") + std::to_string(i),
                     std::move(column));
    }

    // Cold + warm submit so cache hits and misses both appear.
    for (int pass = 0; pass < 2; ++pass) {
        const QueryTicket ticket = service.submit(
            {prepared.bind(data)}, FleetSession::Fleet::SkHynix);
        (void)service.collect(ticket);
    }

    std::ostringstream os;
    tel.writeMetricsText(os);
    tel.reset();
    return os.str();
}

TEST(TelemetryInvariance, MetricsDumpIsIdenticalAcrossWorkerCounts)
{
    const GlobalTelemetryGuard guard;
    const std::string dump1 = runServiceWorkload(1);
    const std::string dump4 = runServiceWorkload(4);
    EXPECT_FALSE(dump1.empty());
    EXPECT_EQ(dump1, dump4);
    // Spot-check the dump carries the engine pipeline counters.
    EXPECT_NE(dump1.find("engine.executes"), std::string::npos);
    EXPECT_NE(dump1.find("bender.programs"), std::string::npos);
    EXPECT_NE(dump1.find("engine.query_dram_ns{le="),
              std::string::npos);
}

TEST(TelemetryInvariance, PlanCacheLedgerMirrorsIntoRegistry)
{
    const GlobalTelemetryGuard guard;
    obs::Telemetry &tel = obs::global();
    tel.configure(metricsOnly());

    CampaignConfig config = CampaignConfig::forTests();
    config.workers = 1;
    const auto session = std::make_shared<FleetSession>(config);
    QueryService service(session);

    ExprPool pool;
    const ExprId root =
        pool.mkAnd(pool.column("a"), pool.column("b"));
    const PreparedQuery prepared = service.prepare(pool, root);
    std::map<std::string, BitVector> data;
    Rng rng(9);
    for (const char *name : {"a", "b"}) {
        BitVector column(static_cast<std::size_t>(
            config.geometry.columns));
        column.randomize(rng);
        data.emplace(name, std::move(column));
    }
    const auto module =
        session->modules(FleetSession::Fleet::SkHynix).front();

    BatchQueryResult cold = service.collect(
        service.submit({prepared.bind(data)}, module));
    BatchQueryResult warm = service.collect(
        service.submit({prepared.bind(data)}, module));

    // collect() enforces hits + misses == lookups; the registry must
    // agree with the service's own ledger.
    EXPECT_EQ(tel.value("plancache.lookups"),
              tel.value("plancache.hits") +
                  tel.value("plancache.misses"));
    EXPECT_EQ(tel.value("plancache.lookups"),
              cold.cache.lookups + warm.cache.lookups);
    EXPECT_EQ(tel.value("plancache.misses"), cold.cache.misses);
    EXPECT_GE(warm.cache.hits, 1u);
    EXPECT_EQ(warm.cache.compiles, 0u);
    EXPECT_EQ(tel.value("plancache.compiles"), cold.cache.compiles);
    EXPECT_EQ(tel.value("service.submits"), 2u);
    EXPECT_EQ(tel.value("service.collects"), 2u);
}

} // namespace
} // namespace fcdram
