/**
 * @file
 * PuD query-engine bench: prepares bitmap queries of sweeping width
 * and shape through the QueryService lifecycle
 * (prepare -> bind -> submit -> collect), runs them fleet-wide over
 * the SK Hynix designs as ONE batched fleet pass, and reports
 * accuracy, DRAM command counts, and the analytic latency/energy
 * estimate next to the CPU scan baseline.
 *
 * Acceptance properties checked here (non-zero exit on violation):
 *  - the conjunctive and disjunctive queries match the CPU golden
 *    model on every column the engine trusts to DRAM, fleet-wide,
 *    on BOTH the cold and the warm pass;
 *  - submitting the same prepared batch a second time is served
 *    entirely from the plan cache: zero compiles, zero placements,
 *    zero allocator builds, only hits (the prepared-query lifecycle
 *    amortizes exactly what the one-shot API re-paid per call);
 *  - the compiled command count of a 16-way AND is strictly lower
 *    than the 15-gate chained 2-input tree on every module that can
 *    activate the fused shape (wide-gate fusion demonstrably pays).
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "benchutil.hh"
#include "pud/service.hh"

using namespace fcdram;
using namespace fcdram::benchutil;
using namespace fcdram::pud;

namespace {

struct QuerySpec
{
    std::string label;
    ExprId root = kNoExpr;
    bool mustMatch = false; ///< Acceptance: golden match required.
};

void
addFleetRow(Table &table, const std::string &label,
            const FleetQueryStats &stats, std::size_t fleetSize)
{
    table.addRow();
    table.addCell(label);
    table.addCell(static_cast<std::uint64_t>(stats.placedModules()));
    table.addCell(static_cast<std::uint64_t>(fleetSize));
    table.addCell(stats.meanCommands(), 1);
    table.addCell(stats.meanLatencyNs(), 1);
    table.addCell(stats.meanEnergyNj(), 1);
    table.addCell(100.0 * stats.meanCoverage(), 1);
    table.addCell(static_cast<std::uint64_t>(stats.checkedBits()));
    table.addCell(stats.accuracyPercent(), 3);
    table.addCell(stats.meanCpuLatencyNs(), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner(std::cout,
                "PuD query engine: prepared-query lifecycle over "
                "in-DRAM op schedules");

    // --skip-speedup-gate: keep recording the word-vs-scalar 8192
    // ablation metrics but do not hard-fail on the 3x bound. Meant
    // for instrumented (ASan/UBSan) CI runs, whose overhead flattens
    // wall-clock ratios; the bit-identity gate always stays hard.
    bool skipSpeedupGate = false;
    std::vector<char *> filteredArgs;
    filteredArgs.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--skip-speedup-gate") {
            skipSpeedupGate = true;
            continue;
        }
        filteredArgs.push_back(argv[i]);
    }
    CampaignConfig config =
        figureConfig(static_cast<int>(filteredArgs.size()),
                     filteredArgs.data());
    // Two banks of subarray pairs: independent gates of one wave
    // (and the queries of one batch) overlap across banks in the
    // latency model.
    config.banksPerChip = 2;
    const auto session = std::make_shared<FleetSession>(config);
    const std::size_t fleetSize =
        session->modules(FleetSession::Fleet::SkHynix).size();

    BenchReport report("pud_query");

    // ---- Build and prepare the query sweep -----------------------
    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < 16; ++i)
        cols.push_back(pool.column(std::string("c") + std::to_string(i)));

    std::vector<QuerySpec> queries;
    for (const int width : {2, 4, 8, 16}) {
        const std::vector<ExprId> slice(cols.begin(),
                                        cols.begin() + width);
        queries.push_back({std::string("AND-") + std::to_string(width),
                           pool.mkAnd(slice), width == 16});
        queries.push_back({std::string("OR-") + std::to_string(width),
                           pool.mkOr(slice), width == 16});
    }
    queries.push_back(
        {"(a&~b)|(c&d)",
         pool.mkOr(pool.mkAnd(cols[0], pool.mkNot(cols[1])),
                   pool.mkAnd(cols[2], cols[3])),
         false});
    queries.push_back({"XOR-4",
                       pool.mkXor({cols[0], cols[1], cols[2], cols[3]}),
                       false});

    EngineOptions options;
    options.redundancy = 3; // Majority vote per gate.
    QueryService service(session, options);

    std::vector<BoundQuery> batch;
    batch.reserve(queries.size());
    for (const QuerySpec &query : queries)
        batch.push_back(service.prepare(pool, query.root).bindSeeded());
    report.lap("prepare");

    // ---- Cold vs warm batched fleet pass -------------------------
    // The cold submit compiles, ranks slots, and derives reliability
    // masks; the warm submit of the SAME prepared batch must be
    // served entirely from the plan cache and only re-execute.
    const QueryTicket coldTicket =
        service.submit(batch, FleetSession::Fleet::SkHynix);
    const BatchQueryResult cold = service.collect(coldTicket);
    const double coldMs = report.lap("cold_batch");

    const QueryTicket warmTicket =
        service.submit(batch, FleetSession::Fleet::SkHynix);
    const BatchQueryResult warm = service.collect(warmTicket);
    const double warmMs = report.lap("warm_batch");

    report.metric("cold_compiles",
                  static_cast<double>(cold.cache.compiles));
    report.metric("cold_placements",
                  static_cast<double>(cold.cache.placements));
    report.metric("cold_allocator_builds",
                  static_cast<double>(cold.cache.allocatorBuilds));
    report.metric("warm_compiles",
                  static_cast<double>(warm.cache.compiles));
    report.metric("warm_placements",
                  static_cast<double>(warm.cache.placements));
    report.metric("warm_allocator_builds",
                  static_cast<double>(warm.cache.allocatorBuilds));
    report.metric("warm_plan_hits",
                  static_cast<double>(warm.cache.hits));
    report.metric("warm_speedup",
                  warmMs > 0.0 ? coldMs / warmMs : 0.0);

    bool cacheHolds =
        cold.cache.compiles > 0 && cold.cache.placements > 0 &&
        warm.cache.compiles == 0 && warm.cache.placements == 0 &&
        warm.cache.allocatorBuilds == 0 && warm.cache.misses == 0 &&
        warm.cache.hits > 0;
    if (!cacheHolds) {
        std::cerr << "FAIL: warm submit was not served from the plan "
                     "cache (cold compiles="
                  << cold.cache.compiles
                  << " placements=" << cold.cache.placements
                  << "; warm compiles=" << warm.cache.compiles
                  << " placements=" << warm.cache.placements
                  << " misses=" << warm.cache.misses
                  << " hits=" << warm.cache.hits << ")\n";
    }
    std::cout << "Cold batch " << formatDouble(coldMs, 1)
              << " ms (compiles=" << cold.cache.compiles
              << ", placements=" << cold.cache.placements
              << ", allocator builds=" << cold.cache.allocatorBuilds
              << "); warm batch " << formatDouble(warmMs, 1)
              << " ms (plan hits=" << warm.cache.hits
              << ", compiles=" << warm.cache.compiles
              << ", placements=" << warm.cache.placements << ")\n\n";

    // ---- Fleet-wide sweep table (cold pass results) --------------
    Table table({"query", "placed", "fleet", "DRAM cmds", "latency ns",
                 "energy nJ", "DRAM cols %", "checked bits", "acc %",
                 "CPU scan ns"});
    bool accuracyHolds = true;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const FleetQueryStats &stats = cold.queries[q];
        const FleetQueryStats &again = warm.queries[q];
        addFleetRow(table, queries[q].label, stats, fleetSize);
        if (!queries[q].mustMatch)
            continue;
        report.metric(queries[q].label + "_checked_bits",
                      static_cast<double>(stats.checkedBits()));
        report.metric(queries[q].label + "_accuracy",
                      stats.accuracyPercent());
        for (const FleetQueryStats *pass : {&stats, &again}) {
            if (pass->matchingBits() != pass->checkedBits()) {
                std::cerr << queries[q].label
                          << ": DRAM result diverged from the CPU "
                             "golden model on "
                          << (pass->checkedBits() -
                              pass->matchingBits())
                          << " reliable bits\n";
                accuracyHolds = false;
            }
        }
        // Golden accuracy must be unchanged between the passes.
        if (stats.accuracyPercent() != again.accuracyPercent()) {
            std::cerr << queries[q].label
                      << ": accuracy changed between the cold and "
                         "warm pass\n";
            accuracyHolds = false;
        }
    }
    table.print(std::cout);
    report.lap("fleet_tables");

    // ---- Batch ledgers -------------------------------------------
    // One submit stages shared columns once and interleaves the
    // queries' waves across banks.
    report.metric("batch_serial_latency_ns", cold.serialLatencyNs);
    report.metric("batch_interleaved_latency_ns",
                  cold.interleavedLatencyNs);
    report.metric("batch_naive_load_cmds",
                  static_cast<double>(cold.naiveLoad.commands));
    report.metric("batch_resident_load_cmds",
                  static_cast<double>(cold.residentLoad.commands));
    std::cout << "\nBatch of " << batch.size()
              << " queries per module: serial "
              << formatDouble(cold.serialLatencyNs, 1)
              << " ns vs bank-interleaved "
              << formatDouble(cold.interleavedLatencyNs, 1)
              << " ns; copy-in staging " << cold.naiveLoad.commands
              << " cmds naive vs " << cold.residentLoad.commands
              << " cmds with shared resident columns.\n";

    // ---- XOR tree depth ------------------------------------------
    // The balanced XOR lowering must schedule a 16-way XOR in
    // O(log n) waves; the old left fold chained 15 dependent steps
    // into 31 waves. Non-zero exit on regression.
    const MicroProgram xorTree =
        Compiler(CompilerOptions{}).compile(pool, pool.mkXor(cols));
    const int chainWaves = 1 + 2 * (16 - 1); // Loads + 15 XOR steps.
    const int treeWaves = 1 + 2 * 4;         // Loads + 4 tree levels.
    report.metric("xor16_waves", xorTree.numWaves);
    report.metric("xor16_chain_waves", chainWaves);
    if (xorTree.numWaves > treeWaves) {
        std::cerr << "FAIL: XOR-16 compiled to " << xorTree.numWaves
                  << " waves; the balanced tree bound is "
                  << treeWaves << " (left-fold chain: " << chainWaves
                  << ")\n";
        return 1;
    }
    std::cout << "\nXOR-16 schedules in " << xorTree.numWaves
              << " waves (balanced tree; a left-fold chain needs "
              << chainWaves << ").\n";

    // ---- Wide-gate fusion ablation -------------------------------
    // The same 16-way AND compiled at maxGateInputs=2 becomes the
    // classic 15-gate 2-input tree; fusion must beat it outright on
    // every module that supports the fused activation shape. The
    // fused side is the AND-16 sweep row (identical query, options,
    // and per-module data: both sides bind the default seed).
    const ExprId and16 = pool.mkAnd(cols);
    std::size_t fusedIndex = queries.size();
    for (std::size_t q = 0; q < queries.size(); ++q) {
        if (queries[q].root == and16)
            fusedIndex = q;
    }
    if (fusedIndex == queries.size()) {
        std::cerr << "FAIL: the sweep no longer contains the 16-way "
                     "AND the fusion ablation compares against\n";
        return 1;
    }
    const FleetQueryStats &fused = cold.queries[fusedIndex];

    EngineOptions chainedOptions = options;
    chainedOptions.maxGateInputs = 2;
    QueryService chainedService(session, chainedOptions);
    const FleetQueryStats chained = std::move(
        chainedService
            .collect(chainedService.submit(
                {chainedService.prepare(pool, and16).bindSeeded()},
                FleetSession::Fleet::SkHynix))
            .queries.front());
    report.lap("fusion_ablation");

    std::cout << "\nWide-gate fusion (16-way AND, per module):\n";
    Table fusion({"module", "fused cmds", "chained cmds", "fused ns",
                  "chained ns"});
    bool fusionWins = true;
    std::size_t comparable = 0;
    for (std::size_t i = 0; i < fused.modules.size(); ++i) {
        const QueryResult &f = fused.modules[i].result;
        const QueryResult &c = chained.modules[i].result;
        if (!f.placed || !c.placed)
            continue;
        ++comparable;
        fusion.addRow();
        fusion.addCell(fused.modules[i].label);
        fusion.addCell(f.dram.commands);
        fusion.addCell(c.dram.commands);
        fusion.addCell(f.dram.latencyNs, 1);
        fusion.addCell(c.dram.latencyNs, 1);
        fusionWins = fusionWins && f.dram.commands < c.dram.commands;
    }
    fusion.print(std::cout);
    report.metric("fusion_comparable_modules",
                  static_cast<double>(comparable));
    report.metric("and16_fused_cmds_mean", fused.meanCommands());
    report.metric("and16_chained_cmds_mean", chained.meanCommands());

    std::cout << "\nA fused 16-input gate is one violated "
                 "ACT-PRE-ACT-PRE sequence; the chained tree\npays "
                 "15 gates of reference init + copy-in + readout. "
                 "Unreliable columns fall\nback to the CPU per bit "
                 "position, so hybrid results match the golden "
                 "model.\n";

    // ---- Word-parallel data plane at full row width --------------
    // The hybrid rail/analog executor targets realistic row widths:
    // run one module at geometry.columns = 8192 with the
    // word-parallel engine vs the scalar-reference executor (the
    // pre-word-parallel, cell-at-a-time baseline) on an identical
    // prepared batch. Counter-based noise makes the two modes
    // bit-identical by construction — asserted below — so the
    // recorded speedup is pure data-plane throughput, tracked per PR
    // in BENCH_pud_query.json.
    CampaignConfig wideConfig = config;
    wideConfig.geometry.columns = 8192;
    // Single-module measurement: with the persistent-pool scheduler
    // extra workers cost no spawn churn, but a one-task run executes
    // inline anyway, so pin workers=1 to keep the timed ratio free of
    // pool wake-ups (results are worker-count invariant regardless).
    wideConfig.workers = 1;
    const auto wideSession =
        std::make_shared<FleetSession>(wideConfig);
    const FleetSession::Module &wideModule =
        wideSession->modules(FleetSession::Fleet::SkHynix).front();

    ExprPool widePool;
    std::vector<ExprId> wideCols;
    for (int i = 0; i < 8; ++i) {
        wideCols.push_back(
            widePool.column(std::string("w") + std::to_string(i)));
    }
    const std::vector<ExprId> wideQueries = {
        widePool.mkAnd(wideCols),
        widePool.mkOr(wideCols),
    };

    // One service per executor mode. The cold submits pay compilation
    // and placement; the warm submits measure the execution data plane
    // alone. They alternate between the modes rep by rep, so host load
    // falls on both sides alike, and each side keeps its best of 3 to
    // reject scheduler noise from the timed ratio.
    const ExecMode wideModes[2] = {ExecMode::WordParallel,
                                   ExecMode::ScalarReference};
    std::unique_ptr<QueryService> wideServices[2];
    std::vector<BoundQuery> wideBatches[2];
    for (int side = 0; side < 2; ++side) {
        EngineOptions wideOptions = options;
        wideOptions.execMode = wideModes[side];
        wideServices[side] =
            std::make_unique<QueryService>(wideSession, wideOptions);
        QueryService &wideService = *wideServices[side];
        for (const ExprId root : wideQueries) {
            wideBatches[side].push_back(
                wideService.prepare(widePool, root).bindSeeded());
        }
        wideService.collect(
            wideService.submit(wideBatches[side], wideModule));
    }
    BatchQueryResult wideResults[2];
    double wideMs[2] = {0.0, 0.0};
    for (int rep = 0; rep < 3; ++rep) {
        for (int side = 0; side < 2; ++side) {
            QueryService &wideService = *wideServices[side];
            const auto start = std::chrono::steady_clock::now();
            wideResults[side] = wideService.collect(
                wideService.submit(wideBatches[side], wideModule));
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (rep == 0 || ms < wideMs[side])
                wideMs[side] = ms;
        }
    }
    const BatchQueryResult &wideWord = wideResults[0];
    const BatchQueryResult &wideScalar = wideResults[1];
    const double wideWordMs = wideMs[0];
    const double wideScalarMs = wideMs[1];

    bool wideIdentical = true;
    for (std::size_t q = 0; q < wideQueries.size(); ++q) {
        const QueryResult &w = wideWord.queries[q].modules.front()
                                   .result;
        const QueryResult &s = wideScalar.queries[q].modules.front()
                                   .result;
        wideIdentical = wideIdentical && w.output == s.output &&
                        w.mask == s.mask &&
                        w.checkedBits == s.checkedBits &&
                        w.matchingBits == s.matchingBits;
    }
    const double wideSpeedup =
        wideWordMs > 0.0 ? wideScalarMs / wideWordMs : 0.0;
    report.metric("wide8192_columns", 8192.0);
    report.metric("wide8192_word_ms", wideWordMs);
    report.metric("wide8192_scalar_ms", wideScalarMs);
    report.metric("wide8192_speedup", wideSpeedup);
    std::cout << "\nWord-parallel executor at 8192 columns (one "
                 "module, warm batch): "
              << formatDouble(wideWordMs, 1) << " ms vs "
              << formatDouble(wideScalarMs, 1)
              << " ms scalar reference ("
              << formatDouble(wideSpeedup, 2) << "x, bit-identical="
              << (wideIdentical ? "yes" : "NO") << ")\n";
    report.lap("wide8192_ablation");

    recordCacheStats(report, *session);
    report.save();

    if (!wideIdentical) {
        std::cerr << "\nFAIL: word-parallel and scalar-reference "
                     "executors diverged at 8192 columns\n";
        return 1;
    }
    if (wideSpeedup < 3.0 && !skipSpeedupGate) {
        std::cerr << "\nFAIL: word-parallel executor speedup "
                  << formatDouble(wideSpeedup, 2)
                  << "x at 8192 columns is below the 3x acceptance "
                     "bound\n";
        return 1;
    }

    if (!accuracyHolds) {
        std::cerr << "\nFAIL: reliable columns diverged from the "
                     "golden model\n";
        return 1;
    }
    if (!cacheHolds) {
        std::cerr << "\nFAIL: the warm submit re-paid compilation or "
                     "placement\n";
        return 1;
    }
    if (comparable == 0 || !fusionWins) {
        std::cerr << "\nFAIL: wide-gate fusion did not beat the "
                     "chained 2-input tree\n";
        return 1;
    }
    std::cout << "\nPASS: golden match on all reliable columns on "
                 "both passes; the warm submit was\nserved from the "
                 "plan cache; fusion beats chaining on every capable "
                 "module (" << comparable << "/" << fleetSize
              << ").\n";
    return 0;
}
