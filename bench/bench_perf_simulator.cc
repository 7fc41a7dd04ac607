/**
 * @file
 * Simulator performance bench. Four sections:
 *
 *  1. End-to-end operation throughput at full row width (8192
 *     columns): NOT, N-input logic (NAND family) and in-subarray MAJ
 *     rows per second, plus raw row write/read Mbit/s, measured on
 *     BOTH single-trial executor modes.
 *
 *  2. Fleet sweep: single-trial NOT runs over the SK Hynix fleet
 *     through FleetSession::runOverFleet on the persistent-pool
 *     scheduler, then single-trial 4:4 AND/OR runs over the same
 *     modules through the served gate recipe. A RESULT_HASH line
 *     fingerprints every NOT outcome and a LOGIC_HASH line every
 *     logic outcome (both worker-count invariant by construction).
 *     The NOT sweep's trials/s divides its trials by the sum of
 *     each module's best of 3 thread-CPU timings.
 *
 *  3. Telemetry overhead guard: word-parallel NOT runs at 8192
 *     columns through a nullptr sink, the disabled global sink and
 *     the metrics-on global sink. The run HARD-FAILS (exit 1) if the
 *     disabled sink keeps less than 97% of the nullptr-sink
 *     throughput.
 *
 *  4. google-benchmark microbenchmarks (decoder queries, analytic
 *     sweeps, session pair discovery) for interactive profiling.
 *
 * Everything lands in BENCH_perf_simulator.json (benchutil
 * --json-out=PATH honored); --workers=N sets the thread count of the
 * fleet sweep.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "common/rng.hh"
#include "fcdram/analytic.hh"
#include "fcdram/ops.hh"
#include "fcdram/scheduler.hh"
#include "fcdram/session.hh"
#include "obs/telemetry.hh"

namespace fcdram {
namespace {

GeometryConfig
benchGeometry()
{
    GeometryConfig geometry = GeometryConfig::standard();
    geometry.columns = 128;
    geometry.numBanks = 1;
    return geometry;
}

ChipProfile
benchProfile()
{
    return ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
}

// ---- Section 1: end-to-end throughput at full row width ------------

/** The realistic row width the ROADMAP targets. */
constexpr int kWideColumns = 8192;

GeometryConfig
wideGeometry()
{
    GeometryConfig geometry = GeometryConfig::standard();
    geometry.columns = kWideColumns;
    geometry.numBanks = 1;
    return geometry;
}

/** Wall-clock ops/second of iters executions of body(). */
template <typename Body>
double
opsPerSecond(Body &&body, int iters)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < iters; ++i)
        body();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return seconds > 0.0 ? static_cast<double>(iters) / seconds : 0.0;
}

/** CPU time this thread has run, in seconds. */
double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           1e-9 * static_cast<double>(now.tv_nsec);
}

/** One operation's throughput in both executor modes. */
struct OpThroughput
{
    std::string name;
    int rowsPerOp = 0;
    double wordRowsPerSec = 0.0;
    double scalarRowsPerSec = 0.0;

    double speedup() const
    {
        return scalarRowsPerSec > 0.0
                   ? wordRowsPerSec / scalarRowsPerSec
                   : 0.0;
    }
};

/**
 * Measure one violated-timing program end to end in both executor
 * modes, each on its own fresh chip so both start from identical
 * state. The modes alternate repetition by repetition, so host load
 * falls on both alike, and each keeps its best of 5 CPU-time
 * repetitions of @p iters executions.
 */
OpThroughput
measureProgram(const std::string &name, int iters,
               Program (*build)(Ops &, const Chip &), int rowsPerOp)
{
    constexpr int kReps = 5;
    OpThroughput row;
    row.name = name;
    row.rowsPerOp = rowsPerOp;
    const ExecMode modes[2] = {ExecMode::WordParallel,
                               ExecMode::ScalarReference};
    Chip chips[2] = {Chip(benchProfile(), wideGeometry(), 1),
                     Chip(benchProfile(), wideGeometry(), 1)};
    std::unique_ptr<DramBender> benders[2];
    Program programs[2];
    for (int side = 0; side < 2; ++side) {
        benders[side] =
            std::make_unique<DramBender>(chips[side], 7, modes[side]);
        Ops ops(*benders[side]);
        programs[side] = build(ops, chips[side]);
        if (programs[side].commands.empty())
            return row;
    }
    double best[2] = {0.0, 0.0};
    for (int rep = 0; rep < kReps; ++rep) {
        for (int side = 0; side < 2; ++side) {
            const double start = threadCpuSeconds();
            for (int i = 0; i < iters; ++i) {
                benchmark::DoNotOptimize(
                    benders[side]->execute(programs[side]));
            }
            const double seconds = threadCpuSeconds() - start;
            if (seconds > 0.0)
                best[side] = std::max(best[side], iters / seconds);
        }
    }
    row.wordRowsPerSec = best[0] * rowsPerOp;
    row.scalarRowsPerSec = best[1] * rowsPerOp;
    return row;
}

Program
buildNotProgram(Ops &ops, const Chip &chip)
{
    const auto pairs = findActivationPairs(chip, 1, 1, 1, 3);
    if (pairs.empty())
        return Program();
    return ops.buildNot(0, composeRow(chip.geometry(), 0, pairs[0].first),
                        composeRow(chip.geometry(), 1,
                                   pairs[0].second));
}

Program
buildNandProgram(Ops &ops, const Chip &chip)
{
    const auto pairs = findActivationPairs(chip, 2, 2, 1, 3);
    if (pairs.empty())
        return Program();
    return ops.buildDoubleAct(
        0, composeRow(chip.geometry(), 0, pairs[0].first),
        composeRow(chip.geometry(), 1, pairs[0].second));
}

Program
buildMajProgram(Ops &ops, const Chip &chip)
{
    const auto pairs = findSimraPairs(chip, 4, 1, 3);
    if (pairs.empty())
        return Program();
    return ops.buildMaj(0, composeRow(chip.geometry(), 0,
                                      pairs[0].first),
                        composeRow(chip.geometry(), 0,
                                   pairs[0].second));
}

/** Raw row write + thresholded read, in Mbit/s moved. */
double
rowIoMbitPerSec(ExecMode mode, int iters)
{
    Chip chip(benchProfile(), wideGeometry(), 1);
    DramBender bender(chip, 7, mode);
    BitVector pattern(static_cast<std::size_t>(kWideColumns));
    Rng rng(5);
    pattern.randomize(rng);
    const double ops_per_sec = opsPerSecond(
        [&] {
            bender.writeRow(0, 3, pattern);
            benchmark::DoNotOptimize(bender.readRow(0, 3));
        },
        iters);
    // One row written + one row read per iteration.
    return ops_per_sec * 2.0 * kWideColumns / 1e6;
}

} // namespace

void
runThroughputSection(benchutil::BenchReport &report)
{
    std::vector<OpThroughput> rows;
    rows.push_back(
        measureProgram("not", 150, buildNotProgram, 2));
    rows.push_back(
        measureProgram("nand", 100, buildNandProgram, 4));
    rows.push_back(measureProgram("maj", 60, buildMajProgram, 4));
    report.lap("ops");

    const double word_io = rowIoMbitPerSec(ExecMode::WordParallel, 400);
    const double scalar_io =
        rowIoMbitPerSec(ExecMode::ScalarReference, 400);
    report.lap("row_io");

    Table table({"op", "rows/op", "word rows/s", "scalar rows/s",
                 "speedup"});
    double speedup_product = 1.0;
    int speedup_count = 0;
    for (const OpThroughput &row : rows) {
        if (row.wordRowsPerSec <= 0.0 || row.scalarRowsPerSec <= 0.0)
            continue;
        table.addRow();
        table.addCell(row.name);
        table.addCell(static_cast<std::uint64_t>(row.rowsPerOp));
        table.addCell(row.wordRowsPerSec, 0);
        table.addCell(row.scalarRowsPerSec, 0);
        table.addCell(row.speedup(), 2);
        report.metric(row.name + "_rows_per_s", row.wordRowsPerSec);
        report.metric(row.name + "_rows_per_s_scalar",
                      row.scalarRowsPerSec);
        report.metric(row.name + "_speedup", row.speedup());
        speedup_product *= row.speedup();
        ++speedup_count;
    }
    table.print(std::cout);

    report.metric("row_io_mbit_per_s", word_io);
    report.metric("row_io_mbit_per_s_scalar", scalar_io);
    report.metric("row_io_speedup",
                  scalar_io > 0.0 ? word_io / scalar_io : 0.0);
    std::cout << "row write+read: " << formatDouble(word_io, 1)
              << " Mbit/s word-parallel vs "
              << formatDouble(scalar_io, 1) << " Mbit/s scalar\n";

    if (speedup_count > 0) {
        const double geomean =
            std::pow(speedup_product, 1.0 / speedup_count);
        report.metric("speedup_end_to_end", geomean);
        std::cout << "end-to-end word-parallel speedup (geomean of "
                  << speedup_count << " ops): "
                  << formatDouble(geomean, 2) << "x\n";
    }
}

namespace {

// ---- Section 2: fleet sweep ----------------------------------------

/** Single-trial runs per module (fixed, so RESULT_HASH is stable). */
constexpr std::uint64_t kSweepTrialsPerModule = 256;

/** Single-trial logic runs per module (fixed, so LOGIC_HASH is stable). */
constexpr std::uint64_t kLogicTrialsPerModule = 32;

/** Timed repetitions of each module's NOT sweep (best one counts). */
constexpr int kSweepRepetitions = 3;

/** Operands of the logic sweep's N:N gates. */
constexpr int kLogicInputs = 4;

std::uint64_t
hashBits(std::uint64_t h, const BitVector &bits)
{
    for (const std::uint64_t word : bits.words())
        h = hashCombine(h, word);
    return h;
}

/** Order-stable fingerprint of one trial's outcomes. */
std::uint64_t
hashExecResult(std::uint64_t h, const ExecResult &result)
{
    h = hashCombine(h, result.reads.size());
    for (const BitVector &bits : result.reads)
        h = hashBits(h, bits);
    h = hashCombine(h, result.activations.size());
    for (const ActivationEvent &event : result.activations) {
        h = hashCombine(h,
                        (static_cast<std::uint64_t>(event.firstSubarray)
                         << 32) |
                            static_cast<std::uint64_t>(
                                event.secondSubarray));
        h = hashCombine(h, event.sets.secondRows.size());
    }
    return h;
}

/**
 * NOT followed by a nominal readback of its destination row, so the
 * stochastic outcomes surface in ExecResult (and therefore in
 * RESULT_HASH). Empty when pair discovery under @p pairSeed finds no
 * 1:1 activation pair.
 */
std::optional<Program>
makeNotProgram(const Chip &chip, std::uint64_t pairSeed)
{
    const auto pairs = findActivationPairs(chip, 1, 1, 1, pairSeed);
    if (pairs.empty())
        return std::nullopt;
    const GeometryConfig &geometry = chip.geometry();
    const RowId src = composeRow(geometry, 0, pairs[0].first);
    const RowId dst = composeRow(geometry, 1, pairs[0].second);
    ProgramBuilder builder(chip.profile().speed);
    builder.act(0, src, 0.0)
        .pre(0, TimingParams::nominal().tRas)
        .act(0, dst, kViolatedGapTargetNs)
        .preNominal(0)
        .actNominal(0, dst)
        .readNominal(0, dst)
        .preNominal(0);
    return builder.build();
}

/**
 * Per-module fold of one sweep: outcome hash, trial count and the
 * thread-CPU seconds the trials took.
 */
struct SweepAccum
{
    std::uint64_t hash = 0;
    std::uint64_t trials = 0;
    double seconds = 0.0;

    void mergeFrom(SweepAccum &&other)
    {
        hash = hashCombine(hash, other.hash);
        trials += other.trials;
        seconds += other.seconds;
    }
};

/**
 * kLogicTrialsPerModule single-trial kLogicInputs:kLogicInputs logic
 * runs on one module's private chip copy, AND and OR families in
 * turn: Ops::initReference, seeded random operand rows,
 * Ops::executeLogic, and both reads (AND/OR and NAND/NOR) hashed.
 * Trial t is seeded by Scheduler::taskSeed(view.seed, t).
 */
void
runLogicTrials(const FleetSession::ModuleView &view, SweepAccum &accum)
{
    const auto pairs = findActivationPairs(view.chip, kLogicInputs,
                                           kLogicInputs, 1, view.seed);
    if (pairs.empty())
        return;
    const GeometryConfig &geometry = view.chip.geometry();
    const auto [rf, rl] = pairs.front();
    const ActivationSets sets =
        view.chip.decoder().neighborActivation(rf, rl);
    std::vector<RowId> refRows;
    std::vector<RowId> computeRows;
    for (const RowId local : sets.firstRows)
        refRows.push_back(composeRow(geometry, 0, local));
    for (const RowId local : sets.secondRows)
        computeRows.push_back(composeRow(geometry, 1, local));

    Chip chip = view.chip;
    BitVector operand(static_cast<std::size_t>(geometry.columns));
    for (std::uint64_t t = 0; t < kLogicTrialsPerModule; ++t) {
        const std::uint64_t seed = Scheduler::taskSeed(view.seed, t);
        DramBender bender(chip, seed);
        Ops ops(bender);
        const BoolOp op = t % 2 == 0 ? BoolOp::And : BoolOp::Or;
        accum.hash =
            hashCombine(accum.hash, ops.initReference(0, op, refRows));
        Rng rng(seed);
        for (const RowId row : computeRows) {
            operand.randomize(rng);
            bender.writeRow(0, row, operand);
        }
        const LogicOpResult result =
            ops.executeLogic(0, composeRow(geometry, 0, rf),
                             composeRow(geometry, 1, rl), refRows,
                             computeRows);
        accum.hash = hashBits(hashBits(accum.hash, result.computeResult),
                              result.referenceResult);
    }
    accum.trials += kLogicTrialsPerModule;
}

} // namespace

/** The fleet sweep's two fingerprints. */
struct FleetHashes
{
    std::uint64_t result = 0; ///< NOT sweep (RESULT_HASH).
    std::uint64_t logic = 0;  ///< Logic sweep (LOGIC_HASH).
};

/**
 * Section 2: single-trial NOT runs over the SK Hynix fleet, then the
 * logic sweep (runLogicTrials) over the same modules. Each module
 * runs its trials in order on one private chip copy, trial t seeded
 * by Scheduler::taskSeed(view.seed, t); runOverFleet folds the
 * per-module hashes in module order. Both hashes are therefore
 * independent of the worker count. The logic sweep covers the
 * executor's cross-subarray logic path, which the NOT sweep never
 * reaches; it has its own hash so RESULT_HASH stays comparable with
 * runs from before it existed.
 *
 * The NOT sweep runs each module kSweepRepetitions times, each on a
 * fresh copy of its chip, and keeps the best thread-CPU time of the
 * trial loop; only the first repetition's outcomes enter
 * RESULT_HASH. Trials/s is the trial count over the sum of those
 * per-module best times, so it measures the executor rather than the
 * host's load or the pool's scheduling.
 */
FleetHashes
runFleetSweepSection(benchutil::BenchReport &report, int workers)
{
    std::cout << "\n-- Fleet sweep (single-trial NOT runs,"
              << " workers=" << workers << ") --\n";

    CampaignConfig config;
    config.geometry = GeometryConfig::standard();
    config.geometry.columns = 2048;
    config.geometry.numBanks = 1;
    config.workers = workers;
    const FleetSession session(config);

    const SweepAccum total = session.runOverFleet<SweepAccum>(
        FleetSession::Fleet::SkHynix,
        [&](const FleetSession::ModuleView &view, SweepAccum &accum) {
            const std::optional<Program> program =
                makeNotProgram(view.chip, view.seed);
            if (!program)
                return;
            std::uint64_t hash = accum.hash;
            double best = 0.0;
            for (int rep = 0; rep < kSweepRepetitions; ++rep) {
                Chip chip = view.chip;
                std::uint64_t repHash = accum.hash;
                const double start = threadCpuSeconds();
                for (std::uint64_t t = 0; t < kSweepTrialsPerModule;
                     ++t) {
                    Executor executor(chip,
                                      Scheduler::taskSeed(view.seed, t));
                    repHash =
                        hashExecResult(repHash, executor.run(*program));
                }
                const double seconds = threadCpuSeconds() - start;
                if (rep == 0) {
                    hash = repHash;
                    best = seconds;
                }
                best = std::min(best, seconds);
            }
            accum.hash = hash;
            accum.trials += kSweepTrialsPerModule;
            accum.seconds += best;
        });
    report.lap("fleet_sweep");

    const double trials_per_sec =
        total.seconds > 0.0
            ? static_cast<double>(total.trials) / total.seconds
            : 0.0;
    report.metric("fleet_sweep_trials",
                  static_cast<double>(total.trials));
    report.metric("fleet_sweep_trials_per_s", trials_per_sec);
    std::cout << "fleet sweep: " << total.trials
              << " single-trial runs across "
              << session.modules(FleetSession::Fleet::SkHynix).size()
              << " modules, " << formatDouble(trials_per_sec, 0)
              << " trials/s\n";

    const SweepAccum logic = session.runOverFleet<SweepAccum>(
        FleetSession::Fleet::SkHynix, runLogicTrials);
    report.lap("logic_sweep");
    report.metric("logic_sweep_trials",
                  static_cast<double>(logic.trials));
    std::cout << "logic sweep: " << logic.trials << " single-trial "
              << kLogicInputs << ":" << kLogicInputs << " AND/OR runs\n";
    return {total.hash, logic.hash};
}

namespace {

// ---- Section 3: telemetry overhead guard ---------------------------

/**
 * One repetition of the overhead guard: @p runs word-parallel
 * single-trial executions of @p program per sink, alternating between
 * the sinks run by run so host noise hits every sink alike. Returns
 * runs/s per sink (nullptr = the exact pre-telemetry code path). All
 * runs share one copy of @p base, made before the clock starts:
 * copying an 8192-column chip costs about ten NOT runs and would
 * drown out the sink overhead being measured.
 */
std::array<double, 3>
sinkTrialsPerSec(const Chip &base, const Program &program,
                 std::uint64_t salt, int runs,
                 const std::array<obs::Telemetry *, 3> &sinks)
{
    using Clock = std::chrono::steady_clock;
    Chip chip = base;
    std::array<double, 3> seconds{};
    std::uint64_t seed = 0;
    for (int run = 0; run < runs; ++run) {
        for (std::size_t s = 0; s < sinks.size(); ++s) {
            const Clock::time_point start = Clock::now();
            Executor executor(chip, hashCombine(salt, seed++),
                              TimingParams::nominal(),
                              ExecMode::WordParallel, sinks[s]);
            benchmark::DoNotOptimize(executor.run(program));
            seconds[s] += std::chrono::duration<double>(Clock::now() -
                                                        start)
                              .count();
        }
    }
    std::array<double, 3> rates{};
    for (std::size_t s = 0; s < sinks.size(); ++s)
        rates[s] = seconds[s] > 0.0 ? runs / seconds[s] : 0.0;
    return rates;
}

} // namespace

/**
 * Telemetry overhead guard. Measures word-parallel single-trial NOT
 * throughput through (a) a nullptr sink -- the exact code path before
 * telemetry existed, (b) the global registry with every pillar
 * disabled, and (c) a registry with the metrics pillar on. The sinks
 * alternate run by run and each takes its best of 5 repetitions, so
 * scheduler noise on a busy CI core hits every path equally. Returns
 * the disabled/baseline throughput ratio (hard-gated >= 0.97 by
 * main); the enabled-metrics overhead is reported as a metric only.
 */
double
runTelemetryOverheadSection(benchutil::BenchReport &report)
{
    std::cout << "\n-- Telemetry overhead (word-parallel NOT runs) --\n";
    obs::Telemetry &tel = obs::global();
    const obs::TelemetryConfig saved = tel.config();
    tel.configure(obs::TelemetryConfig{});
    obs::Telemetry metricsSink;
    obs::TelemetryConfig metricsOnly;
    metricsOnly.metrics = true;
    metricsSink.configure(metricsOnly);

    Chip base(benchProfile(), wideGeometry(), 1);
    Rng rng(0xF1E1D);
    for (int sa = 0; sa < 2; ++sa) {
        for (RowId local = 0; local < 2; ++local) {
            BitVector pattern(static_cast<std::size_t>(kWideColumns));
            pattern.randomize(rng);
            base.bank(0).writeRowBits(
                composeRow(base.geometry(),
                           static_cast<SubarrayId>(sa), local),
                pattern);
        }
    }
    const std::optional<Program> program = makeNotProgram(base, 3);
    if (!program) {
        std::cout << "no qualifying pair, section skipped\n";
        tel.configure(saved);
        return 1.0;
    }

    constexpr int kRuns = 128;
    constexpr int kReps = 5;
    const std::array<obs::Telemetry *, 3> sinks = {nullptr, &tel,
                                                   &metricsSink};
    std::array<double, 3> best{};
    for (int rep = 0; rep < kReps; ++rep) {
        const std::array<double, 3> rates = sinkTrialsPerSec(
            base, *program,
            hashCombine(0x0B5E, static_cast<std::uint64_t>(rep)), kRuns,
            sinks);
        for (std::size_t s = 0; s < sinks.size(); ++s)
            best[s] = std::max(best[s], rates[s]);
    }
    tel.configure(saved);
    const double baseline = best[0];
    const double disabled = best[1];
    const double enabled = best[2];
    report.lap("telemetry_overhead");

    const double disabledRatio =
        baseline > 0.0 ? disabled / baseline : 1.0;
    const double enabledRatio =
        baseline > 0.0 ? enabled / baseline : 1.0;
    report.metric("telemetry_baseline_trials_per_s", baseline);
    report.metric("telemetry_disabled_trials_per_s", disabled);
    report.metric("telemetry_metrics_trials_per_s", enabled);
    report.metric("telemetry_disabled_ratio", disabledRatio);
    report.metric("telemetry_metrics_overhead_pct",
                  100.0 * (1.0 - enabledRatio));
    std::cout << "disabled-telemetry throughput: "
              << formatDouble(disabledRatio * 100.0, 1)
              << "% of the nullptr-sink baseline (gate: >= 97%)\n"
              << "metrics-enabled overhead: "
              << formatDouble(100.0 * (1.0 - enabledRatio), 1)
              << "%\n";
    return disabledRatio;
}

namespace {

// ---- Section 4: google-benchmark microbenchmarks -------------------

void
BM_DecoderNeighborActivation(benchmark::State &state)
{
    const Chip chip(benchProfile(), benchGeometry(), 1);
    Rng rng(2);
    for (auto _ : state) {
        const auto rf = static_cast<RowId>(rng.below(512));
        const auto rl = static_cast<RowId>(rng.below(512));
        benchmark::DoNotOptimize(
            chip.decoder().neighborActivation(rf, rl));
    }
}
BENCHMARK(BM_DecoderNeighborActivation);

void
BM_ExecutorNotTrial(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    Ops ops(bender);
    const auto pairs = findActivationPairs(
        chip, static_cast<int>(state.range(0)),
        static_cast<int>(state.range(0)), 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    const Program program = ops.buildNot(0, src, dst);
    for (auto _ : state)
        benchmark::DoNotOptimize(bender.execute(program));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorNotTrial)->Arg(1)->Arg(4)->Arg(16);

void
BM_ExecutorLogicTrial(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    Ops ops(bender);
    const int n = static_cast<int>(state.range(0));
    const auto pairs = findActivationPairs(chip, n, n, 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    const Program program = ops.buildDoubleAct(0, ref, com);
    for (auto _ : state)
        benchmark::DoNotOptimize(bender.execute(program));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorLogicTrial)->Arg(2)->Arg(8)->Arg(16);

void
BM_AnalyticLogicSweep(benchmark::State &state)
{
    const Chip chip(benchProfile(), benchGeometry(), 1);
    AnalyticConfig config;
    config.sampleBinomial = false;
    const AnalyticAnalyzer analyzer(chip, config);
    const int n = static_cast<int>(state.range(0));
    const auto pairs = findActivationPairs(chip, n, n, 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzer.logicSamples(
            0, BoolOp::And, ref, com, OpConditions(),
            PatternClass::Random));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::size_t>(n) * 64);
}
BENCHMARK(BM_AnalyticLogicSweep)->Arg(2)->Arg(16);

void
BM_RowWriteRead(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    BitVector pattern(static_cast<std::size_t>(chip.geometry().columns));
    Rng rng(5);
    pattern.randomize(rng);
    for (auto _ : state) {
        bender.writeRow(0, 3, pattern);
        benchmark::DoNotOptimize(bender.readRow(0, 3));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowWriteRead);

void
BM_SessionPairDiscoveryCold(benchmark::State &state)
{
    CampaignConfig config;
    config.geometry = benchGeometry();
    const FleetSession session(config);
    const auto &module = session.modules(FleetSession::Fleet::SkHynix)
                             .front();
    const auto &context = session.pairContexts(module).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(findQualifyingPairs(
            session.chip(module), context, PairQuery::square(4),
            config.probesPerPair, config.pairSamplesPerConfig, 42));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::size_t>(
                                config.probesPerPair));
}
BENCHMARK(BM_SessionPairDiscoveryCold);

void
BM_SessionPairDiscoveryCached(benchmark::State &state)
{
    CampaignConfig config;
    config.geometry = benchGeometry();
    const FleetSession session(config);
    const auto &module = session.modules(FleetSession::Fleet::SkHynix)
                             .front();
    const auto &context = session.pairContexts(module).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.qualifyingPairs(
            module, context, PairQuery::square(4)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionPairDiscoveryCached);

} // namespace
} // namespace fcdram

int
main(int argc, char **argv)
{
    // Peel the benchutil flags off before google-benchmark sees the
    // command line; everything else (--benchmark_min_time etc.)
    // passes through.
    int workers = 4;
    std::vector<char *> passthrough;
    passthrough.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0) {
            fcdram::benchutil::jsonOutPath() = arg.substr(11);
            continue;
        }
        if (arg.rfind("--workers=", 0) == 0) {
            workers = std::atoi(arg.c_str() + 10);
            if (workers < 1)
                workers = 1;
            continue;
        }
        if (arg.rfind("--trace-out=", 0) == 0) {
            fcdram::benchutil::traceOutPath() = arg.substr(12);
            fcdram::obs::global().enable({true, true, true});
            continue;
        }
        if (arg.rfind("--metrics-out=", 0) == 0) {
            fcdram::benchutil::metricsOutPath() = arg.substr(14);
            fcdram::obs::TelemetryConfig config;
            config.metrics = true;
            fcdram::obs::global().enable(config);
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());

    fcdram::benchutil::BenchReport report("perf_simulator");
    report.metric("columns", fcdram::kWideColumns);
    report.metric("workers", workers);

    fcdram::runThroughputSection(report);
    const fcdram::FleetHashes hashes =
        fcdram::runFleetSweepSection(report, workers);
    const double telemetry_ratio =
        fcdram::runTelemetryOverheadSection(report);

    std::printf("RESULT_HASH %016llx\n",
                static_cast<unsigned long long>(hashes.result));
    std::printf("LOGIC_HASH %016llx\n",
                static_cast<unsigned long long>(hashes.logic));
    report.metric("result_hash_low32",
                  static_cast<double>(hashes.result & 0xFFFFFFFFULL));
    report.save();

    if (telemetry_ratio < 0.97) {
        std::cerr << "FAIL: disabled-telemetry throughput is "
                  << telemetry_ratio * 100.0
                  << "% of the nullptr-sink baseline, below the "
                     "required 97%\n";
        return 1;
    }

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
