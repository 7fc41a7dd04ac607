/**
 * @file
 * PuD query executor: runs compiled μprograms on simulated COTS DRAM
 * chips and reports accuracy and the priced DRAM cost next to a CPU
 * golden baseline.
 *
 * The engine is the compile -> allocate -> execute pipeline in one
 * place: expressions lower to wide-gate μprograms (pud/compiler.hh),
 * the allocator places gates on qualifying activation pairs with
 * reliability masks (pud/allocator.hh), each placed op lowers to its
 * command stream (pud/lower.hh), and the executor interprets those
 * steps on the DramBender command path gate by gate. Columns outside
 * a gate's reliable mask fall back to the CPU golden model per bit
 * position, optional majority voting (EngineOptions::redundancy)
 * suppresses residual noise on the masked columns, and operand
 * copy-in can run either as host writes or as in-DRAM RowClone from
 * staging rows. Independent gates of one topological wave are
 * batched onto distinct subarray pairs; the latency model overlaps
 * waves across banks while the command bus serializes within a bank.
 *
 * Fleet-scale runs go through FleetSession::runOverFleet, so results
 * are deterministic in the worker count and chips/pair discovery are
 * shared with every other experiment on the session.
 *
 * The engine is the compile/execute core; the public entry point for
 * issuing queries is the prepared-query lifecycle in pud/service.hh
 * (prepare -> bind -> submit -> collect), which caches compiled
 * μprograms and per-module placements across submits, and the
 * concurrent serving tier in serve/server.hh layered on top of it.
 */

#ifndef FCDRAM_PUD_ENGINE_HH
#define FCDRAM_PUD_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bender/executor.hh"
#include "fcdram/session.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"
#include "pud/lower.hh"
#include "verify/certify.hh"
#include "verify/pressure.hh"

namespace fcdram::pud {

/**
 * Backend selection policy for query runs. The concrete basis a
 * program lowers to is pud::ComputeBackend; Auto resolves it per
 * chip from the profiled capability.
 */
enum class BackendChoice : std::uint8_t {
    NandNor,  ///< Force the FCDRAM NAND/NOR basis.
    SimraMaj, ///< Force the SiMRA MAJ basis.

    /**
     * Per chip: SimraMaj when the chip's decoder expands to >= 4-row
     * same-subarray groups (PudEngine::backendCapability), else
     * NandNor.
     */
    Auto,
};

/** Printable name of a backend choice. */
const char *toString(BackendChoice choice);

/**
 * Static-verification policy applied to every derived plan
 * (src/verify/). Verification runs at plan-derivation time inside the
 * PlanCache, so its cost is paid once per (expression, module) and
 * cached with the plan.
 */
enum class VerifyPolicy : std::uint8_t {
    /** Skip verification entirely (no verdicts, no counters). */
    Off,

    /**
     * Verify and cache the verdict (telemetry, pudlint, plan
     * introspection) but never reject: Error-bearing plans still
     * execute.
     */
    Report,

    /**
     * Verify, cache, and reject: QueryService::submit throws
     * verify::VerifyError for any plan carrying Error diagnostics.
     */
    Enforce,
};

/** Printable name of a verify policy. */
const char *toString(VerifyPolicy policy);

/** Execution knobs. */
struct EngineOptions
{
    CompilerOptions compiler;
    AllocatorOptions allocator;

    /**
     * Gate basis queries lower to; overrides compiler.backend. The
     * default Auto picks per chip from the decoder's same-subarray
     * capability, so SiMRA-capable designs use the cheaper MAJ basis
     * without explicit opt-in and everything else falls back to
     * NAND/NOR.
     */
    BackendChoice backend = BackendChoice::Auto;

    /**
     * Executions per gate with per-column majority voting; must be
     * odd (a tie on an even count would resolve to 0). 1 runs every
     * gate once; 3 suppresses residual noise failures on masked
     * columns (the acceptance benches use 3). Validated at engine
     * construction (std::invalid_argument on an even or
     * non-positive count).
     */
    int redundancy = 1;

    CopyInMode copyIn = CopyInMode::HostWrite;

    /**
     * Executor strategy for the simulated command path. Results are
     * bit-identical between modes; ScalarReference exists for
     * verification and as the pre-word-parallel throughput baseline
     * in the benches.
     */
    ExecMode execMode = ExecMode::WordParallel;

    /** Salt for the per-run DramBender session seed. */
    std::uint64_t benderSeedSalt = 0x9DULL;

    /**
     * Static plan verification policy. Enforce by default: a plan
     * carrying Error diagnostics (e.g. a forced backend whose MAJ
     * groups exceed the design's capability) is rejected at submit
     * instead of executing with silently wrong or dropped command
     * sequences. Opt out with Report (verify but never reject) or
     * Off.
     */
    VerifyPolicy verify = VerifyPolicy::Enforce;

    /**
     * Submit-time accuracy SLO checked against every derived plan's
     * certificate (verify/certify.hh). A certificate missing either
     * bound reports UPL202 into the plan's verdict, which Enforce
     * rejects and Report annotates. Disabled by default. Only
     * evaluated when the verify policy runs (not Off).
     */
    verify::AccuracySlo slo;

    /**
     * Per-row activation disturbance budget the static pressure
     * analysis (verify/pressure.hh) checks each derived plan against;
     * excesses report UPL201 (Warning) into the plan's verdict.
     */
    verify::PressureBudget pressure;
};

/**
 * Majority-vote accumulator over row readbacks of one gate, stored as
 * bit-sliced counter planes so both accumulation and the majority
 * query run word-parallel. Every trial readback must cover every
 * column: a short readback would otherwise silently count the missing
 * columns as 0-votes, so a length mismatch is a hard error
 * (std::invalid_argument).
 */
class VoteSet
{
  public:
    explicit VoteSet(std::size_t columns) : columns_(columns) {}

    /** @throws std::invalid_argument unless bits covers every column. */
    void add(const BitVector &bits);

    /** Per-column majority of @p trials accumulated readbacks. */
    bool majority(std::size_t col, int trials) const;

    /**
     * Word-parallel majority across every column at once: bit c is
     * set when more than half of @p trials readbacks had it set.
     */
    BitVector majorityBits(int trials) const;

    std::size_t columns() const { return columns_; }

  private:
    std::size_t columns_;

    /** Plane p holds bit p of each column's vote count. */
    std::vector<BitVector> planes_;
};

/**
 * DRAM command/latency/energy tally, priced from the lowered programs:
 * one command per program command, each program's last issue time
 * plus tRP, and rough whole-row DDR4 energies (ACT 0.9, PRE 0.45,
 * WR 1.3, RD 1.1 nJ; order of magnitude, for comparing schedules). A
 * host row write counts as its nominal ACT-WR-PRE.
 */
struct QueryCost
{
    std::uint64_t commands = 0;
    double latencyNs = 0.0;
    double energyNj = 0.0;

    void add(const QueryCost &other)
    {
        commands += other.commands;
        latencyNs += other.latencyNs;
        energyNj += other.energyNj;
    }
};

/** Result of one query execution on one chip. */
struct QueryResult
{
    /** Hybrid result: DRAM bits on masked columns, CPU elsewhere. */
    BitVector output;

    /** CPU golden-model result. */
    BitVector golden;

    /** Columns of the final value that came from DRAM. */
    BitVector mask;

    /** True if every gate obtained an activation site. */
    bool placed = false;

    /**
     * Masked-column accounting across every executed gate: bits the
     * engine trusted to DRAM, and how many matched the golden model.
     */
    std::size_t checkedBits = 0;
    std::size_t matchingBits = 0;

    /** 100 when every checked bit matched (or none were checked). */
    double accuracyPercent() const
    {
        return checkedBits == 0 ? 100.0
                                : 100.0 *
                                      static_cast<double>(matchingBits) /
                                      static_cast<double>(checkedBits);
    }

    /** Fraction of result columns computed in DRAM. */
    double dramCoverage = 0.0;

    /**
     * Per-query DRAM work: every executed op's lowered body, once per
     * trial (excludes the amortized data load).
     */
    QueryCost dram;

    /**
     * Command-bus busy time per bank id. Within one query the waves
     * serialize per bank (dram.latencyNs sums the per-wave bank
     * maxima); across the queries of one submitted batch the
     * QueryService interleaving model overlaps these per-bank totals.
     */
    std::map<int, double> bankBusyNs;

    /**
     * One-time residency cost of the input columns: one host write per
     * Load plus the RowClone staging writes.
     */
    QueryCost load;

    /** Analytic CPU bulk-bitwise baseline for the same query. */
    QueryCost cpuBaseline;

    /** Basis the executed program was lowered to. */
    ComputeBackend backend = ComputeBackend::NandNor;

    int wideOps = 0;
    int notOps = 0;
    int majOps = 0;
    int waves = 0;
};

/** One module's row of a fleet-wide query run. */
struct ModuleQueryStats
{
    std::string label;
    std::size_t moduleIndex = 0;
    QueryResult result;

    /**
     * Certified reliability bounds of the executed plan (the
     * PlacementPlan's cached certificate), when verification ran.
     */
    verify::PlanCertificate certificate;
};

/**
 * Fleet accumulator: per-module rows, appended in module order by
 * FleetSession::runOverFleet (deterministic in the worker count).
 */
struct FleetQueryStats
{
    std::vector<ModuleQueryStats> modules;

    /** runOverFleet fold hook. */
    void mergeFrom(FleetQueryStats &&other);

    std::size_t placedModules() const;
    std::size_t checkedBits() const;
    std::size_t matchingBits() const;

    /** 100 when every checked bit fleet-wide matched golden. */
    double accuracyPercent() const;

    /** Means over placed modules (0 when none placed). */
    double meanCommands() const;
    double meanLatencyNs() const;
    double meanEnergyNj() const;
    double meanCoverage() const;
    double meanCpuLatencyNs() const;
};

/** The PuD query engine over one fleet session. */
class PudEngine
{
  public:
    explicit PudEngine(std::shared_ptr<FleetSession> session,
                       EngineOptions options = EngineOptions());

    const EngineOptions &options() const { return options_; }
    const std::shared_ptr<FleetSession> &session() const
    {
        return session_;
    }

    /** Lower an expression with the engine's compiler options as-is. */
    MicroProgram compile(const ExprPool &pool, ExprId root) const;

    /**
     * Lower an expression for one chip: resolves the backend choice
     * and clamps the gate fan-in to backendCapability(chip).
     */
    MicroProgram compileFor(const ExprPool &pool, ExprId root,
                            const Chip &chip) const;

    /**
     * The (backend, gate fan-in capability) pair a query resolves to
     * on one chip: the single source of truth for compileFor and the
     * fleet program cache. The capability is decoder-consistent —
     * bounded by the profile *and* the chip geometry (NandNor: the
     * largest N:N neighbor activation, 2^stages; SimraMaj: half the
     * largest same-subarray group) — so clamped programs are always
     * placeable shapes. 0 means no capability (gates fall back per
     * placement).
     */
    std::pair<ComputeBackend, int>
    backendCapability(const Chip &chip) const;

    /**
     * One-shot compile + allocate + execute on a private chip (tests,
     * custom profiles). Production callers hold a PreparedQuery and
     * submit batches through QueryService (src/pud/service.hh).
     */
    QueryResult
    runOnChip(Chip &chip, std::uint64_t seed, const ExprPool &pool,
              ExprId root,
              const std::map<std::string, BitVector> &columns) const;

    /**
     * Place with @p allocator and execute an already compiled
     * program.
     *
     * @throws std::invalid_argument when the chip's execute-time
     *         temperature differs from the temperature the
     *         allocator's reliability masks were derived at (stale
     *         masks must be re-derived, not silently trusted).
     */
    QueryResult
    execute(const MicroProgram &program, const RowAllocator &allocator,
            Chip &chip, std::uint64_t benderSeed,
            const std::map<std::string, BitVector> &columns) const;

    /**
     * Execute a program with an already derived placement (the
     * prepared-query path: QueryService caches the placement in a
     * PlacementPlan and skips re-derivation on warm submits).
     *
     * @param maskTemperature Temperature the placement's reliability
     *        masks were derived at; must match chip.temperature()
     *        (std::invalid_argument otherwise — stale masks must be
     *        re-derived, not silently trusted).
     */
    QueryResult
    execute(const MicroProgram &program, const Placement &placement,
            Celsius maskTemperature, Chip &chip,
            std::uint64_t benderSeed,
            const std::map<std::string, BitVector> &columns) const;

    /** Deterministic random column data for fleet runs. */
    static std::map<std::string, BitVector>
    randomColumns(const std::vector<std::string> &names,
                  std::size_t bits, std::uint64_t seed);

  private:
    std::shared_ptr<FleetSession> session_;
    EngineOptions options_;
};

} // namespace fcdram::pud

#endif // FCDRAM_PUD_ENGINE_HH
