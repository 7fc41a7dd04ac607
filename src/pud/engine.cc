#include "pud/engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bender/bender.hh"
#include "common/rng.hh"
#include "obs/telemetry.hh"

namespace fcdram::pud {

const char *
toString(BackendChoice choice)
{
    switch (choice) {
      case BackendChoice::NandNor: return "nand-nor";
      case BackendChoice::SimraMaj: return "simra-maj";
      case BackendChoice::Auto: return "auto";
    }
    return "?";
}

void
VoteSet::add(const BitVector &bits)
{
    if (bits.size() != columns_) {
        // A short readback would count the missing columns as
        // 0-votes and silently bias the majority; reject it.
        std::ostringstream message;
        message << "VoteSet::add: readback covers " << bits.size()
                << " columns, expected " << columns_;
        throw std::invalid_argument(message.str());
    }
    // Ripple-carry add of one bit per column into the counter planes.
    BitVector carry = bits;
    for (BitVector &plane : planes_) {
        if (carry.popcount() == 0)
            return;
        BitVector overflow = plane;
        overflow &= carry;
        plane ^= carry;
        carry = std::move(overflow);
    }
    if (carry.popcount() != 0)
        planes_.push_back(std::move(carry));
}

bool
VoteSet::majority(std::size_t col, int trials) const
{
    int count = 0;
    for (std::size_t p = 0; p < planes_.size(); ++p)
        count += planes_[p].get(col) ? 1 << p : 0;
    return 2 * count > trials;
}

BitVector
VoteSet::majorityBits(int trials) const
{
    // count >= threshold, MSB-first bit-serial compare per word.
    const auto threshold =
        static_cast<std::uint64_t>(trials / 2 + 1);
    const int plane_count = std::max(
        static_cast<int>(planes_.size()),
        static_cast<int>(std::bit_width(threshold)));
    BitVector result(columns_);
    const auto out = result.words();
    for (std::size_t w = 0; w < out.size(); ++w) {
        std::uint64_t greater = 0;
        std::uint64_t equal = ~std::uint64_t{0};
        for (int p = plane_count - 1; p >= 0; --p) {
            const std::uint64_t plane =
                static_cast<std::size_t>(p) < planes_.size()
                    ? planes_[static_cast<std::size_t>(p)].words()[w]
                    : 0;
            const std::uint64_t tb =
                ((threshold >> p) & 1) ? ~std::uint64_t{0} : 0;
            greater |= equal & plane & ~tb;
            equal &= ~(plane ^ tb);
        }
        out[w] = greater | equal;
    }
    result.maskTail();
    return result;
}

namespace {

/** Rough whole-row DDR4 command energy (nJ), for comparing schedules. */
double
commandEnergyNj(CommandType type)
{
    switch (type) {
      case CommandType::Act: return 0.9;
      case CommandType::Pre: return 0.45;
      case CommandType::Wr: return 1.3;
      case CommandType::Rd: return 1.1;
      case CommandType::Ref:
      case CommandType::Nop: break;
    }
    return 0.0;
}

/**
 * Cost of one program: its command count, its issue timeline closed
 * by tRP, and the per-command energy table.
 */
QueryCost
priceProgram(const Program &program)
{
    QueryCost cost;
    cost.commands = program.size();
    cost.latencyNs =
        program.commands.back().issueNs + TimingParams::nominal().tRp;
    for (const Command &command : program.commands)
        cost.energyNj += commandEnergyNj(command.type);
    return cost;
}

QueryCost
priceSteps(const std::vector<Step> &steps)
{
    QueryCost cost;
    for (const Step &step : steps)
        cost.add(priceProgram(step.program));
    return cost;
}

/**
 * CPU bulk-bitwise baseline: the scan streams every referenced
 * bitmap over the memory bus (peak x64-DIMM bandwidth of the
 * module's speed grade, validated positive at config load) and
 * writes the result back; ALU work is bandwidth-dominated. The
 * fixed per-transfer overhead comes from the timing config. Energy
 * at a rough 20 pJ/byte of DRAM traffic.
 */
QueryCost
cpuBaselineCost(const Chip &chip, int loads, std::size_t bits)
{
    const double bytes =
        (static_cast<double>(loads) + 1.0) *
        static_cast<double>(bits) / 8.0;
    QueryCost cost;
    cost.commands = 0;
    cost.latencyNs = bytes / chip.profile().speed.bytesPerNs() +
                     TimingParams::nominal().hostCopyOverheadNs;
    cost.energyNj = bytes * 0.02;
    return cost;
}

} // namespace

void
FleetQueryStats::mergeFrom(FleetQueryStats &&other)
{
    modules.insert(modules.end(),
                   std::make_move_iterator(other.modules.begin()),
                   std::make_move_iterator(other.modules.end()));
}

std::size_t
FleetQueryStats::placedModules() const
{
    return static_cast<std::size_t>(std::count_if(
        modules.begin(), modules.end(),
        [](const ModuleQueryStats &m) { return m.result.placed; }));
}

std::size_t
FleetQueryStats::checkedBits() const
{
    std::size_t total = 0;
    for (const ModuleQueryStats &m : modules)
        total += m.result.checkedBits;
    return total;
}

std::size_t
FleetQueryStats::matchingBits() const
{
    std::size_t total = 0;
    for (const ModuleQueryStats &m : modules)
        total += m.result.matchingBits;
    return total;
}

double
FleetQueryStats::accuracyPercent() const
{
    const std::size_t checked = checkedBits();
    return checked == 0 ? 100.0
                        : 100.0 *
                              static_cast<double>(matchingBits()) /
                              static_cast<double>(checked);
}

namespace {

template <class Fn>
double
placedMean(const std::vector<ModuleQueryStats> &modules, Fn &&metric)
{
    double total = 0.0;
    std::size_t placed = 0;
    for (const ModuleQueryStats &m : modules) {
        if (!m.result.placed)
            continue;
        total += metric(m.result);
        ++placed;
    }
    return placed == 0 ? 0.0 : total / static_cast<double>(placed);
}

} // namespace

double
FleetQueryStats::meanCommands() const
{
    return placedMean(modules, [](const QueryResult &r) {
        return static_cast<double>(r.dram.commands);
    });
}

double
FleetQueryStats::meanLatencyNs() const
{
    return placedMean(modules, [](const QueryResult &r) {
        return r.dram.latencyNs;
    });
}

double
FleetQueryStats::meanEnergyNj() const
{
    return placedMean(modules, [](const QueryResult &r) {
        return r.dram.energyNj;
    });
}

double
FleetQueryStats::meanCoverage() const
{
    return placedMean(modules, [](const QueryResult &r) {
        return r.dramCoverage;
    });
}

double
FleetQueryStats::meanCpuLatencyNs() const
{
    return placedMean(modules, [](const QueryResult &r) {
        return r.cpuBaseline.latencyNs;
    });
}

PudEngine::PudEngine(std::shared_ptr<FleetSession> session,
                     EngineOptions options)
    : session_(std::move(session)), options_(options)
{
    assert(session_ != nullptr);
    // Majority voting needs an odd trial count: with an even count a
    // tie resolves to 0, making e.g. redundancy=2 strictly worse
    // than a single trial. Enforced here, at the API boundary, so
    // release builds reject it too.
    if (options_.redundancy < 1 || options_.redundancy % 2 == 0) {
        std::ostringstream message;
        message << "EngineOptions::redundancy must be a positive odd "
                   "trial count, got "
                << options_.redundancy;
        throw std::invalid_argument(message.str());
    }
}

std::pair<ComputeBackend, int>
PudEngine::backendCapability(const Chip &chip) const
{
    const RowDecoder &decoder = chip.decoder();
    // Auto is a decoder-level check: the profile may promise more
    // rows than this chip's geometry can expand to.
    const bool simra =
        options_.backend == BackendChoice::SimraMaj ||
        (options_.backend == BackendChoice::Auto &&
         decoder.maxSameSubarrayRows() >= 4);
    const ComputeBackend backend = simra ? ComputeBackend::SimraMaj
                                         : ComputeBackend::NandNor;
    int capability = 0;
    if (backend == ComputeBackend::SimraMaj) {
        // A k-input gate occupies a 2k-row group.
        capability = decoder.maxSameSubarrayRows() / 2;
    } else if (chip.profile().supportsLogicOps()) {
        // The largest N:N neighbor activation is 2^stages.
        capability = 1 << decoder.numStages();
    }
    return {backend, capability};
}

MicroProgram
PudEngine::compileFor(const ExprPool &pool, ExprId root,
                      const Chip &chip) const
{
    const auto [backend, capability] = backendCapability(chip);
    CompilerOptions compilerOptions;
    compilerOptions.backend = backend;
    // Clamp the gate fan-in to what the chip can activate, so wide
    // gates become trees instead of unplaceable ops on smaller
    // decoders. Chips with no capability at all keep the requested
    // width and fall back per gate at placement.
    compilerOptions.maxGateInputs =
        capability >= 2 ? std::min(options_.maxGateInputs, capability)
                        : options_.maxGateInputs;
    return Compiler(compilerOptions).compile(pool, root);
}

std::map<std::string, BitVector>
PudEngine::randomColumns(const std::vector<std::string> &names,
                         std::size_t bits, std::uint64_t seed)
{
    std::map<std::string, BitVector> columns;
    std::uint64_t salt = 0;
    for (const std::string &name : names) {
        Rng rng(hashCombine(seed, ++salt));
        BitVector bitsVec(bits);
        bitsVec.randomize(rng);
        columns.emplace(name, std::move(bitsVec));
    }
    return columns;
}

QueryResult
PudEngine::execute(const MicroProgram &program,
                   const Placement &placement,
                   Celsius maskTemperature, Chip &chip,
                   std::uint64_t benderSeed,
                   const std::map<std::string, BitVector> &columns)
    const
{
    // Reliability masks are temperature-specific: trusting masks
    // derived at another temperature would silently mis-trust
    // columns, so a mismatch is a hard error (the plan cache
    // re-derives instead of hitting this).
    if (maskTemperature != chip.temperature()) {
        std::ostringstream message;
        message << "PudEngine::execute: placement masks derived at "
                << maskTemperature
                << " C but the chip executes at "
                << chip.temperature()
                << " C; re-derive the placement";
        throw std::invalid_argument(message.str());
    }

    const GeometryConfig &geometry = chip.geometry();
    const auto numColumns =
        static_cast<std::size_t>(geometry.columns);
    obs::Telemetry &tel = obs::global();
    obs::Span execSpan(tel, "engine.execute");
    execSpan.arg("waves",
                 static_cast<std::uint64_t>(program.numWaves));
    execSpan.arg("ops",
                 static_cast<std::uint64_t>(program.ops.size()));
    DramBender bender(chip, benderSeed, options_.execMode);
    const int trials = options_.redundancy;

    const std::vector<BitVector> golden =
        goldenValues(program, columns);

    QueryResult result;
    result.placed = placement.complete;
    result.backend = program.backend;
    result.wideOps = program.wideOps();
    result.notOps = program.notOps();
    result.majOps = program.majOps();
    result.waves = program.numWaves;

    std::vector<BitVector> values(program.numValues);
    std::vector<BitVector> masks(program.numValues,
                                 BitVector(numColumns, false));

    // Latency bookkeeping: commands serialize within a bank, waves of
    // independent gates overlap across banks.
    std::map<std::pair<int, int>, double> waveBankNs;

    // Trusted DRAM bits overwrite the golden fallback; every trusted
    // bit is also checked against the golden model for the accuracy
    // report. Word-parallel throughout: majority planes, blend, and
    // popcount-based accounting.
    const auto assemble = [&](ValueId value, const BitVector &mask,
                              const VoteSet &votes) {
        const BitVector bits = votes.majorityBits(trials);
        BitVector &out = values[value];
        out = golden[value];
        out.andNot(mask);
        BitVector dram = bits;
        dram &= mask;
        out |= dram;
        masks[value] = mask;
        const std::size_t checked = mask.popcount();
        BitVector mismatch = bits;
        mismatch ^= golden[value];
        mismatch &= mask;
        result.checkedBits += checked;
        result.matchingBits += checked - mismatch.popcount();
    };

    std::uint64_t cpuFallbacks = 0;
    const auto cpuFallback = [&](const MicroOp &op) {
        ++cpuFallbacks;
        if (op.computeValue != kNoValue)
            values[op.computeValue] = golden[op.computeValue];
        if (op.referenceValue != kNoValue)
            values[op.referenceValue] = golden[op.referenceValue];
    };

    const std::vector<LoweredOp> lowered =
        lower(program, placement, chip, options_.copyIn);
    // Residency: one host write lands a column in DRAM; every query
    // after that reuses it in place.
    const QueryCost residency =
        priceProgram(hostWriteProgram(chip.profile().speed, 0, 0));

    // One span per topological wave (re-emplaced on wave change), so
    // the trace shows the engine's wave pipeline under each query.
    std::optional<obs::Span> waveSpan;
    int spanWave = -1;
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const MicroOp &op = program.ops[i];
        if (tel.spansOn() && op.wave != spanWave) {
            waveSpan.emplace(tel, "wave");
            waveSpan->arg("wave",
                          static_cast<std::uint64_t>(op.wave));
            spanWave = op.wave;
        }
        if (op.kind == MicroOpKind::Load) {
            values[op.computeValue] = columns.at(op.column);
            assert(values[op.computeValue].size() == numColumns);
            result.load.add(residency);
            continue;
        }
        const LoweredOp &steps = lowered[i];
        if (steps.body.empty()) {
            cpuFallback(op);
            continue;
        }

        const auto operand = [&](std::size_t k) -> const BitVector & {
            return values[op.inputs[k]];
        };
        VoteSet computeVotes(numColumns);
        VoteSet referenceVotes(numColumns);
        const auto vote = [&](const Step &step, const BitVector &bits) {
            (step.sink == Step::Sink::Reference ? referenceVotes
                                                : computeVotes)
                .add(bits);
        };
        bool ok = runSteps(bender, steps.prologue, operand, vote);
        for (int trial = 0; ok && trial < trials; ++trial)
            ok = runSteps(bender, steps.body, operand, vote);
        if (!ok) {
            cpuFallback(op);
            continue;
        }

        // Per-op costs commit only when the op's DRAM result is used.
        result.load.add(priceSteps(steps.prologue));
        const QueryCost trialCost = priceSteps(steps.body);
        const int bank = static_cast<int>(steps.body.front().bank);
        for (int trial = 0; trial < trials; ++trial) {
            result.dram.commands += trialCost.commands;
            result.dram.energyNj += trialCost.energyNj;
            waveBankNs[{op.wave, bank}] += trialCost.latencyNs;
        }

        const TrustedMasks trusted =
            trustedMasks(program, placement, i, steps);
        if (op.computeValue != kNoValue)
            assemble(op.computeValue, trusted.compute, computeVotes);
        if (op.referenceValue != kNoValue)
            assemble(op.referenceValue, trusted.reference,
                     referenceVotes);
    }

    // Waves overlap across banks; the command bus serializes within
    // one bank.
    std::map<int, double> waveNs;
    for (const auto &[key, ns] : waveBankNs) {
        waveNs[key.first] = std::max(waveNs[key.first], ns);
        result.bankBusyNs[key.second] += ns;
    }
    for (const auto &[wave, ns] : waveNs)
        result.dram.latencyNs += ns;

    result.output = values[program.result];
    result.golden = golden[program.result];
    result.mask = masks[program.result];
    result.dramCoverage =
        numColumns == 0
            ? 0.0
            : static_cast<double>(result.mask.popcount()) /
                  static_cast<double>(numColumns);
    result.cpuBaseline =
        cpuBaselineCost(chip, program.loadOps(), numColumns);
    if (tel.metricsOn()) {
        tel.add(tel.counter("engine.executes"));
        tel.add(tel.counter("engine.checked_bits"),
                static_cast<std::uint64_t>(result.checkedBits));
        tel.add(tel.counter("engine.matched_bits"),
                static_cast<std::uint64_t>(result.matchingBits));
        tel.add(tel.counter("engine.dram_commands"),
                static_cast<std::uint64_t>(result.dram.commands));
        if (cpuFallbacks != 0)
            tel.add(tel.counter("engine.cpu_fallbacks"),
                    cpuFallbacks);
        tel.observe(tel.histogram("engine.query_dram_ns",
                                  {1e3, 1e4, 1e5, 1e6, 1e7}),
                    result.dram.latencyNs);
    }
    return result;
}

} // namespace fcdram::pud
