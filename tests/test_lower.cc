#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fcdram/analyzer.hh"
#include "fcdram/classifier.hh"
#include "fcdram/mapper.hh"
#include "fcdram/session.hh"
#include "fcdram/trng.hh"
#include "obs/telemetry.hh"
#include "pud/engine.hh"
#include "pud/lower.hh"
#include "verify/certify.hh"
#include "verify/cmdlint.hh"
#include "verify/pressure.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

using namespace fcdram::pud;

/**
 * The lowering is the one description of what an op issues. These
 * tests pin the engine's priced cost, the executed DRAM command trace,
 * the host-write count and the activation census to it.
 */

/** Resets the global sink, enables @p config, resets again on exit. */
struct TelemetryGuard
{
    explicit TelemetryGuard(const obs::TelemetryConfig &config)
    {
        obs::global().reset();
        obs::global().enable(config);
    }
    ~TelemetryGuard() { obs::global().reset(); }
};

std::vector<std::string>
columnNames(int count)
{
    std::vector<std::string> names;
    for (int i = 0; i < count; ++i)
        names.push_back(std::string("c").append(std::to_string(i)));
    return names;
}

std::vector<ExprId>
makeColumns(ExprPool &pool, int count)
{
    std::vector<ExprId> ids;
    for (const std::string &name : columnNames(count))
        ids.push_back(pool.column(name));
    return ids;
}

/** Host writes the lowering lists: prologue once, body per trial. */
struct WriteCounts
{
    std::uint64_t staging = 0;
    std::uint64_t body = 0;
};

WriteCounts
countWrites(const std::vector<LoweredOp> &lowered, int trials)
{
    WriteCounts counts;
    for (const LoweredOp &op : lowered) {
        counts.staging += op.prologue.size();
        for (const Step &step : op.body) {
            if (step.kind == Step::Kind::Write)
                counts.body += static_cast<std::uint64_t>(trials);
        }
    }
    return counts;
}

std::uint64_t
issuedCommands(const obs::Telemetry &tel)
{
    return tel.value("bender.cmd_act") + tel.value("bender.cmd_pre") +
           tel.value("bender.cmd_rd") + tel.value("bender.cmd_wr");
}

TEST(LowerTest, PricedCommandsEqualIssuedCommands)
{
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    ExprPool pool;
    const std::vector<ExprId> cols = makeColumns(pool, 16);
    const auto bits =
        static_cast<std::size_t>(session->config().geometry.columns);
    const auto data = PudEngine::randomColumns(columnNames(16), bits, 3);
    obs::TelemetryConfig metrics;
    metrics.metrics = true;

    for (const BackendChoice backend :
         {BackendChoice::NandNor, BackendChoice::SimraMaj}) {
        for (const int width : {2, 4, 8, 16}) {
            for (const CopyInMode copyIn :
                 {CopyInMode::HostWrite, CopyInMode::RowClone}) {
                for (const int redundancy : {1, 3}) {
                    EngineOptions options;
                    options.backend = backend;
                    options.copyIn = copyIn;
                    options.redundancy = redundancy;
                    const PudEngine engine(session, options);
                    Chip chip =
                        session->checkoutChip(test::idealProfile(), 21);
                    if (engine.backendCapability(chip).second < 2)
                        continue;
                    const MicroProgram program = engine.compileFor(
                        pool,
                        pool.mkAnd(std::vector<ExprId>(
                            cols.begin(), cols.begin() + width)),
                        chip);
                    const Placement placement =
                        RowAllocator(chip, 21).place(program);
                    const WriteCounts writes = countWrites(
                        lower(program, placement, chip, copyIn),
                        redundancy);

                    const TelemetryGuard guard(metrics);
                    const QueryResult result =
                        engine.execute(program, placement,
                                       chip.temperature(), chip, 7, data);
                    const obs::Telemetry &tel = obs::global();
                    SCOPED_TRACE(std::string(toString(backend)) +
                                 " AND-" + std::to_string(width) +
                                 (copyIn == CopyInMode::RowClone
                                      ? " rowclone"
                                      : " hostwrite") +
                                 " r" + std::to_string(redundancy));
                    ASSERT_TRUE(result.placed);
                    EXPECT_EQ(result.output, result.golden);
                    EXPECT_EQ(tel.value("bender.row_writes"),
                              writes.staging + writes.body);
                    EXPECT_EQ(result.dram.commands,
                              issuedCommands(tel) + 3 * writes.body);
                    EXPECT_EQ(result.load.commands,
                              3 * (program.loadOps() + writes.staging));
                }
            }
        }
    }
}

TEST(LowerTest, StagingMaskNarrowsTrustedColumnsForEngineAndCertifier)
{
    // A column the staging -> compute RowClone cannot serve leaves
    // both result sides of the gate: the engine keeps the CPU value
    // there and the certificate bounds no error there. The ideal chip
    // gets enough sense noise that a trusted column's bound is above
    // zero while every mask still passes the 99.99% cut.
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    EngineOptions options;
    options.backend = BackendChoice::NandNor;
    options.copyIn = CopyInMode::RowClone;
    const PudEngine engine(session, options);
    ChipProfile profile = test::idealProfile();
    profile.analog.senseNoiseSigma = 0.03;
    Chip chip = session->checkoutChip(profile, 21);
    ExprPool pool;
    const MicroProgram program =
        engine.compileFor(pool, pool.mkAnd(makeColumns(pool, 2)), chip);
    const Placement placement = RowAllocator(chip, 21).place(program);
    const std::vector<LoweredOp> lowered =
        lower(program, placement, chip, CopyInMode::RowClone);

    std::size_t gate = 0;
    while (gate < program.ops.size() &&
           program.ops[gate].kind != MicroOpKind::Wide)
        ++gate;
    ASSERT_LT(gate, program.ops.size());
    ASSERT_EQ(program.result, program.ops[gate].computeValue);
    ASSERT_FALSE(lowered[gate].prologue.empty());
    const std::size_t operand = lowered[gate].prologue.front().operand;

    const TrustedMasks wide =
        trustedMasks(program, placement, gate, lowered[gate]);
    ColId c = 0;
    while (c < wide.compute.size() &&
           !(wide.compute.get(c) && wide.reference.get(c)))
        ++c;
    ASSERT_LT(c, wide.compute.size());

    Placement narrowed = placement;
    BitVector &staging =
        narrowed.gateSlots[static_cast<std::size_t>(
                               narrowed.gateSlotOf[gate])]
            .stagingMasks[operand];
    staging.set(c, false);

    const TrustedMasks trusted =
        trustedMasks(program, narrowed, gate, lowered[gate]);
    BitVector compute = wide.compute;
    BitVector reference = wide.reference;
    compute.set(c, false);
    reference.set(c, false);
    EXPECT_EQ(trusted.compute, compute);
    EXPECT_EQ(trusted.reference, reference);

    const auto bits =
        static_cast<std::size_t>(session->config().geometry.columns);
    const QueryResult result = engine.execute(
        program, narrowed, chip.temperature(), chip, 7,
        PudEngine::randomColumns(columnNames(2), bits, 5));
    EXPECT_FALSE(result.mask.get(c));
    EXPECT_EQ(result.mask, compute);
    EXPECT_EQ(result.output.get(c), result.golden.get(c));

    const auto bound = [&](const Placement &certified) {
        return verify::certifyPlan(program, certified, chip,
                                   chip.temperature(), 1, true)
            .perColumnErrorBound[c];
    };
    EXPECT_GT(bound(placement), 0.0);
    EXPECT_EQ(bound(narrowed), 0.0);
}

/** One DRAM command as the trace records it; PRE carries no row. */
using TracedCommand =
    std::tuple<std::string, std::string, std::uint64_t, std::int64_t>;

/** The DRAM command sequence of a Chrome trace, with epoch labels. */
std::vector<TracedCommand>
tracedCommands(const obs::Telemetry &tel)
{
    std::ostringstream trace;
    tel.writeChromeTrace(trace);
    const test::JsonValue root = test::JsonParser(trace.str()).parse();
    std::vector<TracedCommand> commands;
    std::string epoch;
    for (const test::JsonValue &event : root.at("traceEvents").array) {
        if (event.at("ph").string != "X")
            continue;
        const std::string &name = event.at("name").string;
        if (name != "ACT" && name != "PRE" && name != "RD" &&
            name != "WR") {
            epoch = name;
            continue;
        }
        const test::JsonValue &args = event.at("args");
        commands.emplace_back(
            epoch, name,
            static_cast<std::uint64_t>(event.at("tid").number),
            args.has("row") ? std::stoll(args.at("row").string) : -1);
    }
    return commands;
}

/** The commands the engine issues for @p lowered, trial by trial. */
std::vector<TracedCommand>
loweredCommands(const std::vector<LoweredOp> &lowered, int trials)
{
    std::vector<TracedCommand> commands;
    for (const LoweredOp &op : lowered) {
        for (int trial = 0; trial < trials; ++trial) {
            for (const Step &step : op.body) {
                if (step.kind == Step::Kind::Write)
                    continue;
                for (const Command &command : step.program.commands) {
                    const bool pre = command.type == CommandType::Pre;
                    commands.emplace_back(
                        step.label, toString(command.type),
                        command.bank,
                        pre ? -1 : static_cast<std::int64_t>(command.row));
                }
            }
        }
    }
    return commands;
}

struct ProfileSpec
{
    std::string label;
    ChipProfile profile;
    std::vector<BackendChoice> backends;
};

TEST(LowerTest, ExecutedStreamEqualsLoweredStreamOverLintCorpus)
{
    // The pudlint corpus: 12 query shapes on the paper's four
    // manufacturer dies, forced backends where the die supports them.
    ExprPool pool;
    const std::vector<ExprId> cols = makeColumns(pool, 16);
    std::vector<std::pair<std::string, ExprId>> corpus;
    for (const int width : {2, 4, 8, 16}) {
        const std::vector<ExprId> slice(cols.begin(),
                                        cols.begin() + width);
        corpus.emplace_back("AND-" + std::to_string(width),
                            pool.mkAnd(slice));
        corpus.emplace_back("OR-" + std::to_string(width),
                            pool.mkOr(slice));
    }
    corpus.emplace_back(
        "(a&~b)|(c&d)",
        pool.mkOr(pool.mkAnd(cols[0], pool.mkNot(cols[1])),
                  pool.mkAnd(cols[2], cols[3])));
    corpus.emplace_back("XOR-4",
                        pool.mkXor({cols[0], cols[1], cols[2], cols[3]}));
    corpus.emplace_back("MAJ-3", pool.mkMaj({cols[0], cols[1], cols[2]}));
    corpus.emplace_back("MAJ-5", pool.mkMaj({cols[0], cols[1], cols[2],
                                             cols[3], cols[4]}));
    const std::vector<BackendChoice> all = {BackendChoice::Auto,
                                            BackendChoice::NandNor,
                                            BackendChoice::SimraMaj};
    const std::vector<ProfileSpec> profiles = {
        {"SKHynix-4Gb-M",
         ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666), all},
        {"SKHynix-4Gb-A",
         ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133), all},
        {"Samsung-4Gb-F",
         ChipProfile::make(Manufacturer::Samsung, 4, 'F', 8, 2666),
         {BackendChoice::Auto}},
        {"Micron-8Gb-B",
         ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666),
         {BackendChoice::Auto}},
    };

    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    constexpr std::uint64_t kChipSeed = 0x11D7;
    constexpr int kTrials = 3;
    const auto bits =
        static_cast<std::size_t>(session->config().geometry.columns);
    const auto data =
        PudEngine::randomColumns(columnNames(16), bits, kChipSeed);
    obs::TelemetryConfig traced;
    traced.metrics = true;
    traced.dramTrace = true;

    int plans = 0;
    std::uint64_t executedActs = 0;
    for (const ProfileSpec &spec : profiles) {
        const Chip chip = session->checkoutChip(spec.profile, kChipSeed);
        const RowAllocator allocator(chip, kChipSeed);
        for (const BackendChoice backend : spec.backends) {
            for (const auto &[label, root] : corpus) {
                for (const CopyInMode copyIn :
                     {CopyInMode::HostWrite, CopyInMode::RowClone}) {
                    EngineOptions options;
                    options.backend = backend;
                    options.copyIn = copyIn;
                    options.redundancy = kTrials;
                    const PudEngine engine(session, options);
                    const MicroProgram program =
                        engine.compileFor(pool, root, chip);
                    const Placement placement = allocator.place(program);
                    const bool rowClone = copyIn == CopyInMode::RowClone;
                    const std::vector<LoweredOp> lowered =
                        lower(program, placement, chip, copyIn);
                    verify::DiagnosticSink sink;
                    const verify::ActivationPressureProfile census =
                        verify::analyzeActivationPressure(
                            program, placement, chip, kTrials, rowClone,
                            verify::PressureBudget{}, sink);

                    const TelemetryGuard guard(traced);
                    Chip runChip =
                        session->checkoutChip(spec.profile, kChipSeed);
                    (void)engine.execute(program, placement,
                                         chip.temperature(), runChip, 5,
                                         data);
                    const obs::Telemetry &tel = obs::global();
                    SCOPED_TRACE(spec.label + " / " +
                                 toString(backend) + " / " + label +
                                 (rowClone ? " / rowclone" : ""));
                    EXPECT_EQ(tracedCommands(tel),
                              loweredCommands(lowered, kTrials));
                    const WriteCounts writes =
                        countWrites(lowered, kTrials);
                    EXPECT_EQ(tel.value("bender.row_writes"),
                              writes.staging + writes.body);
                    EXPECT_EQ(census.totalActivations,
                              static_cast<std::int64_t>(
                                  tel.value("bender.cmd_act") +
                                  writes.body));
                    executedActs += tel.value("bender.cmd_act");
                    ++plans;
                }
            }
        }
    }
    EXPECT_EQ(plans, 192);
    EXPECT_GT(executedActs, 0u);
}

TEST(LowerTest, TrialMethodIssuesTheServedRecipe)
{
    // The lowering and fcdram::Ops build each op from the same
    // StepWriter recipes, so on the same chip state and bender seed
    // the trial method's Ops calls issue the served op's commands and
    // read its bits. MAJ-9 pads its 16-row group with 3 constant
    // pairs.
    const ChipProfile profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    constexpr std::uint64_t kChipSeed = 0x5EED;
    constexpr std::uint64_t kBenderSeed = 9;
    ExprPool pool;
    const std::vector<ExprId> cols = makeColumns(pool, 9);
    const auto bits =
        static_cast<std::size_t>(session->config().geometry.columns);
    const auto data =
        PudEngine::randomColumns(columnNames(9), bits, kChipSeed);
    const std::vector<std::tuple<std::string, BackendChoice, ExprId>>
        shapes = {
            {"AND-2", BackendChoice::NandNor,
             pool.mkAnd(cols[0], cols[1])},
            {"MAJ-3", BackendChoice::SimraMaj,
             pool.mkMaj({cols[0], cols[1], cols[2]})},
            {"MAJ-9", BackendChoice::SimraMaj, pool.mkMaj(cols)},
        };
    obs::TelemetryConfig traced;
    traced.metrics = true;
    traced.dramTrace = true;

    for (const auto &[label, backend, root] : shapes) {
        SCOPED_TRACE(label);
        EngineOptions options;
        options.backend = backend;
        options.copyIn = CopyInMode::HostWrite;
        options.redundancy = 1;
        const PudEngine engine(session, options);
        const Chip chip = session->checkoutChip(profile, kChipSeed);
        const MicroProgram program = engine.compileFor(pool, root, chip);
        const Placement placement =
            RowAllocator(chip, kChipSeed).place(program);
        ASSERT_TRUE(placement.complete);

        std::map<ValueId, std::string> columnOf;
        std::vector<std::size_t> computed;
        for (std::size_t i = 0; i < program.ops.size(); ++i) {
            if (program.ops[i].kind == MicroOpKind::Load)
                columnOf[program.ops[i].computeValue] =
                    program.ops[i].column;
            else
                computed.push_back(i);
        }
        ASSERT_EQ(computed.size(), 1u);
        const std::size_t i = computed.front();
        const MicroOp &op = program.ops[i];
        std::vector<BitVector> operands;
        for (const ValueId input : op.inputs)
            operands.push_back(data.at(columnOf.at(input)));

        std::vector<TracedCommand> served;
        std::uint64_t servedWrites = 0;
        BitVector servedBits;
        BitVector mask;
        {
            const TelemetryGuard guard(traced);
            Chip runChip = session->checkoutChip(profile, kChipSeed);
            const QueryResult result =
                engine.execute(program, placement, runChip.temperature(),
                               runChip, kBenderSeed, data);
            served = tracedCommands(obs::global());
            servedWrites = obs::global().value("bender.row_writes");
            servedBits = result.output;
            mask = result.mask;
        }
        ASSERT_GT(mask.popcount(), 0u);

        const TelemetryGuard guard(traced);
        Chip trialChip = session->checkoutChip(profile, kChipSeed);
        DramBender bender(trialChip, kBenderSeed);
        Ops ops(bender);
        BitVector trialBits;
        if (op.kind == MicroOpKind::Wide) {
            const GateSlot &slot = placement.gateSlots[static_cast<
                std::size_t>(placement.gateSlotOf[i])];
            const BankId bank = slot.context.bank;
            ASSERT_TRUE(ops.initReference(bank, op.family, slot.refRows));
            for (std::size_t k = 0; k < operands.size(); ++k)
                bender.writeRow(bank, slot.computeRows[k], operands[k]);
            trialBits = ops.executeLogic(bank, slot.refAnchor,
                                         slot.comAnchor, slot.refRows,
                                         slot.computeRows)
                            .computeResult;
        } else {
            ASSERT_EQ(op.kind, MicroOpKind::Maj);
            const MajSlot &slot = placement.majSlots[static_cast<
                std::size_t>(placement.majSlotOf[i])];
            const auto maj = ops.executeMaj(
                slot.context.bank, slot.rfAnchor, slot.rlAnchor, operands);
            ASSERT_TRUE(maj.has_value());
            trialBits = *maj;
        }
        EXPECT_EQ(tracedCommands(obs::global()), served);
        EXPECT_EQ(obs::global().value("bender.row_writes"), servedWrites);
        servedBits &= mask;
        trialBits &= mask;
        EXPECT_EQ(trialBits, servedBits);
    }
}

TEST(LowerTest, FcdramProgramsRunUnderViolationEpochs)
{
    // A program issued without a DramLabel records the default
    // "program" epoch, which cmdlint's UPL105 reads as a timing error
    // and the DRAM trace mislabels. Every violated-timing program
    // fcdram issues runs under a violation epoch, every host read
    // under "RowRead".
    Chip chip(ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666),
              test::tinyGeometry(), 3);
    DramBender bender(chip, 7);
    const GeometryConfig &geometry = chip.geometry();
    const auto pairs = findActivationPairs(chip, 2, 2, 1, 5);
    ASSERT_FALSE(pairs.empty());
    const auto [rf, rl] = pairs.front();

    struct Issuer
    {
        std::string name;
        std::string epoch; ///< The violation epoch it must record.
        std::function<void()> issue;
    };
    const std::vector<Issuer> issuers = {
        {"SuccessRateAnalyzer::runLogic", "Logic",
         [&] {
             LogicTrialConfig config;
             config.refGlobal = composeRow(geometry, 0, rf);
             config.comGlobal = composeRow(geometry, 1, rl);
             config.trials = 2;
             SuccessRateAnalyzer(bender, 11).runLogic(config);
         }},
        {"DramTrng::rawSample", "DoubleAct",
         [&] { DramTrng(bender, 0, 2).rawSample(); }},
        {"SubarrayMapper::sameSubarrayProbe", "RowClone",
         [&] {
             SubarrayMapper(bender, 13)
                 .sameSubarrayProbe(0, composeRow(geometry, 2, 4),
                                    composeRow(geometry, 2, 5), 1);
         }},
        {"ActivationClassifier::classify", "DoubleAct",
         [&] { ActivationClassifier(bender, 17).classify(0, 0, rf, 1, rl); }},
    };
    obs::TelemetryConfig traced;
    traced.dramTrace = true;
    for (const Issuer &issuer : issuers) {
        SCOPED_TRACE(issuer.name);
        const TelemetryGuard guard(traced);
        issuer.issue();
        std::set<std::string> epochs;
        for (const TracedCommand &command : tracedCommands(obs::global()))
            epochs.insert(std::get<0>(command));
        EXPECT_EQ(epochs.count(issuer.epoch), 1u);
        for (const std::string &epoch : epochs) {
            EXPECT_TRUE(epoch == "RowRead" ||
                        verify::isViolationEpoch(epoch.c_str()))
                << epoch;
        }
    }
}

} // namespace
} // namespace fcdram
