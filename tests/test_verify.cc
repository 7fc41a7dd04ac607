/**
 * @file
 * Static plan verifier tests (src/verify/): one deliberately defective
 * program per catalog rule, asserting that exactly that rule fires;
 * the clean corpus (every bench query shape on every manufacturer
 * profile) producing zero Errors; and the QueryService integration —
 * submit rejects an Error-bearing plan, which the engine run directly
 * still answers through its CPU fallback.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "corpus.hh"
#include "dram/address.hh"
#include "pud/service.hh"
#include "verify/cmdlint.hh"
#include "verify/uplint.hh"
#include "verify/verifier.hh"

using namespace fcdram;
using namespace fcdram::pud;
using namespace fcdram::verify;

namespace {

MicroOp
makeLoad(const std::string &column, ValueId value)
{
    MicroOp op;
    op.kind = MicroOpKind::Load;
    op.column = column;
    op.computeValue = value;
    op.wave = 0;
    return op;
}

MicroOp
makeWide(BoolOp family, std::vector<ValueId> inputs, ValueId compute,
         int wave = 1)
{
    MicroOp op;
    op.kind = MicroOpKind::Wide;
    op.family = family;
    op.inputs = std::move(inputs);
    op.computeValue = compute;
    op.wave = wave;
    return op;
}

/** A balanced pure-MAJ op: inputs + 1 neutral = power-of-two group. */
MicroOp
makeMaj(std::vector<ValueId> inputs, ValueId compute, int wave = 1)
{
    MicroOp op;
    op.kind = MicroOpKind::Maj;
    op.family = BoolOp::And;
    op.inputs = std::move(inputs);
    op.computeValue = compute;
    op.wave = wave;
    op.constantOnes = 0;
    op.constantZeros = 0;
    op.neutralRows = 1;
    op.activatedRows = 4;
    return op;
}

MicroProgram
makeProgram(std::vector<MicroOp> ops, std::uint32_t numValues,
            ValueId result)
{
    MicroProgram program;
    program.ops = std::move(ops);
    program.numValues = numValues;
    program.result = result;
    for (const MicroOp &op : program.ops)
        program.numWaves = std::max(program.numWaves, op.wave + 1);
    return program;
}

DiagnosticSink
lintProgram(const MicroProgram &program)
{
    DiagnosticSink sink;
    lintMicroProgram(program, sink);
    return sink;
}

/** Every diagnostic carries @p rule (with its catalog severity). */
void
expectOnly(const DiagnosticSink &sink, const char *rule)
{
    ASSERT_FALSE(sink.empty()) << "expected " << rule << " to fire";
    const RuleInfo *info = findRule(rule);
    ASSERT_NE(info, nullptr);
    for (const Diagnostic &diagnostic : sink.diagnostics()) {
        EXPECT_EQ(diagnostic.rule, rule) << diagnostic.toString();
        EXPECT_EQ(diagnostic.severity, info->severity)
            << diagnostic.toString();
    }
}

/** Empty placement (all ops unplaced) sized for @p program. */
Placement
emptyPlacement(const MicroProgram &program)
{
    Placement placement;
    placement.gateSlotOf.assign(program.ops.size(), -1);
    placement.notSlotOf.assign(program.ops.size(), -1);
    placement.majSlotOf.assign(program.ops.size(), -1);
    return placement;
}

Command
makeCommand(CommandType type, BankId bank, RowId row, Ns issueNs)
{
    Command command;
    command.type = type;
    command.bank = bank;
    command.row = row;
    command.issueNs = issueNs;
    return command;
}

DiagnosticSink
lintCommands(const std::vector<Command> &commands,
             const char *epoch = "program", bool ignores = false)
{
    Program program;
    program.commands = commands;
    CommandLintContext context;
    context.epoch = epoch;
    context.ignoresViolatedCommands = ignores;
    DiagnosticSink sink;
    lintCommandProgram(program, context, sink);
    return sink;
}

} // namespace

// ---- Catalog and sink plumbing --------------------------------------

TEST(DiagnosticsTest, CatalogIsCompleteWithFixedSeverities)
{
    const std::set<std::string> expected = {
        "UPL001", "UPL002", "UPL003", "UPL004", "UPL005", "UPL006",
        "UPL007", "UPL008", "UPL009", "UPL010", "UPL101", "UPL102",
        "UPL103", "UPL104", "UPL105", "UPL106", "UPL107", "UPL201",
        "UPL202"};
    std::set<std::string> found;
    for (const RuleInfo &rule : ruleCatalog())
        found.insert(rule.id);
    EXPECT_EQ(found, expected);

    EXPECT_EQ(findRule("UPL001")->severity, Severity::Error);
    EXPECT_EQ(findRule("UPL002")->severity, Severity::Warning);
    EXPECT_EQ(findRule("UPL104")->severity, Severity::Warning);
    EXPECT_EQ(findRule("UPL107")->severity, Severity::Note);
    EXPECT_EQ(findRule("UPL201")->severity, Severity::Warning);
    EXPECT_EQ(findRule("UPL202")->severity, Severity::Error);
    EXPECT_EQ(findRule("UPL999"), nullptr);
}

TEST(DiagnosticsTest, SinkCountsAndReports)
{
    DiagnosticSink sink;
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(sink.firstError(), nullptr);

    sink.report("UPL002", "op 0 (load 'a')", "dead staging store");
    sink.report("UPL001", "op 1 (wide/and)", "read before defined");
    EXPECT_EQ(sink.errors(), 1u);
    EXPECT_EQ(sink.warnings(), 1u);
    EXPECT_TRUE(sink.hasErrors());
    ASSERT_NE(sink.firstError(), nullptr);
    EXPECT_EQ(sink.firstError()->rule, "UPL001");

    std::ostringstream text;
    sink.writeText(text);
    EXPECT_NE(text.str().find("error UPL001"), std::string::npos);
    EXPECT_NE(text.str().find("1 error(s), 1 warning(s)"),
              std::string::npos);

    std::ostringstream json;
    sink.writeJson(json);
    EXPECT_NE(json.str().find("\"rule\":\"UPL001\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"severity\":\"warning\""),
              std::string::npos);
}

namespace {

/**
 * Minimal JSON string unescaper for the round-trip test: the inverse
 * of jsonQuote's escape set ('\"', '\\', \n, \t, \r, \uXXXX).
 */
std::string
jsonUnescape(const std::string &text)
{
    std::string out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out.push_back(text[i]);
            continue;
        }
        ++i;
        switch (text[i]) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'u':
            out.push_back(static_cast<char>(
                std::stoi(text.substr(i + 1, 4), nullptr, 16)));
            i += 4;
            break;
          default:
            out.push_back(text[i]); // '\"', '\\', '/'.
            break;
        }
    }
    return out;
}

/** The value of the first "message" field in @p json (escaped form). */
std::string
firstMessageField(const std::string &json)
{
    const std::string key = "\"message\":\"";
    const std::size_t begin = json.find(key) + key.size();
    std::size_t end = begin;
    while (json[end] != '"' || json[end - 1] == '\\')
        ++end;
    return json.substr(begin, end - begin);
}

} // namespace

TEST(DiagnosticsTest, JsonReportRoundTripsHostileText)
{
    // Quotes, backslashes, newlines, tabs, and a raw control byte:
    // everything a Windows path or a multi-line compiler message can
    // smuggle into a diagnostic.
    const std::string hostile =
        "path \"C:\\temp\\x\" has\nnewline\tand \x01 control";
    DiagnosticSink sink;
    sink.report("UPL001", "op 0 (wide/and)", hostile);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string json = os.str();

    // The raw document never contains an unescaped quote, backslash,
    // or control character inside the string...
    EXPECT_NE(json.find("\\\"C:\\\\temp\\\\x\\\""),
              std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);

    // ... and unescaping the message field recovers the original
    // byte-for-byte.
    EXPECT_EQ(jsonUnescape(firstMessageField(json)), hostile);
}

// ---- μprogram dataflow rules (one defect per rule) -------------------

TEST(UplintTest, CleanProgramProducesNoDiagnostics)
{
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeLoad("b", 1),
         makeWide(BoolOp::And, {0, 1}, 2)},
        3, 2);
    EXPECT_TRUE(lintProgram(program).empty());
}

TEST(UplintTest, Upl001UseBeforeInit)
{
    // v1 is consumed but no μop ever defines it.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeWide(BoolOp::And, {0, 1}, 2)}, 3, 2);
    expectOnly(lintProgram(program), "UPL001");
}

TEST(UplintTest, Upl002DeadStagingStore)
{
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeLoad("b", 1), makeLoad("c", 2),
         makeWide(BoolOp::And, {0, 1}, 3)},
        4, 3);
    const DiagnosticSink sink = lintProgram(program);
    expectOnly(sink, "UPL002");
    EXPECT_NE(sink.diagnostics().front().message.find(
                  "dead staging store"),
              std::string::npos);
}

TEST(UplintTest, Upl003OperandAliasing)
{
    // Both activation rows of the gate would source the same value.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeWide(BoolOp::Or, {0, 0}, 1)}, 2, 1);
    expectOnly(lintProgram(program), "UPL003");
}

TEST(UplintTest, Upl004ClobbersLiveValue)
{
    // The gate overwrites the row backing its own operand.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeLoad("b", 1),
         makeWide(BoolOp::And, {0, 1}, 0)},
        2, 0);
    const DiagnosticSink sink = lintProgram(program);
    expectOnly(sink, "UPL004");
    EXPECT_NE(sink.diagnostics().front().message.find("own operand"),
              std::string::npos);
}

TEST(UplintTest, Upl005WaveOrderViolation)
{
    // The gate claims wave 0, the same wave as its producers.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeLoad("b", 1),
         makeWide(BoolOp::And, {0, 1}, 2, 0)},
        3, 2);
    expectOnly(lintProgram(program), "UPL005");
}

TEST(UplintTest, Upl006MajGroupArithmetic)
{
    MicroOp maj = makeMaj({0, 1, 2}, 3);
    maj.activatedRows = 5; // 3 operands + 1 neutral sum to 4, not 5.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeLoad("b", 1), makeLoad("c", 2),
         std::move(maj)},
        4, 3);
    expectOnly(lintProgram(program), "UPL006");
}

TEST(UplintTest, Upl010MalformedEnvelope)
{
    // A 1-input wide gate: no pair activation realizes it.
    const MicroProgram program = makeProgram(
        {makeLoad("a", 0), makeWide(BoolOp::And, {0}, 1)}, 2, 1);
    expectOnly(lintProgram(program), "UPL010");
}

// ---- Placement rules (need a chip) -----------------------------------

class VerifyPlacementTest : public ::testing::Test
{
  protected:
    VerifyPlacementTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests())),
          chip_(session_->checkoutChip(
              ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8,
                                2666),
              21))
    {
    }

    const GeometryConfig &geometry() const { return chip_.geometry(); }
    std::size_t columns() const
    {
        return static_cast<std::size_t>(geometry().columns);
    }

    /** 3-input MAJ program whose op sits at index 3. */
    MicroProgram majProgram() const
    {
        return makeProgram({makeLoad("a", 0), makeLoad("b", 1),
                            makeLoad("c", 2), makeMaj({0, 1, 2}, 3)},
                           4, 3);
    }

    std::shared_ptr<FleetSession> session_;
    Chip chip_;
};

TEST_F(VerifyPlacementTest, Upl007MajSlotGroupMismatch)
{
    const MicroProgram program = majProgram();
    Placement placement = emptyPlacement(program);
    MajSlot slot;
    // Three rows for a 4-row activation group.
    for (RowId local = 0; local < 3; ++local)
        slot.rows.push_back(composeRow(geometry(), 0, local));
    slot.activatedRows = 4;
    slot.mask = BitVector(columns(), true);
    placement.majSlots.push_back(std::move(slot));
    placement.majSlotOf[3] = 0;

    DiagnosticSink sink;
    lintPlacement(program, placement, chip_, sink);
    expectOnly(sink, "UPL007");
}

TEST_F(VerifyPlacementTest, Upl008EmptyReliabilityMask)
{
    const MicroProgram program = majProgram();
    Placement placement = emptyPlacement(program);
    MajSlot slot;
    for (RowId local = 0; local < 4; ++local)
        slot.rows.push_back(composeRow(geometry(), 0, local));
    slot.activatedRows = 4;
    slot.mask = BitVector(columns(), false); // Nothing trusted.
    placement.majSlots.push_back(std::move(slot));
    placement.majSlotOf[3] = 0;

    DiagnosticSink sink;
    lintPlacement(program, placement, chip_, sink);
    expectOnly(sink, "UPL008");
}

TEST_F(VerifyPlacementTest, Upl009TemperatureMismatch)
{
    const MicroProgram program =
        makeProgram({makeLoad("a", 0)}, 1, 0);
    const Placement placement = emptyPlacement(program);
    const DiagnosticSink sink = verifyPlan(
        program, placement, chip_, Celsius(50), Celsius(85));
    expectOnly(sink, "UPL009");
}

TEST_F(VerifyPlacementTest, VerifyPlanAcceptsRealPlacement)
{
    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < 4; ++i)
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));
    const PudEngine engine(session_);
    const MicroProgram program =
        engine.compileFor(pool, pool.mkAnd(cols), chip_);
    const RowAllocator allocator(chip_, 21);
    const Placement placement = allocator.place(program);
    const DiagnosticSink sink =
        verifyPlan(program, placement, chip_, chip_.temperature(),
                   chip_.temperature());
    EXPECT_EQ(sink.errors(), 0u) << [&] {
        std::ostringstream os;
        sink.writeText(os);
        return os.str();
    }();
}

// ---- Command-program rules -------------------------------------------

TEST(CmdlintTest, ViolationEpochsMatchDramLabels)
{
    for (const char *epoch :
         {"MAJ", "NOT", "RowClone", "Frac", "Logic", "DoubleAct"})
        EXPECT_TRUE(isViolationEpoch(epoch)) << epoch;
    EXPECT_FALSE(isViolationEpoch("program"));
    EXPECT_FALSE(isViolationEpoch("RowRead"));
}

TEST(CmdlintTest, Upl101NonMonotonicIssueTime)
{
    // The RD steps backwards in time; the open row keeps UPL103 out.
    expectOnly(
        lintCommands({makeCommand(CommandType::Act, 0, 1, 10.0),
                      makeCommand(CommandType::Rd, 0, 0, 5.0)}),
        "UPL101");
}

TEST(CmdlintTest, Upl102DoubleActWithoutPre)
{
    expectOnly(
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Act, 0, 2, 100.0)}),
        "UPL102");
}

TEST(CmdlintTest, Upl103ReadOnPrechargedBank)
{
    expectOnly(lintCommands({makeCommand(CommandType::Rd, 0, 0, 0.0)}),
               "UPL103");
}

TEST(CmdlintTest, Upl104RedundantPre)
{
    expectOnly(lintCommands({makeCommand(CommandType::Pre, 0, 0, 0.0)}),
               "UPL104");
}

TEST(CmdlintTest, Upl105ViolatedGapOutsideEpoch)
{
    // An interrupted restore (2.5ns << the 6ns Frac threshold) under
    // the default non-violation epoch.
    expectOnly(
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Pre, 0, 0, 2.5)}),
        "UPL105");
}

TEST(CmdlintTest, Upl106DroppedCommandOnIgnoringDesign)
{
    // Same gap inside a labeled epoch: legitimate on SK Hynix-like
    // designs, but a decoder that ignores violated commands drops it.
    const DiagnosticSink sink =
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Pre, 0, 0, 2.5)},
                     "Logic", true);
    ASSERT_TRUE(sink.hasErrors());
    for (const Diagnostic &diagnostic : sink.diagnostics()) {
        if (diagnostic.severity == Severity::Error) {
            EXPECT_EQ(diagnostic.rule, "UPL106")
                << diagnostic.toString();
        }
    }
}

TEST(CmdlintTest, Upl107CountsIntentionalGaps)
{
    const DiagnosticSink sink =
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Pre, 0, 0, 2.5)},
                     "MAJ");
    expectOnly(sink, "UPL107");
    EXPECT_NE(sink.diagnostics().front().message.find(
                  "1 intentionally violated"),
              std::string::npos);
}

TEST(CmdlintTest, NominalProgramIsClean)
{
    const TimingParams timing = TimingParams::nominal();
    EXPECT_TRUE(
        lintCommands(
            {makeCommand(CommandType::Act, 0, 1, 0.0),
             makeCommand(CommandType::Rd, 0, 0, 20.0),
             makeCommand(CommandType::Pre, 0, 0, timing.tRas),
             makeCommand(CommandType::Act, 0, 2,
                         timing.tRas + timing.tRp)})
            .empty());
}

TEST(CmdlintTest, QuantizedNominalGapsAreCleanAcrossSpeedGrades)
{
    // The testing infrastructure can only realize gaps in whole
    // command clocks; the quantized-up nominal gaps must lint clean
    // on every fleet speed grade.
    const TimingParams timing = TimingParams::nominal();
    for (const std::uint32_t rate : {2133u, 2400u, 2666u, 3200u}) {
        const SpeedGrade grade(rate);
        const Ns rasGap = grade.quantizedGapNs(timing.tRas);
        const Ns rpGap = grade.quantizedGapNs(timing.tRp);
        ASSERT_GE(rasGap, timing.tRas) << rate;
        ASSERT_GE(rpGap, timing.tRp) << rate;
        EXPECT_TRUE(
            lintCommands(
                {makeCommand(CommandType::Act, 0, 1, 0.0),
                 makeCommand(CommandType::Pre, 0, 0, rasGap),
                 makeCommand(CommandType::Act, 0, 2, rasGap + rpGap)})
                .empty())
            << rate << " MT/s";
    }
}

TEST(CmdlintTest, PreActGapOneClockShortViolatesAcrossSpeedGrades)
{
    // One command clock below the quantized tRP boundary the
    // precharge is incomplete — UPL105 outside a violation epoch, at
    // every fleet speed grade.
    const TimingParams timing = TimingParams::nominal();
    for (const std::uint32_t rate : {2133u, 2400u, 2666u, 3200u}) {
        const SpeedGrade grade(rate);
        const Ns rasGap = grade.quantizedGapNs(timing.tRas);
        const Ns shortRp =
            grade.quantizedGapNs(timing.tRp) - grade.tCk();
        ASSERT_LT(shortRp, timing.tRp) << rate;
        expectOnly(
            lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                          makeCommand(CommandType::Pre, 0, 0, rasGap),
                          makeCommand(CommandType::Act, 0, 2,
                                      rasGap + shortRp)}),
            "UPL105");
    }
}

TEST(CmdlintTest, GrosslyViolatedBoundaryIsExclusive)
{
    // The drop threshold of ignoring designs is gap < 0.8 * nominal:
    // a gap of exactly 0.8 * tRAS survives (and, being above the
    // 6ns interrupted-restore window, is not even a violation), while
    // any gap below it is dropped (UPL106).
    const TimingParams timing = TimingParams::nominal();
    const Ns boundary = 0.8 * timing.tRas;
    EXPECT_TRUE(
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Pre, 0, 0, boundary)},
                     "Logic", true)
            .empty());
    expectOnly(
        lintCommands({makeCommand(CommandType::Act, 0, 1, 0.0),
                      makeCommand(CommandType::Pre, 0, 0,
                                  boundary - 0.01)},
                     "Logic", true),
        "UPL106");
}

TEST(DiagnosticsTest, SummarizeVerdictShowsCountsAndTopThreeErrors)
{
    DiagnosticSink sink;
    sink.report("UPL107", "program", "note n1");
    sink.report("UPL002", "op 1 (load 'a')", "warn w1");
    sink.report("UPL001", "op 2 (wide/and)", "err e1");
    sink.report("UPL006", "op 3 (maj)", "err e2");
    sink.report("UPL010", "op 4 (wide/or)", "err e3");
    sink.report("UPL005", "op 5 (not)", "err e4");

    const std::string summary = summarizeVerdict(sink);
    EXPECT_NE(summary.find("4 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos)
        << summary;
    // Errors lead, in report order, capped at three.
    EXPECT_NE(summary.find("top: error UPL001 at op 2 (wide/and): "
                           "err e1"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("err e2"), std::string::npos);
    EXPECT_NE(summary.find("err e3"), std::string::npos);
    EXPECT_EQ(summary.find("err e4"), std::string::npos) << summary;
    EXPECT_EQ(summary.find("warn w1"), std::string::npos) << summary;

    // Without errors, warnings and notes fill the top slots.
    DiagnosticSink mild;
    mild.report("UPL002", "op 0 (load 'b')", "warn only");
    const std::string mildSummary = summarizeVerdict(mild);
    EXPECT_NE(mildSummary.find("0 error(s), 1 warning(s), 0 note(s)"),
              std::string::npos)
        << mildSummary;
    EXPECT_NE(mildSummary.find("top: warning UPL002"),
              std::string::npos)
        << mildSummary;
}

// ---- Clean corpus across manufacturer profiles -----------------------

TEST(VerifyCorpusTest, BenchCorpusIsErrorFreeOnEveryProfile)
{
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());

    ExprPool pool;
    const std::vector<corpus::QuerySpec> queries =
        corpus::buildCorpus(pool);

    const PudEngine engine(session);
    for (const corpus::ProfileSpec &spec : corpus::buildProfiles()) {
        const Chip chip = session->checkoutChip(spec.profile, 21);
        const RowAllocator allocator(chip, 21);
        for (const auto &[label, root] : queries) {
            const MicroProgram program =
                engine.compileFor(pool, root, chip);
            const Placement placement = allocator.place(program);
            for (const bool rowClone : {false, true}) {
                const DiagnosticSink sink = verifyPlan(
                    program, placement, chip, chip.temperature(),
                    chip.temperature(), rowClone);
                EXPECT_EQ(sink.errors(), 0u)
                    << spec.label << " / " << label
                    << (rowClone ? " / rowclone" : "")
                    << ": " << [&] {
                           std::ostringstream os;
                           sink.writeText(os);
                           return os.str();
                       }();
            }
        }
    }
}

// ---- QueryService integration ----------------------------------------

namespace {

std::map<std::string, BitVector>
makeData(int count, std::size_t bits, std::uint64_t seed)
{
    std::map<std::string, BitVector> data;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        BitVector column(bits);
        column.randomize(rng);
        data.emplace(std::string("c") + std::to_string(i),
                     std::move(column));
    }
    return data;
}

} // namespace

class VerifyServiceTest : public ::testing::Test
{
  protected:
    VerifyServiceTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests()))
    {
    }

    /**
     * The seeded defect: forcing the SiMRA MAJ basis on a Samsung
     * design (2-row same-subarray capability) leaves the compiler
     * unclamped, so a 16-way AND lowers to a 32-row activation group
     * the decoder can never reach — a genuine UPL006 Error plan.
     */
    QueryTicket submitDefective(QueryService &service)
    {
        const auto *module =
            session_->findModule(Manufacturer::Samsung, 4, 'F', 2666);
        EXPECT_NE(module, nullptr);
        ExprPool pool;
        std::vector<ExprId> cols;
        for (int i = 0; i < 16; ++i)
            cols.push_back(
                pool.column(std::string("c") + std::to_string(i)));
        const PreparedQuery prepared =
            service.prepare(pool, pool.mkAnd(cols));
        const auto data = makeData(
            16,
            static_cast<std::size_t>(
                session_->config().geometry.columns),
            41);
        return service.submit({prepared.bind(data)}, *module);
    }

    std::shared_ptr<FleetSession> session_;
};

TEST_F(VerifyServiceTest, SubmitRejectsErrorPlan)
{
    EngineOptions options;
    options.backend = BackendChoice::SimraMaj;
    QueryService service(session_, options);
    try {
        submitDefective(service);
        FAIL() << "submit accepted an Error-bearing plan";
    } catch (const VerifyError &error) {
        ASSERT_NE(error.report().firstError(), nullptr);
        EXPECT_EQ(error.report().firstError()->rule, "UPL006");
        EXPECT_NE(std::string(error.what()).find(
                      "fails static verification"),
                  std::string::npos);
    }
}

TEST_F(VerifyServiceTest, EngineRunsTheRejectedPlanOnTheCpuFallback)
{
    // The plan submit rejects, derived as the plan cache derives it
    // and run straight through the engine: the unplaceable group
    // runs entirely on the CPU fallback, so the result still matches
    // golden.
    EngineOptions options;
    options.backend = BackendChoice::SimraMaj;
    const PudEngine engine(session_, options);
    const auto *module =
        session_->findModule(Manufacturer::Samsung, 4, 'F', 2666);
    ASSERT_NE(module, nullptr);
    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < 16; ++i)
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));
    Chip chip = session_->chip(*module);
    const MicroProgram program =
        engine.compileFor(pool, pool.mkAnd(cols), chip);
    const RowAllocator allocator(*session_, *module);
    const Placement placement = allocator.place(program);
    const DiagnosticSink verdict =
        verifyPlan(program, placement, chip, chip.temperature(),
                   chip.temperature());
    ASSERT_NE(verdict.firstError(), nullptr);
    EXPECT_EQ(verdict.firstError()->rule, "UPL006");

    const auto data = makeData(
        16,
        static_cast<std::size_t>(session_->config().geometry.columns),
        41);
    const QueryResult result =
        engine.execute(program, placement, allocator.maskTemperature(),
                       chip, 41, data);
    EXPECT_FALSE(result.placed);
    EXPECT_EQ(result.output, result.golden);
}

TEST_F(VerifyServiceTest, CapableChipSubmits)
{
    // The same forced-SimraMaj query on SK Hynix (32-row capability)
    // derives a clean plan: enforcement never rejects valid work.
    EngineOptions options;
    options.backend = BackendChoice::SimraMaj;
    QueryService service(session_, options);
    const auto *module =
        session_->findModule(Manufacturer::SkHynix, 4, 'M', 2666);
    ASSERT_NE(module, nullptr);
    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < 4; ++i)
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));
    const PreparedQuery prepared =
        service.prepare(pool, pool.mkAnd(cols));
    const auto data = makeData(
        4,
        static_cast<std::size_t>(session_->config().geometry.columns),
        17);
    QueryTicket ticket;
    ASSERT_NO_THROW(ticket =
                        service.submit({prepared.bind(data)}, *module));
    const BatchQueryResult batch = service.collect(ticket);
    EXPECT_EQ(batch.queries.front().modules.front().result.output,
              batch.queries.front().modules.front().result.golden);
}
