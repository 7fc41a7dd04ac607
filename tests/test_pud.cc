#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/openbitline.hh"
#include "fcdram/reliablemask.hh"
#include "fcdram/session.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"
#include "pud/engine.hh"
#include "pud/expr.hh"
#include "pud/service.hh"
#include "testutil.hh"

namespace fcdram {
namespace {

using namespace fcdram::pud;

/**
 * PuD engine tests: expression canonicalization and CSE, wide-gate
 * fusion in the compiler, reliability-aware placement, and end-to-end
 * execution against the CPU golden model — exact on an ideal chip,
 * exact-on-masked-columns on the noisy fleet designs.
 */

std::vector<ExprId>
makeColumns(ExprPool &pool, int count)
{
    std::vector<ExprId> ids;
    for (int i = 0; i < count; ++i)
        ids.push_back(pool.column(std::string("c") + std::to_string(i)));
    return ids;
}

std::map<std::string, BitVector>
makeData(int count, std::size_t bits, std::uint64_t seed)
{
    std::map<std::string, BitVector> data;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        BitVector column(bits);
        column.randomize(rng);
        data.emplace(std::string("c") + std::to_string(i), std::move(column));
    }
    return data;
}

/** Largest Wide/Maj gate width of @p program (0 if none). */
int
maxFanIn(const MicroProgram &program)
{
    int widest = 0;
    for (const MicroOp &op : program.ops) {
        if (op.kind == MicroOpKind::Wide || op.kind == MicroOpKind::Maj)
            widest = std::max(widest, op.width());
    }
    return widest;
}

TEST(ExprPoolTest, InterningDeduplicatesStructurally)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 3);
    EXPECT_EQ(pool.column("c0"), cols[0]);
    // Commutativity: operand order does not matter.
    EXPECT_EQ(pool.mkAnd({cols[0], cols[1]}),
              pool.mkAnd({cols[1], cols[0]}));
    // Associativity: nested ANDs flatten to one wide node.
    const ExprId nested =
        pool.mkAnd(pool.mkAnd(cols[0], cols[1]), cols[2]);
    const ExprId flat = pool.mkAnd({cols[0], cols[1], cols[2]});
    EXPECT_EQ(nested, flat);
    EXPECT_EQ(pool.node(flat).operands.size(), 3u);
    // Idempotence: duplicates collapse.
    EXPECT_EQ(pool.mkAnd({cols[0], cols[0]}), cols[0]);
}

TEST(ExprPoolTest, NotCanonicalizesThroughDeMorganTwins)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const ExprId conj = pool.mkAnd(cols[0], cols[1]);
    const ExprId nand = pool.mkNand({cols[0], cols[1]});
    EXPECT_EQ(pool.mkNot(conj), nand);
    EXPECT_EQ(pool.mkNot(nand), conj);
    EXPECT_EQ(pool.mkNot(pool.mkNot(cols[0])), cols[0]);
    const ExprId disj = pool.mkOr(cols[0], cols[1]);
    EXPECT_EQ(pool.mkNot(disj), pool.mkNor({cols[0], cols[1]}));
}

TEST(ExprPoolTest, EvaluateMatchesBitwiseSemantics)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 3);
    const auto data = makeData(3, 64, 7);
    const BitVector &a = data.at("c0");
    const BitVector &b = data.at("c1");
    const BitVector &c = data.at("c2");

    EXPECT_EQ(pool.evaluate(pool.mkAnd({cols[0], cols[1], cols[2]}),
                            data),
              a & b & c);
    EXPECT_EQ(pool.evaluate(pool.mkNor({cols[0], cols[1]}), data),
              ~(a | b));
    EXPECT_EQ(pool.evaluate(pool.mkXor(cols[0], cols[1]), data),
              a ^ b);
    const ExprId filter = pool.mkOr(
        pool.mkAnd(cols[0], pool.mkNot(cols[1])), cols[2]);
    EXPECT_EQ(pool.evaluate(filter, data), (a & ~b) | c);
    EXPECT_EQ(pool.columnsOf(filter),
              (std::vector<std::string>{"c0", "c1", "c2"}));
}

TEST(CompilerTest, FusesWideGatesUpToSixteenInputs)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 16);
    const ExprId root = pool.mkAnd(cols);

    const MicroProgram fused =
        Compiler(CompilerOptions{16}).compile(pool, root);
    EXPECT_EQ(fused.wideOps(), 1);
    EXPECT_EQ(maxFanIn(fused), 16);
    EXPECT_EQ(fused.numWaves, 2); // Loads, then one gate.

    // The fusion ablation: 2-input gates need a 15-gate tree.
    const MicroProgram chained =
        Compiler(CompilerOptions{2}).compile(pool, root);
    EXPECT_EQ(chained.wideOps(), 15);
    EXPECT_EQ(maxFanIn(chained), 2);
    EXPECT_GT(chained.numWaves, fused.numWaves);
}

TEST(CompilerTest, SplitsBeyondSixteenInputs)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 20);
    const MicroProgram program =
        Compiler(CompilerOptions{16}).compile(pool, pool.mkAnd(cols));
    // 20 inputs: one 16-wide gate, one 4-wide gate, one 2-wide join.
    EXPECT_EQ(program.wideOps(), 3);
    EXPECT_EQ(maxFanIn(program), 16);
}

TEST(CompilerTest, NandRidesFreeOnTheAndGate)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    // AND(a, b) and NAND(a, b) in one query: a single execution.
    const ExprId root =
        pool.mkOr(pool.mkAnd(cols[0], cols[1]),
                  pool.mkNand({cols[0], cols[1]}));
    const MicroProgram program =
        Compiler(CompilerOptions{16}).compile(pool, root);
    int both = 0;
    for (const MicroOp &op : program.ops) {
        if (op.kind == MicroOpKind::Wide &&
            op.computeValue != kNoValue &&
            op.referenceValue != kNoValue)
            ++both;
    }
    EXPECT_EQ(both, 1) << "AND and NAND must share one gate";
    EXPECT_EQ(program.wideOps(), 2); // Shared gate + the OR join.
}

TEST(CompilerTest, XorLowersThroughTheFreeNand)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const MicroProgram program = Compiler(CompilerOptions{16})
                                     .compile(pool, pool.mkXor(cols[0],
                                                               cols[1]));
    // AND (reference side only), OR, and the combining AND.
    EXPECT_EQ(program.wideOps(), 3);
    EXPECT_EQ(program.notOps(), 0);

    const auto data = makeData(2, 32, 3);
    const auto values = goldenValues(program, data);
    EXPECT_EQ(values[program.result],
              data.at("c0") ^ data.at("c1"));
}

TEST(CompilerTest, GoldenValuesMatchPoolEvaluation)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 5);
    const ExprId root = pool.mkOr(
        pool.mkAnd({cols[0], cols[1], cols[2]}),
        pool.mkXor(cols[3], pool.mkNot(cols[4])));
    const auto data = makeData(5, 48, 11);
    for (const ComputeBackend backend :
         {ComputeBackend::NandNor, ComputeBackend::SimraMaj}) {
        for (const int width : {2, 4, 16}) {
            const MicroProgram program =
                Compiler(CompilerOptions{width, backend})
                    .compile(pool, root);
            const auto values = goldenValues(program, data);
            EXPECT_EQ(values[program.result],
                      pool.evaluate(root, data))
                << toString(backend) << " maxGateInputs=" << width;
        }
    }
}

TEST(CompilerTest, XorLowersToLogDepthTree)
{
    // The regression: a left fold chained 15 dependent XOR steps (31
    // waves); the balanced tree schedules XOR-16 in 4 levels of 2
    // waves each plus the load wave.
    ExprPool pool;
    const auto cols = makeColumns(pool, 16);
    const MicroProgram program = Compiler(CompilerOptions{16}).compile(
        pool, pool.mkXor(cols));
    EXPECT_LE(program.numWaves, 9);

    const auto data = makeData(16, 32, 19);
    const auto values = goldenValues(program, data);
    EXPECT_EQ(values[program.result],
              pool.evaluate(pool.mkXor(cols), data));
}

TEST(CompilerTest, MajBackendLowersAndOrToInputBiasedMaj)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 8);
    const MicroProgram program =
        Compiler(CompilerOptions{16, ComputeBackend::SimraMaj})
            .compile(pool, pool.mkAnd(cols));
    EXPECT_EQ(program.backend, ComputeBackend::SimraMaj);
    EXPECT_EQ(program.wideOps(), 0);
    ASSERT_EQ(program.majOps(), 1);
    for (const MicroOp &op : program.ops) {
        if (op.kind != MicroOpKind::Maj)
            continue;
        // AND-8 = MAJ15(8 operands, 7 zeros) + 1 Frac tiebreaker on
        // a 16-row activation group (Buddy-RAM input biasing).
        EXPECT_EQ(op.width(), 8);
        EXPECT_EQ(op.constantZeros, 7);
        EXPECT_EQ(op.constantOnes, 0);
        EXPECT_EQ(op.neutralRows, 1);
        EXPECT_EQ(op.activatedRows, 16);
    }

    // NAND on the MAJ basis pays an explicit NOT (no free twin).
    const MicroProgram nand =
        Compiler(CompilerOptions{16, ComputeBackend::SimraMaj})
            .compile(pool, pool.mkNand({cols[0], cols[1]}));
    EXPECT_EQ(nand.majOps(), 1);
    EXPECT_EQ(nand.notOps(), 1);
}

TEST(CompilerTest, MajExpressionNativeOnSimraExpandedOnNandNor)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 5);
    const ExprId maj3 = pool.mkMaj({cols[0], cols[1], cols[2]});
    const ExprId maj5 = pool.mkMaj(
        {cols[0], cols[1], cols[2], cols[3], cols[4]});

    const MicroProgram native =
        Compiler(CompilerOptions{16, ComputeBackend::SimraMaj})
            .compile(pool, maj3);
    EXPECT_EQ(native.majOps(), 1);
    EXPECT_EQ(native.ops.back().activatedRows, 4);

    // The NandNor basis needs the sum-of-products expansion: 3 AND-2
    // gates plus a 2-level OR join (gate widths snap to powers of
    // two, the only N:N shapes the substrate activates).
    const MicroProgram expanded =
        Compiler(CompilerOptions{16, ComputeBackend::NandNor})
            .compile(pool, maj3);
    EXPECT_EQ(expanded.majOps(), 0);
    EXPECT_EQ(expanded.wideOps(), 5);

    const auto data = makeData(5, 40, 23);
    for (const ExprId root : {maj3, maj5}) {
        for (const ComputeBackend backend :
             {ComputeBackend::NandNor, ComputeBackend::SimraMaj}) {
            const MicroProgram program =
                Compiler(CompilerOptions{16, backend})
                    .compile(pool, root);
            const auto values = goldenValues(program, data);
            EXPECT_EQ(values[program.result],
                      pool.evaluate(root, data))
                << toString(backend);
        }
    }
}

TEST(VoteSetTest, RejectsShortReadback)
{
    // The regression: a short readback used to count missing columns
    // as 0-votes silently; now it is a hard error.
    VoteSet votes(8);
    votes.add(BitVector(8, true));
    EXPECT_THROW(votes.add(BitVector(4, true)),
                 std::invalid_argument);
    EXPECT_THROW(votes.add(BitVector(9, true)),
                 std::invalid_argument);
    EXPECT_TRUE(votes.majority(0, 1));
}

TEST(VoteSetTest, WordParallelMajorityMatchesPerColumn)
{
    // The bit-sliced counter planes must agree with the per-column
    // accessor for every column and every trial count.
    constexpr std::size_t kColumns = 130; // Crosses word boundaries.
    for (const int trials : {1, 3, 5, 7}) {
        VoteSet votes(kColumns);
        Rng rng(static_cast<std::uint64_t>(trials));
        std::vector<int> reference(kColumns, 0);
        for (int t = 0; t < trials; ++t) {
            BitVector sample(kColumns);
            sample.randomize(rng);
            votes.add(sample);
            for (std::size_t col = 0; col < kColumns; ++col)
                reference[col] += sample.get(col) ? 1 : 0;
        }
        const BitVector majority = votes.majorityBits(trials);
        ASSERT_EQ(majority.size(), kColumns);
        for (std::size_t col = 0; col < kColumns; ++col) {
            EXPECT_EQ(majority.get(col), 2 * reference[col] > trials)
                << "trials=" << trials << " col=" << col;
            EXPECT_EQ(votes.majority(col, trials),
                      2 * reference[col] > trials)
                << "trials=" << trials << " col=" << col;
        }
    }
}

class PudEngineTest : public ::testing::Test
{
  protected:
    PudEngineTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests()))
    {
    }

    /** Ideal chip sharing the session geometry (exact operations). */
    Chip idealChip(std::uint64_t seed = 21) const
    {
        return session_->checkoutChip(test::idealProfile(), seed);
    }

    std::size_t bits() const
    {
        return static_cast<std::size_t>(
            session_->config().geometry.columns);
    }

    std::shared_ptr<FleetSession> session_;
};

TEST_F(PudEngineTest, IdealChipComputesExactly)
{
    PudEngine engine(session_);
    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 5);
    Chip chip = idealChip();

    for (const ExprId root :
         {pool.mkAnd(cols), pool.mkOr(cols),
          pool.mkNand({cols[0], cols[1], cols[2], cols[3]}),
          pool.mkNor({cols[0], cols[1]}),
          pool.mkXor(cols[0], cols[1]),
          pool.mkNot(cols[0]),
          pool.mkOr(pool.mkAnd(cols[0], pool.mkNot(cols[1])),
                    pool.mkAnd(cols[2], cols[3]))}) {
        const QueryResult result =
            test::runOnChip(engine, chip, 17, pool, root, data);
        EXPECT_TRUE(result.placed) << pool.toString(root);
        EXPECT_EQ(result.output, result.golden)
            << pool.toString(root);
        EXPECT_EQ(result.matchingBits, result.checkedBits)
            << pool.toString(root);
        EXPECT_GT(result.checkedBits, 0u) << pool.toString(root);
        EXPECT_GT(result.dram.commands, 0u);
    }
}

TEST_F(PudEngineTest, WideGateFusionCutsCommands)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 16);
    const ExprId root = pool.mkAnd(cols);
    const auto data = makeData(16, bits(), 9);
    Chip chip = idealChip();

    EngineOptions fusedOptions;
    fusedOptions.maxGateInputs = 16;
    EngineOptions chainedOptions;
    chainedOptions.maxGateInputs = 2;

    const QueryResult fused = test::runOnChip(
        PudEngine(session_, fusedOptions), chip, 23, pool, root, data);
    const QueryResult chained = test::runOnChip(
        PudEngine(session_, chainedOptions), chip, 23, pool, root, data);

    ASSERT_TRUE(fused.placed);
    ASSERT_TRUE(chained.placed);
    EXPECT_EQ(fused.output, fused.golden);
    EXPECT_EQ(chained.output, chained.golden);
    // The acceptance property: one 16-input gate beats the 15-gate
    // 2-input tree outright.
    EXPECT_LT(fused.dram.commands, chained.dram.commands);
    EXPECT_LT(fused.dram.latencyNs, chained.dram.latencyNs);
    EXPECT_LT(fused.dram.energyNj, chained.dram.energyNj);
}

TEST_F(PudEngineTest, RowCloneCopyInMatchesHostWriteOnIdealChip)
{
    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const ExprId root = pool.mkAnd(cols);
    const auto data = makeData(4, bits(), 13);
    Chip chip = idealChip();

    EngineOptions cloneOptions;
    cloneOptions.copyIn = CopyInMode::RowClone;
    const QueryResult viaClone = test::runOnChip(
        PudEngine(session_, cloneOptions), chip, 29, pool, root, data);
    const QueryResult viaWrite =
        test::runOnChip(PudEngine(session_), chip, 29, pool, root, data);

    ASSERT_TRUE(viaClone.placed);
    EXPECT_EQ(viaClone.output, viaClone.golden);
    EXPECT_EQ(viaClone.output, viaWrite.output);
    EXPECT_EQ(viaClone.matchingBits, viaClone.checkedBits);
}

TEST_F(PudEngineTest, RedundancyVotingIsExactOnIdealChip)
{
    EngineOptions options;
    options.redundancy = 3;
    PudEngine engine(session_, options);
    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 31);
    Chip chip = idealChip();
    const QueryResult result =
        test::runOnChip(engine, chip, 37, pool, pool.mkAnd(cols), data);
    EXPECT_EQ(result.output, result.golden);
    // Triple execution triples the per-query command count.
    const QueryResult single =
        test::runOnChip(PudEngine(session_), chip, 37, pool,
                        pool.mkAnd(cols), data);
    EXPECT_EQ(result.dram.commands, 3 * single.dram.commands);
}

TEST_F(PudEngineTest, AllocatorPlacementIsReliabilityAware)
{
    const auto &module =
        session_->modules(FleetSession::Fleet::SkHynix).front();
    const RowAllocator allocator(*session_, module);
    const auto &slots = allocator.gateSlots(2);
    ASSERT_FALSE(slots.empty());
    const GeometryConfig &geometry = session_->config().geometry;
    for (const GateSlot &slot : slots) {
        EXPECT_EQ(slot.width, 2);
        EXPECT_EQ(slot.refRows.size(), 2u);
        EXPECT_EQ(slot.computeRows.size(), 2u);
        // Masks are confined to the pair's shared columns.
        const auto shared = sharedColumns(
            geometry, slot.context.lowSubarray,
            static_cast<SubarrayId>(slot.context.lowSubarray + 1));
        BitVector sharedMask(
            static_cast<std::size_t>(geometry.columns), false);
        for (const ColId col : shared)
            sharedMask.set(col, true);
        EXPECT_EQ(slot.andMask & sharedMask, slot.andMask);
        EXPECT_EQ(slot.orMask & sharedMask, slot.orMask);
    }
    // Ranked by reliability: densest masks first.
    for (std::size_t i = 1; i < slots.size(); ++i)
        EXPECT_GE(slots[i - 1].score(), slots[i].score());
}

TEST_F(PudEngineTest, NoisyFleetModuleMatchesGoldenOnMaskedColumns)
{
    // The deployment contract on real (noisy) designs: every column
    // the engine trusts to DRAM matches the CPU golden model. Pinned
    // to the NAND/NOR basis: at the scaled-down test campaign this
    // module's worst-case SiMRA masks are empty (checkedBits would
    // be 0 — the parity test below covers the MAJ basis contract).
    EngineOptions options;
    options.redundancy = 3;
    options.backend = BackendChoice::NandNor;
    QueryService service(session_, options);
    const auto *module =
        session_->findModule(Manufacturer::SkHynix, 4, 'A', 2133);
    ASSERT_NE(module, nullptr);

    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 41);
    for (const ExprId root : {pool.mkAnd(cols), pool.mkOr(cols)}) {
        const PreparedQuery prepared = service.prepare(pool, root);
        const QueryTicket ticket =
            service.submit({prepared.bind(data)}, *module);
        BatchQueryResult batch = service.collect(ticket);
        const QueryResult &result =
            batch.queries.front().modules.front().result;
        EXPECT_TRUE(result.placed);
        EXPECT_GT(result.checkedBits, 0u);
        EXPECT_EQ(result.matchingBits, result.checkedBits)
            << pool.toString(root);
        EXPECT_EQ(result.output, result.golden)
            << "per-column CPU fallback must repair the rest";
    }
}

TEST_F(PudEngineTest, EvenRedundancyIsRejectedAtConstruction)
{
    // Majority voting with an even trial count resolves ties to 0;
    // the engine enforces the odd-trial contract at the API boundary
    // (not just via a debug assert).
    for (const int redundancy : {0, 2, 4, -1}) {
        EngineOptions options;
        options.redundancy = redundancy;
        EXPECT_THROW(PudEngine(session_, options),
                     std::invalid_argument)
            << "redundancy=" << redundancy;
    }
}

TEST_F(PudEngineTest, StaleTemperatureMasksAreRejected)
{
    // Allocator masks bake in the chip temperature they were derived
    // at; executing at another temperature must not silently trust
    // them.
    PudEngine engine(session_);
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const ExprId root = pool.mkAnd(cols);
    const auto data = makeData(2, bits(), 43);
    Chip chip = idealChip();

    const RowAllocator allocator(chip, 17);
    EXPECT_EQ(allocator.maskTemperature(), chip.temperature());
    const MicroProgram program =
        Compiler(CompilerOptions{}).compile(pool, root);
    const Placement placement = allocator.place(program);
    chip.setTemperature(chip.temperature() + 20.0);
    EXPECT_THROW(engine.execute(program, placement,
                                allocator.maskTemperature(), chip, 17,
                                data),
                 std::invalid_argument);

    // A fresh allocator derived from the hot chip re-derives the
    // masks, so the same query runs instead of rejecting.
    const QueryResult result =
        test::runOnChip(engine, chip, 17, pool, root, data);
    EXPECT_EQ(result.output, result.golden);
}

TEST_F(PudEngineTest, AutoBackendResolvesFromProfiledCapability)
{
    EngineOptions options;
    options.backend = BackendChoice::Auto;
    PudEngine engine(session_, options);
    const auto backendOn = [&](const ChipProfile &profile) {
        return engine.backendCapability(session_->checkoutChip(profile, 21))
            .first;
    };
    EXPECT_EQ(backendOn(test::idealProfile()), ComputeBackend::SimraMaj);
    EXPECT_EQ(backendOn(ChipProfile::make(Manufacturer::Samsung, 8, 'A',
                                          8, 2666)),
              ComputeBackend::NandNor);
    EXPECT_EQ(backendOn(ChipProfile::make(Manufacturer::Micron, 8, 'B',
                                          8, 2666)),
              ComputeBackend::NandNor);
}

TEST_F(PudEngineTest, BackendsAgreeOnIdealChip)
{
    // Backend parity: every query computes exactly on the ideal chip
    // on both bases, and the hybrid outputs are identical.
    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 47);

    const std::vector<ExprId> queries = {
        pool.mkAnd(cols),
        pool.mkOr(cols),
        pool.mkNand({cols[0], cols[1], cols[2], cols[3]}),
        pool.mkNor({cols[0], cols[1]}),
        pool.mkXor(cols[0], cols[1]),
        pool.mkNot(cols[0]),
        pool.mkMaj({cols[0], cols[1], cols[2]}),
        pool.mkOr(pool.mkAnd(cols[0], pool.mkNot(cols[1])),
                  pool.mkAnd(cols[2], cols[3])),
    };

    for (const ExprId root : queries) {
        QueryResult results[2];
        int index = 0;
        for (const BackendChoice choice :
             {BackendChoice::NandNor, BackendChoice::SimraMaj}) {
            EngineOptions options;
            options.backend = choice;
            Chip chip = idealChip();
            const QueryResult result = test::runOnChip(
                PudEngine(session_, options), chip, 53, pool, root, data);
            EXPECT_TRUE(result.placed)
                << toString(choice) << " " << pool.toString(root);
            EXPECT_EQ(result.output, result.golden)
                << toString(choice) << " " << pool.toString(root);
            EXPECT_EQ(result.matchingBits, result.checkedBits);
            results[index++] = result;
        }
        EXPECT_EQ(results[0].output, results[1].output)
            << pool.toString(root);
        EXPECT_EQ(results[0].backend, ComputeBackend::NandNor);
        EXPECT_EQ(results[1].backend, ComputeBackend::SimraMaj);
    }
}

TEST_F(PudEngineTest, BackendsMatchGoldenOnNoisyModule)
{
    // The deployment contract holds on real (noisy) designs for both
    // backends: every column either backend trusts to DRAM matches
    // the CPU golden model.
    const auto *module =
        session_->findModule(Manufacturer::SkHynix, 4, 'A', 2133);
    ASSERT_NE(module, nullptr);

    ExprPool pool;
    const auto cols = makeColumns(pool, 4);
    const auto data = makeData(4, bits(), 59);
    for (const ExprId root :
         {pool.mkAnd(cols), pool.mkOr(cols),
          pool.mkMaj({cols[0], cols[1], cols[2]})}) {
        for (const BackendChoice choice :
             {BackendChoice::NandNor, BackendChoice::SimraMaj}) {
            EngineOptions options;
            options.backend = choice;
            options.redundancy = 3;
            QueryService service(session_, options);
            BatchQueryResult batch = service.collect(service.submit(
                {service.prepare(pool, root).bind(data)}, *module));
            const QueryResult &result =
                batch.queries.front().modules.front().result;
            EXPECT_TRUE(result.placed)
                << toString(choice) << " " << pool.toString(root);
            EXPECT_EQ(result.matchingBits, result.checkedBits)
                << toString(choice) << " " << pool.toString(root);
            EXPECT_EQ(result.output, result.golden)
                << "per-column CPU fallback must repair the rest";
        }
    }
}

TEST_F(PudEngineTest, FanInClampsToDecoderCapability)
{
    // tinyGeometry subarrays have 32 rows: the decoder caps SiMRA
    // groups at 8 rows (4-input gates) regardless of what the
    // profile promises. An 8-wide AND must compile to a placeable
    // tree of clamped gates, not one unplaceable 16-row gate.
    Chip chip(test::idealProfile(), test::tinyGeometry(), 21);
    ASSERT_EQ(chip.decoder().maxSameSubarrayRows(), 8);

    EngineOptions options;
    options.backend = BackendChoice::SimraMaj;
    PudEngine engine(session_, options);
    const auto [backend, capability] = engine.backendCapability(chip);
    EXPECT_EQ(backend, ComputeBackend::SimraMaj);
    EXPECT_EQ(capability, 4);

    ExprPool pool;
    const auto cols = makeColumns(pool, 8);
    const auto data = makeData(
        8, static_cast<std::size_t>(chip.geometry().columns), 61);
    const QueryResult result =
        test::runOnChip(engine, chip, 19, pool, pool.mkAnd(cols), data);
    EXPECT_TRUE(result.placed);
    EXPECT_GT(result.majOps, 1);
    EXPECT_EQ(result.output, result.golden);
}

TEST_F(PudEngineTest, MajBackendPlacesOnSimraGroups)
{
    // The allocator serves N-row operand groups (not subarray
    // pairs) to the SiMRA backend.
    const auto &module =
        session_->modules(FleetSession::Fleet::SkHynix).front();
    const RowAllocator allocator(*session_, module);
    const auto &slots = allocator.majSlots(4);
    ASSERT_FALSE(slots.empty());
    for (const MajSlot &slot : slots) {
        EXPECT_EQ(slot.activatedRows, 4);
        EXPECT_EQ(slot.rows.size(), 4u);
        // Ranked by mask density.
    }
    for (std::size_t i = 1; i < slots.size(); ++i) {
        EXPECT_GE(ReliableMask::maskDensity(slots[i - 1].mask),
                  ReliableMask::maskDensity(slots[i].mask));
    }
}

TEST_F(PudEngineTest, FleetRunIsDeterministicAcrossWorkerCounts)
{
    // Exercises the prepared-query lifecycle end to end over a fleet
    // slice; the richer service-level determinism coverage lives in
    // test_queryservice.cc.
    ExprPool pool;
    const auto cols = makeColumns(pool, 2);
    const ExprId root = pool.mkAnd(cols);

    CampaignConfig serial = CampaignConfig::forTests();
    serial.workers = 1;
    CampaignConfig parallel = CampaignConfig::forTests();
    parallel.workers = 4;

    const auto fleetOnce = [&](const CampaignConfig &config) {
        QueryService service(std::make_shared<FleetSession>(config));
        const QueryTicket ticket = service.submit(
            {service.prepare(pool, root).bindSeeded()},
            FleetSession::Fleet::SkHynix);
        return std::move(service.collect(ticket).queries.front());
    };
    const FleetQueryStats a = fleetOnce(serial);
    const FleetQueryStats b = fleetOnce(parallel);

    ASSERT_EQ(a.modules.size(), b.modules.size());
    ASSERT_FALSE(a.modules.empty());
    for (std::size_t i = 0; i < a.modules.size(); ++i) {
        EXPECT_EQ(a.modules[i].moduleIndex, b.modules[i].moduleIndex);
        EXPECT_EQ(a.modules[i].result.output,
                  b.modules[i].result.output);
        EXPECT_EQ(a.modules[i].result.dram.commands,
                  b.modules[i].result.dram.commands);
    }
    EXPECT_EQ(a.checkedBits(), b.checkedBits());
    EXPECT_EQ(a.matchingBits(), b.matchingBits());
}

} // namespace
} // namespace fcdram
