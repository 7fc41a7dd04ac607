#include "pud/allocator.hh"

#include <algorithm>
#include <cassert>
#include <functional>

#include "analog/successmodel.hh"
#include "dram/address.hh"
#include "dram/bank.hh"
#include "dram/openbitline.hh"
#include "dram/subarray.hh"
#include "fcdram/ops.hh"
#include "fcdram/reliablemask.hh"

namespace fcdram::pud {

const BitVector &
GateSlot::mask(BoolOp op) const
{
    switch (op) {
      case BoolOp::And:
        return andMask;
      case BoolOp::Or:
        return orMask;
      case BoolOp::Nand:
        return nandMask;
      case BoolOp::Nor:
        return norMask;
      case BoolOp::Not:
      case BoolOp::Maj3:
      case BoolOp::Maj5:
        break;
    }
    assert(false && "no mask for this op");
    return andMask;
}

double
GateSlot::score() const
{
    return ReliableMask::maskDensity(andMask) + ReliableMask::maskDensity(orMask) +
           ReliableMask::maskDensity(nandMask) + ReliableMask::maskDensity(norMask);
}

namespace {

/** Qualifying pairs ranked per gate width before choosing. */
constexpr int kCandidatePairsPerWidth = 8;

/**
 * Distinct pair slots kept per gate width, so independent gates of
 * one wave can be batched onto different subarray pairs.
 */
constexpr int kSlotsPerWidth = 2;

/** Probes used by direct (session-less) discovery. */
constexpr int kProbesPerPair = 4000;

/**
 * Threshold cut of a per-column success-probability vector. Columns
 * the mechanism does not reach (probability sentinel -1.0) never pass
 * any threshold, including 0.
 */
BitVector
thresholdMask(const std::vector<double> &probabilities,
              double thresholdPercent)
{
    if (probabilities.empty())
        return BitVector();
    BitVector mask(probabilities.size(), false);
    for (std::size_t col = 0; col < probabilities.size(); ++col) {
        mask.set(col, probabilities[col] >= 0.0 &&
                          100.0 * probabilities[col] >=
                              thresholdPercent);
    }
    return mask;
}

/**
 * The conditions a margin case pins: full neighbor-bitline
 * disagreement for Worst, none for Best, at the temperature the run
 * will execute at.
 */
OpConditions
conditionsFor(MarginCase marginCase, Celsius temperature)
{
    OpConditions cond;
    cond.couplingFraction = marginCase == MarginCase::Worst ? 1.0 : 0.0;
    cond.temperature = temperature;
    return cond;
}

/**
 * The one measured-row evaluation behind the four probability
 * vectors: each of @p columns of the executor's measured row
 * @p measuredGlobal succeeds with the cell probability at @p margin;
 * columns outside @p columns hold -1.0.
 */
std::vector<double>
measuredRowProbabilities(const Chip &chip, BankId bank,
                         const std::vector<ColId> &columns,
                         const std::function<StripeId(ColId)> &stripeOf,
                         int rowPairLoad, RowId measuredGlobal,
                         Volt margin)
{
    const SuccessModel &model = chip.model();
    std::vector<double> probabilities(
        static_cast<std::size_t>(chip.geometry().columns), -1.0);
    const ColumnVariation statics(model, bank, columns, stripeOf,
                                  rowPairLoad);
    statics.forEachCell(measuredGlobal,
                        [&](const auto &column, Volt offset) {
        probabilities[column.col] = model.cellSuccessProbability(
            margin, offset, column.structFail);
    });
    return probabilities;
}

/** Ranking key: the reliable density a slot offers. */
double
density(const GateSlot &slot)
{
    return slot.score();
}

double
density(const NotSlot &slot)
{
    return ReliableMask::maskDensity(slot.mask);
}

double
density(const MajSlot &slot)
{
    return ReliableMask::maskDensity(slot.mask);
}

} // namespace

std::vector<double>
logicSuccessProbabilities(const Chip &chip, BankId bank, BoolOp op,
                          RowId refGlobal, RowId comGlobal,
                          Celsius temperature, MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress ref = decomposeRow(geometry, refGlobal);
    const RowAddress com = decomposeRow(geometry, comGlobal);
    const ActivationSets sets =
        chip.decoder().neighborActivation(ref.localRow, com.localRow);
    // A gate needs two inputs (SuccessModel::logicMargin).
    if (!sets.simultaneous || sets.nrf() != sets.nrl() || sets.nrl() < 2)
        return {};
    const int n = sets.nrl();

    const Bank &bankRef = chip.bank(bank);
    const StripeId stripe = sharedStripe(ref.subarray, com.subarray);

    // The executor reads the first row of the measured side, so the
    // probabilities cover exactly that row's cells.
    const bool measureRef = isInvertedOp(op);
    const auto &rows = measureRef ? sets.firstRows : sets.secondRows;
    const SubarrayId rowSa = measureRef ? ref.subarray : com.subarray;
    const RowId measured = rows.front();

    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    ctx.cond = conditionsFor(marginCase, temperature);
    const Region own =
        bankRef.subarray(rowSa).regionFor(measured, stripe);
    const Region refRep = bankRef.subarray(ref.subarray)
                              .regionFor(ref.localRow, stripe);
    const Region comRep = bankRef.subarray(com.subarray)
                              .regionFor(com.localRow, stripe);
    ctx.refRegion = measureRef ? own : refRep;
    ctx.comRegion = measureRef ? comRep : own;

    // The sensing margin depends on how many operand rows carry
    // logic-1 at a column; a deployment mask must hold for every
    // count (take the minimum), while the optimistic interval side
    // may assume the easiest count (take the maximum).
    Volt extremeMargin = 0.0;
    for (int k = 0; k <= n; ++k) {
        ctx.numOnes = k;
        const Volt margin = chip.model().logicMargin(ctx);
        if (k == 0)
            extremeMargin = margin;
        else if (marginCase == MarginCase::Worst)
            extremeMargin = std::min(extremeMargin, margin);
        else
            extremeMargin = std::max(extremeMargin, margin);
    }
    return measuredRowProbabilities(
        chip, bank, sharedColumns(geometry, ref.subarray, com.subarray),
        [stripe](ColId) { return stripe; }, n,
        composeRow(geometry, rowSa, measured), extremeMargin);
}

std::vector<double>
notSuccessProbabilities(const Chip &chip, BankId bank, RowId srcGlobal,
                        RowId dstGlobal, Celsius temperature,
                        MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress src = decomposeRow(geometry, srcGlobal);
    const RowAddress dst = decomposeRow(geometry, dstGlobal);
    const ActivationSets sets =
        chip.decoder().neighborActivation(src.localRow, dst.localRow);
    if (!sets.simultaneous && !sets.sequential)
        return {};

    // The executor reads the first destination row of the activation.
    const Bank &bankRef = chip.bank(bank);
    const StripeId stripe = sharedStripe(src.subarray, dst.subarray);
    const RowId measured = sets.secondRows.front();
    const int total = sets.nrf() + sets.nrl();
    NotContext ctx;
    ctx.totalActivatedRows = total;
    ctx.srcRegion = bankRef.subarray(src.subarray)
                        .regionFor(src.localRow, stripe);
    ctx.dstRegion =
        bankRef.subarray(dst.subarray).regionFor(measured, stripe);
    ctx.cond = conditionsFor(marginCase, temperature);
    return measuredRowProbabilities(
        chip, bank, sharedColumns(geometry, src.subarray, dst.subarray),
        [stripe](ColId) { return stripe; }, (total + 1) / 2,
        composeRow(geometry, dst.subarray, measured),
        chip.model().notMargin(ctx));
}

std::vector<double>
rowCloneSuccessProbabilities(const Chip &chip, BankId bank,
                             RowId srcGlobal, RowId dstGlobal,
                             Celsius temperature, MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress src = decomposeRow(geometry, srcGlobal);
    const RowAddress dst = decomposeRow(geometry, dstGlobal);
    assert(src.subarray == dst.subarray);
    const auto set = chip.decoder().sameSubarrayActivation(
        src.localRow, dst.localRow);
    if (set.size() != 2)
        return {};

    const int total = static_cast<int>(set.size()) + 1;
    RowCloneContext ctx;
    ctx.activatedRows = static_cast<int>(set.size());
    ctx.cond = conditionsFor(marginCase, temperature);
    return measuredRowProbabilities(
        chip, bank, allColumns(geometry),
        [&](ColId col) { return stripeFor(dst.subarray, col); },
        (total + 1) / 2, dstGlobal, chip.model().rowCloneMargin(ctx));
}

std::vector<double>
majSuccessProbabilities(const Chip &chip, BankId bank, RowId rfGlobal,
                        RowId rlGlobal, int activatedRows,
                        Celsius temperature, MarginCase marginCase)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress rf = decomposeRow(geometry, rfGlobal);
    const RowAddress rl = decomposeRow(geometry, rlGlobal);
    assert(rf.subarray == rl.subarray);
    const auto set = chip.decoder().sameSubarrayActivation(
        rf.localRow, rl.localRow);
    if (static_cast<int>(set.size()) != activatedRows ||
        activatedRows < 2)
        return {};

    const SuccessModel &model = chip.model();
    MajContext ctx;
    ctx.activatedRows = activatedRows;
    ctx.neutralCells = 1;
    ctx.cond = conditionsFor(marginCase, temperature);
    Volt margin = 0.0;
    if (marginCase == MarginCase::Worst) {
        // The deciding vote of any hosted gate is one cell; the
        // just-above-half count sits on the penalized high-common-mode
        // side, so it lower-bounds both output polarities.
        ctx.numOnes = activatedRows / 2;
        margin = model.majMargin(ctx);
    } else {
        // Optimistic side: the easiest ones-count any hosted gate can
        // present (maximum margin over the non-neutral cells).
        for (int k = 0; k < activatedRows; ++k) {
            ctx.numOnes = k;
            const Volt candidate = model.majMargin(ctx);
            margin = k == 0 ? candidate : std::max(margin, candidate);
        }
    }
    return measuredRowProbabilities(
        chip, bank, allColumns(geometry),
        [&](ColId col) { return stripeFor(rf.subarray, col); },
        (activatedRows + 1) / 2,
        composeRow(geometry, rf.subarray, set.front()), margin);
}

RowAllocator::RowAllocator(const FleetSession &session,
                           const FleetSession::Module &module,
                           AllocatorOptions options,
                           std::optional<Celsius> maskTemperature)
    : session_(&session), module_(module),
      chip_(&session.chip(module)), seed_(module.seed),
      options_(options),
      temperature_(maskTemperature.value_or(chip_->temperature()))
{
}

RowAllocator::RowAllocator(const Chip &chip, std::uint64_t seed,
                           AllocatorOptions options)
    : chip_(&chip), seed_(seed), options_(options),
      temperature_(chip.temperature())
{
}

std::vector<PairContext>
RowAllocator::directContexts() const
{
    // Private chips get the exhaustive deterministic enumeration of
    // neighboring subarray pairs in bank 0.
    std::vector<PairContext> contexts;
    const int pairs = chip_->geometry().subarraysPerBank - 1;
    contexts.reserve(static_cast<std::size_t>(pairs));
    for (int low = 0; low < pairs; ++low) {
        PairContext context;
        context.bank = 0;
        context.lowSubarray = static_cast<SubarrayId>(low);
        contexts.push_back(context);
    }
    return contexts;
}

std::vector<std::pair<RowId, RowId>>
RowAllocator::discover(const PairContext &context,
                       const PairQuery &query) const
{
    if (session_ != nullptr)
        return session_->qualifyingPairs(module_, context, query);
    // Mirror the session's canonical discovery seed so direct and
    // session-backed allocation agree for the same chip seed.
    const std::uint64_t seed = hashCombine(
        seed_, hashCombine(query.key(),
                           0xD15CULL + context.bank * 977 +
                               context.lowSubarray * 131));
    return findQualifyingPairs(*chip_, context, query,
                               kProbesPerPair, kCandidatePairsPerWidth,
                               seed);
}

template <class Slot, class Build>
const std::vector<Slot> &
RowAllocator::rankSlots(std::map<int, std::vector<Slot>> &cache,
                        int key, const PairQuery &query,
                        const Build &build) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto cached = cache.find(key);
    if (cached != cache.end())
        return cached->second;

    if (contexts_.empty()) {
        contexts_ = session_ != nullptr
                        ? session_->pairContexts(module_)
                        : directContexts();
    }

    std::vector<Slot> slots;
    const auto full = [&] {
        return static_cast<int>(slots.size()) >=
               kCandidatePairsPerWidth;
    };
    for (const PairContext &context : contexts_) {
        if (full())
            break;
        for (const auto &[first, second] : discover(context, query)) {
            if (full())
                break;
            if (std::optional<Slot> slot = build(context, first, second))
                slots.push_back(std::move(*slot));
        }
    }

    // Reliability-aware placement: densest masks first. Stable sort
    // plus the deterministic candidate order keeps placement
    // reproducible across runs and worker counts.
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot &a, const Slot &b) {
                         return density(a) > density(b);
                     });
    if (static_cast<int>(slots.size()) > kSlotsPerWidth)
        slots.resize(static_cast<std::size_t>(kSlotsPerWidth));
    return cache.emplace(key, std::move(slots)).first->second;
}

const std::vector<GateSlot> &
RowAllocator::gateSlots(int width) const
{
    const GeometryConfig &geometry = chip_->geometry();
    const auto build = [&](const PairContext &context, RowId refAnchor,
                           RowId comAnchor) -> std::optional<GateSlot> {
        const RowAddress ref = decomposeRow(geometry, refAnchor);
        const RowAddress com = decomposeRow(geometry, comAnchor);
        const ActivationSets sets =
            chip_->decoder().neighborActivation(ref.localRow,
                                                com.localRow);
        GateSlot slot;
        slot.context = context;
        slot.refAnchor = refAnchor;
        slot.comAnchor = comAnchor;
        slot.width = width;
        for (const RowId local : sets.firstRows)
            slot.refRows.push_back(composeRow(geometry, ref.subarray, local));
        for (const RowId local : sets.secondRows) {
            slot.computeRows.push_back(
                composeRow(geometry, com.subarray, local));
        }
        // Staging rows for RowClone copy-in, pairwise disjoint and
        // clear of the activation set; donors share the fracInit
        // XOR-flip search.
        std::vector<RowId> avoid(sets.secondRows);
        for (const RowId local : sets.secondRows) {
            const RowId donor =
                findPairActivatingDonor(*chip_, local, avoid);
            if (donor == kInvalidRow) {
                slot.stagingRows.push_back(kInvalidRow);
                slot.stagingMasks.emplace_back();
                continue;
            }
            avoid.push_back(donor);
            const RowId donorGlobal =
                composeRow(geometry, com.subarray, donor);
            slot.stagingRows.push_back(donorGlobal);
            slot.stagingMasks.push_back(thresholdMask(
                rowCloneSuccessProbabilities(
                    *chip_, context.bank, donorGlobal,
                    composeRow(geometry, com.subarray, local),
                    temperature_, MarginCase::Worst),
                options_.maskThresholdPercent));
        }
        const auto logicMask = [&](BoolOp op) {
            return thresholdMask(
                logicSuccessProbabilities(*chip_, context.bank, op,
                                          refAnchor, comAnchor,
                                          temperature_,
                                          MarginCase::Worst),
                options_.maskThresholdPercent);
        };
        slot.andMask = logicMask(BoolOp::And);
        slot.orMask = logicMask(BoolOp::Or);
        slot.nandMask = logicMask(BoolOp::Nand);
        slot.norMask = logicMask(BoolOp::Nor);
        return slot;
    };
    return rankSlots(slotsByWidth_, width, PairQuery::square(width),
                     build);
}

const std::vector<NotSlot> &
RowAllocator::notSlots() const
{
    const auto build = [&](const PairContext &context, RowId src,
                           RowId dst) -> std::optional<NotSlot> {
        NotSlot slot;
        slot.context = context;
        slot.srcRow = src;
        slot.dstRow = dst;
        slot.mask = thresholdMask(
            notSuccessProbabilities(*chip_, context.bank, src, dst,
                                    temperature_, MarginCase::Worst),
            options_.maskThresholdPercent);
        return slot;
    };
    // Any activation reaching exactly one destination row performs
    // NOT (simultaneous or sequential, so Samsung designs place too).
    return rankSlots(notSlots_, 1, PairQuery::anyWithDest(1), build);
}

const std::vector<MajSlot> &
RowAllocator::majSlots(int activatedRows) const
{
    const GeometryConfig &geometry = chip_->geometry();
    const auto build = [&](const PairContext &context, RowId rfAnchor,
                           RowId rlAnchor) -> std::optional<MajSlot> {
        const RowAddress rf = decomposeRow(geometry, rfAnchor);
        const auto set = chip_->decoder().sameSubarrayActivation(
            rf.localRow, decomposeRow(geometry, rlAnchor).localRow);
        if (static_cast<int>(set.size()) != activatedRows)
            return std::nullopt;
        MajSlot slot;
        slot.context = context;
        slot.rfAnchor = rfAnchor;
        slot.rlAnchor = rlAnchor;
        slot.activatedRows = activatedRows;
        for (const RowId local : set)
            slot.rows.push_back(composeRow(geometry, rf.subarray, local));
        slot.mask = thresholdMask(
            majSuccessProbabilities(*chip_, context.bank, rfAnchor,
                                    rlAnchor, activatedRows,
                                    temperature_, MarginCase::Worst),
            options_.maskThresholdPercent);
        return slot;
    };
    return rankSlots(majSlotsByRows_, activatedRows,
                     PairQuery::sameSubarray(activatedRows), build);
}

Placement
RowAllocator::place(const MicroProgram &program) const
{
    Placement placement;
    placement.gateSlotOf.assign(program.ops.size(), -1);
    placement.notSlotOf.assign(program.ops.size(), -1);
    placement.majSlotOf.assign(program.ops.size(), -1);

    // (wave, shape) round-robin: independent ops of one wave spread
    // over the ranked slots (distinct subarray pairs when available),
    // and each (shape, rank) slot enters the placement once.
    std::map<std::pair<int, int>, std::size_t> rotation;
    std::map<std::pair<int, std::size_t>, int> used;
    const auto assign = [&](const MicroOp &op, int turnKey, int slotKey,
                            const auto &ranked, auto &placed) {
        if (ranked.empty()) {
            placement.complete = false;
            return -1;
        }
        const std::size_t rank =
            rotation[{op.wave, turnKey}]++ % ranked.size();
        const auto [it, added] = used.try_emplace(
            {slotKey, rank}, static_cast<int>(placed.size()));
        if (added)
            placed.push_back(ranked[rank]);
        return it->second;
    };

    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const MicroOp &op = program.ops[i];
        switch (op.kind) {
          case MicroOpKind::Wide:
            placement.gateSlotOf[i] =
                assign(op, op.width(), op.width(),
                       gateSlots(op.width()), placement.gateSlots);
            break;
          case MicroOpKind::Not:
            placement.notSlotOf[i] =
                assign(op, 1, -1, notSlots(), placement.notSlots);
            break;
          case MicroOpKind::Maj:
            placement.majSlotOf[i] = assign(
                op, -op.activatedRows, -op.activatedRows - 1,
                majSlots(op.activatedRows), placement.majSlots);
            break;
          case MicroOpKind::Load:
            break;
        }
    }
    return placement;
}

} // namespace fcdram::pud
