#include "pud/allocator.hh"

#include <algorithm>
#include <cassert>

#include "analog/successmodel.hh"
#include "dram/address.hh"
#include "dram/bank.hh"
#include "dram/openbitline.hh"
#include "dram/subarray.hh"
#include "fcdram/analytic.hh"
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
    if (!sets.simultaneous || sets.nrf() != sets.nrl())
        return {};
    const int n = sets.nrl();

    const SuccessModel &model = chip.model();
    const Bank &bankRef = chip.bank(bank);
    const StripeId stripe = sharedStripe(ref.subarray, com.subarray);
    const auto columns =
        sharedColumns(geometry, ref.subarray, com.subarray);

    // The executor reads the first row of the measured side, so the
    // probabilities cover exactly that row's cells.
    const bool measureRef = isInvertedOp(op);
    const auto &rows = measureRef ? sets.firstRows : sets.secondRows;
    const SubarrayId rowSa = measureRef ? ref.subarray : com.subarray;
    const Subarray &rowSub = bankRef.subarray(rowSa);
    const RowId measured = rows.front();

    LogicContext ctx;
    ctx.op = op;
    ctx.numInputs = n;
    // Worst: full neighbor-bitline disagreement; Best: none.
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    // Trust columns at the temperature the run will execute at.
    ctx.cond.temperature = temperature;
    const Region own = rowSub.regionFor(measured, stripe);
    const Region refRep = bankRef.subarray(ref.subarray)
                              .regionFor(ref.localRow, stripe);
    const Region comRep = bankRef.subarray(com.subarray)
                              .regionFor(com.localRow, stripe);
    if (measureRef) {
        ctx.refRegion = own;
        ctx.comRegion = comRep;
    } else {
        ctx.comRegion = own;
        ctx.refRegion = refRep;
    }

    // The sensing margin depends on how many operand rows carry
    // logic-1 at a column; a deployment mask must hold for every
    // count (take the minimum), while the optimistic interval side
    // may assume the easiest count (take the maximum).
    Volt extremeMargin = 0.0;
    for (int k = 0; k <= n; ++k) {
        ctx.numOnes = k;
        const Volt margin = model.logicMargin(ctx);
        if (k == 0)
            extremeMargin = margin;
        else if (marginCase == MarginCase::Worst)
            extremeMargin = std::min(extremeMargin, margin);
        else
            extremeMargin = std::max(extremeMargin, margin);
    }

    std::vector<double> probabilities(
        static_cast<std::size_t>(geometry.columns), -1.0);
    const RowId global = composeRow(geometry, rowSa, measured);
    const ColumnVariation statics(
        model, bank, columns, [stripe](ColId) { return stripe; }, n);
    statics.forEachCell(global, [&](const auto &column, Volt offset) {
        probabilities[column.col] = model.cellSuccessProbability(
            extremeMargin, offset, column.structFail);
    });
    return probabilities;
}

std::vector<double>
notSuccessProbabilities(const Chip &chip, BankId bank, RowId srcGlobal,
                        RowId dstGlobal, Celsius temperature,
                        MarginCase marginCase)
{
    AnalyticConfig config;
    config.sampleBinomial = false;
    const AnalyticAnalyzer analyzer(chip, config);
    OpConditions cond;
    cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    cond.temperature = temperature;
    const auto samples =
        analyzer.notSamples(bank, srcGlobal, dstGlobal, cond);
    if (samples.empty())
        return {};
    const GeometryConfig &geometry = chip.geometry();
    // The executor reads the first destination row of the activation.
    const RowId measured = samples.front().rowLocal;
    std::vector<double> probabilities(
        static_cast<std::size_t>(geometry.columns), -1.0);
    for (const CellSample &sample : samples) {
        if (sample.rowLocal != measured)
            continue;
        probabilities[sample.col] = sample.probability;
    }
    return probabilities;
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

    const SuccessModel &model = chip.model();
    const int total = static_cast<int>(set.size()) + 1;
    RowCloneContext ctx;
    ctx.activatedRows = static_cast<int>(set.size());
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    ctx.cond.temperature = temperature;
    const Volt margin = model.rowCloneMargin(ctx);

    std::vector<double> probabilities(
        static_cast<std::size_t>(geometry.columns), -1.0);
    const ColumnVariation statics(
        model, bank, allColumns(geometry),
        [&](ColId col) { return stripeFor(dst.subarray, col); },
        (total + 1) / 2);
    statics.forEachCell(dstGlobal, [&](const auto &column, Volt offset) {
        probabilities[column.col] = model.cellSuccessProbability(
            margin, offset, column.structFail);
    });
    return probabilities;
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
    ctx.cond.couplingFraction =
        marginCase == MarginCase::Worst ? 1.0 : 0.0;
    ctx.cond.temperature = temperature;
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

    const RowId measured = set.front();
    const RowId global = composeRow(geometry, rf.subarray, measured);
    const int pair_load = (activatedRows + 1) / 2;
    std::vector<double> probabilities(
        static_cast<std::size_t>(geometry.columns), -1.0);
    const ColumnVariation statics(
        model, bank, allColumns(geometry),
        [&](ColId col) { return stripeFor(rf.subarray, col); },
        pair_load);
    statics.forEachCell(global, [&](const auto &column, Volt offset) {
        probabilities[column.col] = model.cellSuccessProbability(
            margin, offset, column.structFail);
    });
    return probabilities;
}

BitVector
worstCaseLogicMask(const Chip &chip, BankId bank, BoolOp op,
                   RowId refGlobal, RowId comGlobal,
                   double thresholdPercent, Celsius temperature)
{
    return thresholdMask(
        logicSuccessProbabilities(chip, bank, op, refGlobal, comGlobal,
                                  temperature, MarginCase::Worst),
        thresholdPercent);
}

BitVector
worstCaseNotMask(const Chip &chip, BankId bank, RowId srcGlobal,
                 RowId dstGlobal, double thresholdPercent,
                 Celsius temperature)
{
    return thresholdMask(
        notSuccessProbabilities(chip, bank, srcGlobal, dstGlobal,
                                temperature, MarginCase::Worst),
        thresholdPercent);
}

BitVector
worstCaseRowCloneMask(const Chip &chip, BankId bank, RowId srcGlobal,
                      RowId dstGlobal, double thresholdPercent,
                      Celsius temperature)
{
    return thresholdMask(
        rowCloneSuccessProbabilities(chip, bank, srcGlobal, dstGlobal,
                                     temperature, MarginCase::Worst),
        thresholdPercent);
}

BitVector
worstCaseMajMask(const Chip &chip, BankId bank, RowId rfGlobal,
                 RowId rlGlobal, int activatedRows,
                 double thresholdPercent, Celsius temperature)
{
    return thresholdMask(
        majSuccessProbabilities(chip, bank, rfGlobal, rlGlobal,
                                activatedRows, temperature,
                                MarginCase::Worst),
        thresholdPercent);
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
                               options_.probesPerPair,
                               options_.candidatePairsPerWidth, seed);
}

const std::vector<GateSlot> &
RowAllocator::gateSlots(int width) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto cached = slotsByWidth_.find(width);
    if (cached != slotsByWidth_.end())
        return cached->second;

    if (contexts_.empty()) {
        contexts_ = session_ != nullptr
                        ? session_->pairContexts(module_)
                        : directContexts();
    }

    const GeometryConfig &geometry = chip_->geometry();
    const PairQuery query = PairQuery::square(width);
    std::vector<GateSlot> slots;
    for (const PairContext &context : contexts_) {
        if (static_cast<int>(slots.size()) >=
            options_.candidatePairsPerWidth)
            break;
        for (const auto &[refAnchor, comAnchor] :
             discover(context, query)) {
            if (static_cast<int>(slots.size()) >=
                options_.candidatePairsPerWidth)
                break;
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
            for (const RowId local : sets.firstRows) {
                slot.refRows.push_back(
                    composeRow(geometry, ref.subarray, local));
            }
            for (const RowId local : sets.secondRows) {
                slot.computeRows.push_back(
                    composeRow(geometry, com.subarray, local));
            }
            // Staging rows for RowClone copy-in, pairwise disjoint
            // and clear of the activation set.
            std::vector<RowId> avoid;
            for (const RowId local : sets.secondRows)
                avoid.push_back(local);
            const double threshold = options_.maskThresholdPercent;
            // Staging donors share the fracInit XOR-flip search.
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
                const RowId targetGlobal =
                    composeRow(geometry, com.subarray, local);
                slot.stagingRows.push_back(donorGlobal);
                slot.stagingMasks.push_back(worstCaseRowCloneMask(
                    *chip_, context.bank, donorGlobal, targetGlobal,
                    threshold, temperature_));
            }
            slot.andMask = worstCaseLogicMask(
                *chip_, context.bank, BoolOp::And, refAnchor,
                comAnchor, threshold, temperature_);
            slot.orMask = worstCaseLogicMask(
                *chip_, context.bank, BoolOp::Or, refAnchor,
                comAnchor, threshold, temperature_);
            slot.nandMask = worstCaseLogicMask(
                *chip_, context.bank, BoolOp::Nand, refAnchor,
                comAnchor, threshold, temperature_);
            slot.norMask = worstCaseLogicMask(
                *chip_, context.bank, BoolOp::Nor, refAnchor,
                comAnchor, threshold, temperature_);
            slots.push_back(std::move(slot));
        }
    }

    // Reliability-aware placement: densest masks first. Stable sort
    // plus the deterministic candidate order keeps placement
    // reproducible across runs and worker counts.
    std::stable_sort(slots.begin(), slots.end(),
                     [](const GateSlot &a, const GateSlot &b) {
                         return a.score() > b.score();
                     });
    if (static_cast<int>(slots.size()) > options_.slotsPerWidth)
        slots.resize(static_cast<std::size_t>(options_.slotsPerWidth));
    return slotsByWidth_.emplace(width, std::move(slots))
        .first->second;
}

const std::vector<NotSlot> &
RowAllocator::notSlots() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (notSlots_.has_value())
        return *notSlots_;

    if (contexts_.empty()) {
        contexts_ = session_ != nullptr
                        ? session_->pairContexts(module_)
                        : directContexts();
    }

    // Any activation reaching exactly one destination row performs
    // NOT (simultaneous or sequential, so Samsung designs place too).
    const PairQuery query = PairQuery::anyWithDest(1);
    std::vector<NotSlot> slots;
    for (const PairContext &context : contexts_) {
        if (static_cast<int>(slots.size()) >=
            options_.candidatePairsPerWidth)
            break;
        for (const auto &[src, dst] : discover(context, query)) {
            if (static_cast<int>(slots.size()) >=
                options_.candidatePairsPerWidth)
                break;
            NotSlot slot;
            slot.context = context;
            slot.srcRow = src;
            slot.dstRow = dst;
            slot.mask = worstCaseNotMask(*chip_, context.bank, src,
                                         dst,
                                         options_.maskThresholdPercent,
                                         temperature_);
            slots.push_back(std::move(slot));
        }
    }
    std::stable_sort(slots.begin(), slots.end(),
                     [](const NotSlot &a, const NotSlot &b) {
                         return ReliableMask::maskDensity(a.mask) >
                                ReliableMask::maskDensity(b.mask);
                     });
    if (static_cast<int>(slots.size()) > options_.slotsPerWidth)
        slots.resize(static_cast<std::size_t>(options_.slotsPerWidth));
    notSlots_ = std::move(slots);
    return *notSlots_;
}

const std::vector<MajSlot> &
RowAllocator::majSlots(int activatedRows) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto cached = majSlotsByRows_.find(activatedRows);
    if (cached != majSlotsByRows_.end())
        return cached->second;

    if (contexts_.empty()) {
        contexts_ = session_ != nullptr
                        ? session_->pairContexts(module_)
                        : directContexts();
    }

    const GeometryConfig &geometry = chip_->geometry();
    const PairQuery query = PairQuery::sameSubarray(activatedRows);
    std::vector<MajSlot> slots;
    for (const PairContext &context : contexts_) {
        if (static_cast<int>(slots.size()) >=
            options_.candidatePairsPerWidth)
            break;
        for (const auto &[rfAnchor, rlAnchor] :
             discover(context, query)) {
            if (static_cast<int>(slots.size()) >=
                options_.candidatePairsPerWidth)
                break;
            const RowAddress rf = decomposeRow(geometry, rfAnchor);
            const auto set = chip_->decoder().sameSubarrayActivation(
                rf.localRow,
                decomposeRow(geometry, rlAnchor).localRow);
            if (static_cast<int>(set.size()) != activatedRows)
                continue;
            MajSlot slot;
            slot.context = context;
            slot.rfAnchor = rfAnchor;
            slot.rlAnchor = rlAnchor;
            slot.activatedRows = activatedRows;
            for (const RowId local : set) {
                slot.rows.push_back(
                    composeRow(geometry, rf.subarray, local));
            }
            slot.mask = worstCaseMajMask(
                *chip_, context.bank, rfAnchor, rlAnchor,
                activatedRows, options_.maskThresholdPercent,
                temperature_);
            slots.push_back(std::move(slot));
        }
    }
    std::stable_sort(slots.begin(), slots.end(),
                     [](const MajSlot &a, const MajSlot &b) {
                         return ReliableMask::maskDensity(a.mask) >
                                ReliableMask::maskDensity(b.mask);
                     });
    if (static_cast<int>(slots.size()) > options_.slotsPerWidth)
        slots.resize(static_cast<std::size_t>(options_.slotsPerWidth));
    return majSlotsByRows_.emplace(activatedRows, std::move(slots))
        .first->second;
}

Placement
RowAllocator::place(const MicroProgram &program) const
{
    Placement placement;
    placement.gateSlotOf.assign(program.ops.size(), -1);
    placement.notSlotOf.assign(program.ops.size(), -1);
    placement.majSlotOf.assign(program.ops.size(), -1);

    // (wave, width) round-robin: independent gates of one wave spread
    // over the ranked slots (distinct subarray pairs when available).
    std::map<std::pair<int, int>, std::size_t> rotation;
    std::map<std::pair<int, std::size_t>, int> used; // (width, rank)

    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const MicroOp &op = program.ops[i];
        if (op.kind == MicroOpKind::Maj) {
            const std::vector<MajSlot> &slots =
                majSlots(op.activatedRows);
            if (slots.empty()) {
                placement.complete = false;
                continue;
            }
            const std::size_t rank =
                rotation[{op.wave, -op.activatedRows}]++ %
                slots.size();
            const auto key =
                std::make_pair(-op.activatedRows - 1, rank);
            auto it = used.find(key);
            if (it == used.end()) {
                placement.majSlots.push_back(slots[rank]);
                it = used.emplace(key,
                                  static_cast<int>(
                                      placement.majSlots.size() - 1))
                         .first;
            }
            placement.majSlotOf[i] = it->second;
        } else if (op.kind == MicroOpKind::Wide) {
            const std::vector<GateSlot> &slots = gateSlots(op.width());
            if (slots.empty()) {
                placement.complete = false;
                continue;
            }
            const std::size_t rank =
                rotation[{op.wave, op.width()}]++ % slots.size();
            const auto key = std::make_pair(op.width(), rank);
            auto it = used.find(key);
            if (it == used.end()) {
                placement.gateSlots.push_back(slots[rank]);
                it = used.emplace(key,
                                  static_cast<int>(
                                      placement.gateSlots.size() - 1))
                         .first;
            }
            placement.gateSlotOf[i] = it->second;
        } else if (op.kind == MicroOpKind::Not) {
            const std::vector<NotSlot> &slots = notSlots();
            if (slots.empty()) {
                placement.complete = false;
                continue;
            }
            const std::size_t rank =
                rotation[{op.wave, 1}]++ % slots.size();
            const auto key = std::make_pair(-1, rank);
            auto it = used.find(key);
            if (it == used.end()) {
                placement.notSlots.push_back(slots[rank]);
                it = used.emplace(key,
                                  static_cast<int>(
                                      placement.notSlots.size() - 1))
                         .first;
            }
            placement.notSlotOf[i] = it->second;
        }
    }
    return placement;
}

} // namespace fcdram::pud
