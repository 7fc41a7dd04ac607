#include "fcdram/ops.hh"

#include <cassert>
#include <stdexcept>

#include "common/rng.hh"
#include "dram/openbitline.hh"
#include "obs/telemetry.hh"

namespace fcdram {

Ops::Ops(DramBender &bender) : bender_(bender)
{
}

Program
Ops::buildDoubleAct(BankId bank, RowId firstGlobal,
                    RowId secondGlobal) const
{
    return doubleActProgram(bender_.chip().profile().speed, bank,
                            firstGlobal, secondGlobal);
}

Program
Ops::buildNot(BankId bank, RowId srcGlobal, RowId dstGlobal) const
{
    return copyProgram(bender_.chip().profile().speed, bank, srcGlobal,
                       dstGlobal);
}

Program
Ops::buildRowClone(BankId bank, RowId srcGlobal, RowId dstGlobal) const
{
    return buildNot(bank, srcGlobal, dstGlobal);
}

Program
Ops::buildMaj(BankId bank, RowId rfGlobal, RowId rlGlobal) const
{
    assert(sameSubarray(bender_.chip().geometry(), rfGlobal, rlGlobal));
    return buildDoubleAct(bank, rfGlobal, rlGlobal);
}

std::vector<RowId>
Ops::executeMajActivation(BankId bank, RowId rfGlobal, RowId rlGlobal)
{
    const obs::DramLabel label("MAJ");
    const ExecResult result =
        bender_.execute(buildMaj(bank, rfGlobal, rlGlobal));
    std::vector<RowId> rows;
    const GeometryConfig &geometry = bender_.chip().geometry();
    for (const ActivationEvent &event : result.activations) {
        if (event.firstSubarray != event.secondSubarray)
            continue;
        for (const RowId local : event.sets.secondRows) {
            rows.push_back(
                composeRow(geometry, event.firstSubarray, local));
        }
    }
    return rows;
}

std::optional<BitVector>
Ops::executeMaj(BankId bank, RowId rfGlobal, RowId rlGlobal,
                const std::vector<BitVector> &operands)
{
    // An even operand count would leave one group row unassigned
    // (the remainder no longer splits into balanced constant pairs)
    // and let stale row contents vote in the majority; reject it
    // outright rather than only in debug builds.
    if (operands.empty() || operands.size() % 2 == 0) {
        throw std::invalid_argument(
            "Ops::executeMaj: operand count must be odd");
    }
    const GeometryConfig &geometry = bender_.chip().geometry();
    const RowAddress rf = decomposeRow(geometry, rfGlobal);
    const RowAddress rl = decomposeRow(geometry, rlGlobal);
    assert(rf.subarray == rl.subarray);
    const auto set = bender_.chip().decoder().sameSubarrayActivation(
        rf.localRow, rl.localRow);
    const auto m = operands.size();
    // m operands + balanced constant pairs + one neutral tiebreaker
    // must exactly fill the group; the group size is even (a power of
    // two) and m odd, so the remainder splits into pairs.
    if (set.size() < m + 1)
        return std::nullopt;
    std::vector<RowId> rows;
    rows.reserve(set.size());
    for (const RowId local : set)
        rows.push_back(composeRow(geometry, rf.subarray, local));

    const RowId neutral = rows.back();
    if (!fracInit(bank, neutral, rows))
        return std::nullopt;
    for (std::size_t i = 0; i < m; ++i)
        bender_.writeRow(bank, rows[i], operands[i]);
    const auto columns = static_cast<std::size_t>(geometry.columns);
    const std::size_t pairs = (set.size() - m - 1) / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
        bender_.writeRow(bank, rows[m + 2 * i],
                         BitVector(columns, true));
        bender_.writeRow(bank, rows[m + 2 * i + 1],
                         BitVector(columns, false));
    }
    const auto activated =
        executeMajActivation(bank, rfGlobal, rlGlobal);
    if (activated.size() != rows.size())
        return std::nullopt;
    return bender_.readRow(bank, rows.front());
}

std::vector<RowId>
Ops::executeNot(BankId bank, RowId srcGlobal, RowId dstGlobal)
{
    const obs::DramLabel label("NOT");
    const ExecResult result =
        bender_.execute(buildNot(bank, srcGlobal, dstGlobal));
    std::vector<RowId> destinations;
    const GeometryConfig &geometry = bender_.chip().geometry();
    for (const ActivationEvent &event : result.activations) {
        if (event.firstSubarray == event.secondSubarray)
            continue;
        for (const RowId local : event.sets.secondRows) {
            destinations.push_back(
                composeRow(geometry, event.secondSubarray, local));
        }
    }
    return destinations;
}

bool
Ops::executeRowClone(BankId bank, RowId srcGlobal, RowId dstGlobal)
{
    assert(sameSubarray(bender_.chip().geometry(), srcGlobal, dstGlobal));
    const obs::DramLabel label("RowClone");
    const ExecResult result =
        bender_.execute(buildRowClone(bank, srcGlobal, dstGlobal));
    return !result.activations.empty();
}

RowId
findPairActivatingDonor(const Chip &chip, RowId targetLocal,
                        const std::vector<RowId> &avoidLocal)
{
    const auto rows =
        static_cast<RowId>(chip.geometry().rowsPerSubarray);
    for (RowId flip = 1; flip < rows; ++flip) {
        const RowId donor = targetLocal ^ flip;
        bool excluded = false;
        for (const RowId r : avoidLocal)
            excluded |= r == donor;
        if (excluded)
            continue;
        const auto set =
            chip.decoder().sameSubarrayActivation(donor, targetLocal);
        if (set.size() == 2)
            return donor;
    }
    return kInvalidRow;
}

RowId
fracHelper(const Chip &chip, RowId rowGlobal,
           const std::vector<RowId> &avoid)
{
    const GeometryConfig &geometry = chip.geometry();
    const RowAddress address = decomposeRow(geometry, rowGlobal);
    std::vector<RowId> avoid_local;
    for (const RowId r : avoid) {
        const RowAddress a = decomposeRow(geometry, r);
        if (a.subarray == address.subarray)
            avoid_local.push_back(a.localRow);
    }
    const RowId helper_local =
        findPairActivatingDonor(chip, address.localRow, avoid_local);
    return helper_local == kInvalidRow
               ? kInvalidRow
               : composeRow(geometry, address.subarray, helper_local);
}

std::optional<RowId>
Ops::fracInit(BankId bank, RowId rowGlobal,
              const std::vector<RowId> &avoid)
{
    const RowId helper = fracHelper(bender_.chip(), rowGlobal, avoid);
    if (helper == kInvalidRow)
        return std::nullopt;
    // Charge-share an all-1s helper with an all-0s target and
    // interrupt the restore: both rows settle near VDD/2.
    const auto columns =
        static_cast<std::size_t>(bender_.chip().geometry().columns);
    bender_.writeRow(bank, helper, BitVector(columns, true));
    bender_.writeRow(bank, rowGlobal, BitVector(columns, false));
    const obs::DramLabel label("Frac");
    bender_.execute(fracProgram(bender_.chip().profile().speed, bank,
                                helper, rowGlobal));
    return helper;
}

bool
Ops::initReference(BankId bank, BoolOp op,
                   const std::vector<RowId> &refRows)
{
    assert(!refRows.empty());
    const GeometryConfig &geometry = bender_.chip().geometry();
    const bool and_family = op == BoolOp::And || op == BoolOp::Nand;
    BitVector constant(static_cast<std::size_t>(geometry.columns),
                       and_family);
    // The Frac row must be initialized last: its helper activation
    // would otherwise be disturbed by later writes.
    for (std::size_t i = 0; i + 1 < refRows.size(); ++i)
        bender_.writeRow(bank, refRows[i], constant);
    const auto helper = fracInit(bank, refRows.back(), refRows);
    if (!helper)
        return false;
    // Re-write the constants in case the Frac helper overlapped a
    // constant row's bitline transient (cheap and safe).
    for (std::size_t i = 0; i + 1 < refRows.size(); ++i)
        bender_.writeRow(bank, refRows[i], constant);
    return true;
}

LogicOpResult
Ops::executeLogic(BankId bank, BoolOp op, RowId refAnchor,
                  RowId comAnchor, const std::vector<RowId> &refRows,
                  const std::vector<RowId> &computeRows)
{
    (void)op;
    assert(!refRows.empty() && !computeRows.empty());
    const GeometryConfig &geometry = bender_.chip().geometry();
    const RowAddress ref = decomposeRow(geometry, refAnchor);
    const RowAddress com = decomposeRow(geometry, comAnchor);

    const ExecResult exec = [&] {
        const obs::DramLabel label("Logic");
        return bender_.execute(
            buildDoubleAct(bank, refAnchor, comAnchor));
    }();
    (void)exec;

    LogicOpResult result;
    result.columns = sharedColumns(geometry, ref.subarray, com.subarray);
    result.computeResult = bender_.readRow(bank, computeRows.front());
    result.referenceResult = bender_.readRow(bank, refRows.front());
    return result;
}

std::vector<std::pair<RowId, RowId>>
findSimraPairs(const Chip &chip, int activatedRows, int maxPairs,
               std::uint64_t seed)
{
    std::vector<std::pair<RowId, RowId>> pairs;
    const RowDecoder &decoder = chip.decoder();
    if (activatedRows < 2 ||
        activatedRows > decoder.maxSameSubarrayRows())
        return pairs;
    const auto rows =
        static_cast<RowId>(chip.geometry().rowsPerSubarray);
    Rng rng(seed);
    const int max_probes = 20000;
    for (int probe = 0; probe < max_probes &&
                        static_cast<int>(pairs.size()) < maxPairs;
         ++probe) {
        const auto base = static_cast<RowId>(rng.below(rows));
        const RowId partner = decoder.maskPartner(base, activatedRows);
        if (partner == kInvalidRow)
            return pairs; // Mask unreachable on this decoder.
        const auto set =
            decoder.sameSubarrayActivation(partner, base);
        if (static_cast<int>(set.size()) == activatedRows)
            pairs.emplace_back(partner, base);
    }
    return pairs;
}

std::vector<std::pair<RowId, RowId>>
findActivationPairs(const Chip &chip, int nrf, int nrl, int maxPairs,
                    std::uint64_t seed)
{
    std::vector<std::pair<RowId, RowId>> pairs;
    const auto rows =
        static_cast<RowId>(chip.geometry().rowsPerSubarray);
    Rng rng(seed);
    // Bounded random probing; the decoder is deterministic, so each
    // (rf, rl) candidate needs only one query.
    const int max_probes = 20000;
    for (int probe = 0; probe < max_probes &&
                        static_cast<int>(pairs.size()) < maxPairs;
         ++probe) {
        const auto rf = static_cast<RowId>(rng.below(rows));
        const auto rl = static_cast<RowId>(rng.below(rows));
        const ActivationSets sets =
            chip.decoder().neighborActivation(rf, rl);
        if (!sets.simultaneous && !sets.sequential)
            continue;
        if (sets.nrf() == nrf && sets.nrl() == nrl)
            pairs.emplace_back(rf, rl);
    }
    return pairs;
}

} // namespace fcdram
