#include "fcdram/ops.hh"

#include <cassert>
#include <stdexcept>
#include <utility>

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

void
StepWriter::write(RowId row, Step::Source source, std::size_t operand)
{
    out.push_back({.kind = Step::Kind::Write,
                   .program = hostWriteProgram(speed(), bank, row),
                   .bank = bank,
                   .row = row,
                   .source = source,
                   .operand = operand});
}

void
StepWriter::run(const char *label, Program program,
                std::size_t mustOpen)
{
    out.push_back({.kind = Step::Kind::Run,
                   .label = label,
                   .program = std::move(program),
                   .bank = bank,
                   .mustOpen = mustOpen});
}

void
StepWriter::read(RowId row, Step::Sink sink)
{
    out.push_back({.kind = Step::Kind::Read,
                   .label = "RowRead",
                   .program = hostReadProgram(speed(), bank, row),
                   .bank = bank,
                   .row = row,
                   .sink = sink});
}

bool
StepWriter::frac(RowId target, const std::vector<RowId> &avoid)
{
    const RowId helper = fracHelper(chip, target, avoid);
    if (helper == kInvalidRow)
        return false;
    // Charge-share an all-1s helper with an all-0s target and
    // interrupt the restore: both rows settle near VDD/2.
    write(helper, Step::Source::Ones);
    write(target, Step::Source::Zeros);
    run("Frac", fracProgram(speed(), bank, helper, target));
    return true;
}

bool
StepWriter::reference(BoolOp op, const std::vector<RowId> &refRows)
{
    assert(!refRows.empty());
    const Step::Source constant =
        op == BoolOp::And || op == BoolOp::Nand ? Step::Source::Ones
                                                : Step::Source::Zeros;
    const std::size_t constants = refRows.size() - 1;
    for (std::size_t k = 0; k < constants; ++k)
        write(refRows[k], constant);
    if (!frac(refRows.back(), refRows))
        return false;
    for (std::size_t k = 0; k < constants; ++k)
        write(refRows[k], constant);
    return true;
}

void
StepWriter::logic(RowId refAnchor, RowId comAnchor)
{
    run("Logic", doubleActProgram(speed(), bank, refAnchor, comAnchor));
}

bool
StepWriter::maj(RowId rfAnchor, RowId rlAnchor,
                const std::vector<RowId> &rows, std::size_t operands,
                std::size_t ones, std::size_t zeros)
{
    const std::size_t size = rows.size();
    if (operands + ones + zeros > size)
        return false;
    for (std::size_t n = 0; n < size - operands - ones - zeros; ++n) {
        if (!frac(rows[size - 1 - n], rows))
            return false;
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < operands; ++k)
        write(rows[next++], Step::Source::Operand, k);
    for (std::size_t k = 0; k < ones; ++k)
        write(rows[next++], Step::Source::Ones);
    for (std::size_t k = 0; k < zeros; ++k)
        write(rows[next++], Step::Source::Zeros);
    run("MAJ", doubleActProgram(speed(), bank, rfAnchor, rlAnchor), size);
    read(rows.front(), Step::Sink::Compute);
    return true;
}

bool
runProgramStep(DramBender &bender, const Step &step)
{
    const obs::DramLabel label(step.label);
    const ExecResult result = bender.execute(step.program);
    if (step.mustOpen == 0)
        return true;
    std::size_t opened = 0;
    for (const ActivationEvent &event : result.activations)
        opened += event.sets.secondRows.size();
    return opened == step.mustOpen;
}

bool
runSteps(DramBender &bender, const std::vector<Step> &steps)
{
    return runSteps(
        bender, steps,
        [](std::size_t) -> const BitVector & {
            throw std::logic_error("runSteps: no operand rows given");
        },
        [](const Step &, const BitVector &) {});
}

std::optional<RowId>
Ops::fracInit(BankId bank, RowId rowGlobal,
              const std::vector<RowId> &avoid)
{
    std::vector<Step> steps;
    if (!StepWriter{bender_.chip(), bank, steps}.frac(rowGlobal, avoid))
        return std::nullopt;
    runSteps(bender_, steps);
    return steps.front().row; // The helper's all-1s write.
}

bool
Ops::initReference(BankId bank, BoolOp op,
                   const std::vector<RowId> &refRows)
{
    std::vector<Step> steps;
    const bool initialized =
        StepWriter{bender_.chip(), bank, steps}.reference(op, refRows);
    runSteps(bender_, steps);
    return initialized;
}

LogicOpResult
Ops::executeLogic(BankId bank, RowId refAnchor, RowId comAnchor,
                  const std::vector<RowId> &refRows,
                  const std::vector<RowId> &computeRows)
{
    assert(!refRows.empty() && !computeRows.empty());
    std::vector<Step> fire;
    StepWriter{bender_.chip(), bank, fire}.logic(refAnchor, comAnchor);
    runSteps(bender_, fire);

    const GeometryConfig &geometry = bender_.chip().geometry();
    LogicOpResult result;
    result.columns =
        sharedColumns(geometry, decomposeRow(geometry, refAnchor).subarray,
                      decomposeRow(geometry, comAnchor).subarray);
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
