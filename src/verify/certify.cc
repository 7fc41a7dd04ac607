#include "verify/certify.hh"

#include <algorithm>
#include <cassert>

#include "common/mathutil.hh"
#include "pud/lower.hh"

namespace fcdram::verify {

namespace {

using pud::kNoValue;
using pud::MicroOp;
using pud::MicroOpKind;
using pud::MicroProgram;
using pud::Placement;
using pud::ValueId;

/**
 * Abstract state of one μprogram value: a per-column error interval
 * plus the provenance needed for correlation-safe composition.
 */
struct ValueState
{
    std::vector<double> upper;
    std::vector<double> lower;

    /**
     * Support: sorted op indices this value's error derives from
     * (Loads excluded — a pristine column carries no error event).
     * Two values with disjoint supports have independent errors.
     */
    std::vector<std::uint32_t> support;
};

std::vector<std::uint32_t>
supportUnion(const std::vector<std::uint32_t> &a,
             const std::vector<std::uint32_t> &b)
{
    std::vector<std::uint32_t> merged;
    merged.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(merged));
    return merged;
}

bool
disjoint(const std::vector<std::uint32_t> &a,
         const std::vector<std::uint32_t> &b)
{
    auto i = a.begin();
    auto j = b.begin();
    while (i != a.end() && j != b.end()) {
        if (*i < *j)
            ++i;
        else if (*j < *i)
            ++j;
        else
            return false;
    }
    return true;
}

/**
 * Combined input-error interval of one op: per column, an upper bound
 * on P(some input bit wrong) and a lower bound on P(all input bits
 * correct). Inputs with provably disjoint supports compose under the
 * independence product; otherwise the worst-case union bound (upper)
 * and its complement (lower) apply.
 */
struct InputCombination
{
    std::vector<double> anyWrongUpper;
    std::vector<double> allCorrectLower;
};

InputCombination
combineInputs(const std::vector<ValueState> &values,
              const std::vector<ValueId> &inputs, std::size_t columns)
{
    // CSE can alias one value into several operand positions; the
    // error event of an aliased value occurs once.
    std::vector<ValueId> distinct(inputs);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    bool independent = true;
    for (std::size_t i = 0; i + 1 < distinct.size() && independent;
         ++i) {
        for (std::size_t j = i + 1;
             j < distinct.size() && independent; ++j) {
            independent = disjoint(values[distinct[i]].support,
                                   values[distinct[j]].support);
        }
    }

    InputCombination out;
    out.anyWrongUpper.assign(columns, 0.0);
    out.allCorrectLower.assign(columns, 1.0);
    for (std::size_t col = 0; col < columns; ++col) {
        if (independent) {
            double noneWrong = 1.0;
            double allCorrect = 1.0;
            for (const ValueId v : distinct) {
                noneWrong *= 1.0 - values[v].upper[col];
                allCorrect *= 1.0 - values[v].upper[col];
            }
            out.anyWrongUpper[col] = clampTo(1.0 - noneWrong, 0.0, 1.0);
            out.allCorrectLower[col] = clampTo(allCorrect, 0.0, 1.0);
        } else {
            double sum = 0.0;
            for (const ValueId v : distinct)
                sum += values[v].upper[col];
            out.anyWrongUpper[col] = clampTo(sum, 0.0, 1.0);
            out.allCorrectLower[col] = clampTo(1.0 - sum, 0.0, 1.0);
        }
    }
    return out;
}

/** Per-trial flip probability from a success vector, worst-case. */
double
flipFromWorst(const std::vector<double> &success, std::size_t col)
{
    if (col >= success.size() || success[col] < 0.0)
        return 1.0; // The mechanism gives no guarantee here.
    return clampTo(1.0 - success[col], 0.0, 1.0);
}

/** Per-trial flip probability from a success vector, best-case. */
double
flipFromBest(const std::vector<double> &success, std::size_t col)
{
    if (col >= success.size() || success[col] < 0.0)
        return 0.0; // No lower-bound claim without a margin.
    return clampTo(1.0 - success[col], 0.0, 1.0);
}

} // namespace

PlanCertificate
certifyPlan(const MicroProgram &program, const Placement &placement,
            const Chip &chip, Celsius temperature, int redundancy,
            bool rowCloneCopyIn)
{
    assert(redundancy > 0 && redundancy % 2 == 1);
    const std::size_t columns =
        static_cast<std::size_t>(chip.geometry().columns);
    const int majority = redundancy / 2 + 1;

    PlanCertificate certificate;
    certificate.redundancy = redundancy;
    certificate.perColumnErrorBound.assign(columns, 0.0);
    certificate.perColumnErrorFloor.assign(columns, 0.0);

    const std::size_t n = program.ops.size();
    if (program.result == kNoValue ||
        program.result >= program.numValues ||
        placement.gateSlotOf.size() != n ||
        placement.notSlotOf.size() != n ||
        placement.majSlotOf.size() != n)
        return certificate; // Malformed envelopes are UPL010's job.

    std::vector<ValueState> values(program.numValues);
    for (ValueState &state : values) {
        state.upper.assign(columns, 0.0);
        state.lower.assign(columns, 0.0);
    }

    // One voted DRAM measurement: per-trial flips are independent
    // across trials (fresh analog noise per activation), so the vote
    // amplifies them with the exact binomial tail; input errors are
    // common-mode across the trials of one op and compose after.
    const auto defineValue =
        [&](ValueId value, const BitVector &mask,
            const std::vector<double> &successWorst,
            const std::vector<double> &successBest,
            const std::vector<double> &cloneFlip,
            const InputCombination &in,
            const std::vector<std::uint32_t> &support) {
            if (value == kNoValue)
                return;
            ValueState &state = values[value];
            state.support = support;
            for (std::size_t col = 0; col < columns; ++col) {
                if (mask.size() != columns || !mask.get(col)) {
                    // CPU fallback path: the golden value from the
                    // pristine operands — exactly correct.
                    state.upper[col] = 0.0;
                    state.lower[col] = 0.0;
                    continue;
                }
                const double perTrialWorst = clampTo(
                    flipFromWorst(successWorst, col) +
                        (cloneFlip.empty() ? 0.0 : cloneFlip[col]),
                    0.0, 1.0);
                const double votedWorst =
                    binomialTail(redundancy, majority, perTrialWorst);
                const double upper = clampTo(
                    votedWorst + in.anyWrongUpper[col], 0.0, 1.0);
                const double votedBest = binomialTail(
                    redundancy, majority, flipFromBest(successBest, col));
                const double lower = clampTo(
                    votedBest * in.allCorrectLower[col], 0.0, upper);
                state.upper[col] = upper;
                state.lower[col] = lower;
            }
        };

    const std::vector<pud::LoweredOp> lowered = pud::lower(
        program, placement, chip,
        rowCloneCopyIn ? pud::CopyInMode::RowClone
                       : pud::CopyInMode::HostWrite);
    const std::vector<double> noClone;
    for (std::size_t i = 0; i < n; ++i) {
        const MicroOp &op = program.ops[i];
        const auto opIndex = static_cast<std::uint32_t>(i);
        // The columns the engine keeps the DRAM result for; the rest
        // take the CPU fallback path.
        const pud::TrustedMasks trusted =
            pud::trustedMasks(program, placement, i, lowered[i]);
        switch (op.kind) {
        case MicroOpKind::Load:
            break;
        case MicroOpKind::Wide: {
            const int g = placement.gateSlotOf[i];
            if (g < 0 ||
                static_cast<std::size_t>(g) >=
                    placement.gateSlots.size())
                break; // Whole op on the CPU path: error zero.
            const pud::GateSlot &slot = placement.gateSlots[g];
            const BankId bank = slot.context.bank;

            // RowClone copy-in (the lowering's staged operands): the
            // staging->compute clone re-runs every trial, so its flip
            // probability adds to the per-trial flip.
            std::vector<double> cloneFlip(columns, 0.0);
            for (const Step &staging : lowered[i].prologue) {
                const std::size_t k = staging.operand;
                const auto cloneWorst = pud::rowCloneSuccessProbabilities(
                    chip, bank, slot.stagingRows[k], slot.computeRows[k],
                    temperature, pud::MarginCase::Worst);
                for (std::size_t col = 0; col < columns; ++col)
                    cloneFlip[col] += flipFromWorst(cloneWorst, col);
            }

            const InputCombination in =
                combineInputs(values, op.inputs, columns);
            std::vector<std::uint32_t> support{opIndex};
            for (const ValueId input : op.inputs)
                support = supportUnion(support,
                                       values[input].support);

            if (op.computeValue != kNoValue) {
                defineValue(
                    op.computeValue, trusted.compute,
                    pud::logicSuccessProbabilities(
                        chip, bank, op.family, slot.refAnchor,
                        slot.comAnchor, temperature,
                        pud::MarginCase::Worst),
                    pud::logicSuccessProbabilities(
                        chip, bank, op.family, slot.refAnchor,
                        slot.comAnchor, temperature,
                        pud::MarginCase::Best),
                    cloneFlip, in, support);
            }
            if (op.referenceValue != kNoValue) {
                const BoolOp inverted = op.family == BoolOp::And
                                            ? BoolOp::Nand
                                            : BoolOp::Nor;
                defineValue(
                    op.referenceValue, trusted.reference,
                    pud::logicSuccessProbabilities(
                        chip, bank, inverted, slot.refAnchor,
                        slot.comAnchor, temperature,
                        pud::MarginCase::Worst),
                    pud::logicSuccessProbabilities(
                        chip, bank, inverted, slot.refAnchor,
                        slot.comAnchor, temperature,
                        pud::MarginCase::Best),
                    cloneFlip, in, support);
            }
            break;
        }
        case MicroOpKind::Not: {
            const int t = placement.notSlotOf[i];
            if (t < 0 ||
                static_cast<std::size_t>(t) >=
                    placement.notSlots.size())
                break;
            const pud::NotSlot &slot = placement.notSlots[t];
            const InputCombination in =
                combineInputs(values, op.inputs, columns);
            std::vector<std::uint32_t> support{opIndex};
            for (const ValueId input : op.inputs)
                support = supportUnion(support,
                                       values[input].support);
            defineValue(
                op.computeValue, trusted.compute,
                pud::notSuccessProbabilities(
                    chip, slot.context.bank, slot.srcRow, slot.dstRow,
                    temperature, pud::MarginCase::Worst),
                pud::notSuccessProbabilities(
                    chip, slot.context.bank, slot.srcRow, slot.dstRow,
                    temperature, pud::MarginCase::Best),
                noClone, in, support);
            break;
        }
        case MicroOpKind::Maj: {
            const int m = placement.majSlotOf[i];
            if (m < 0 ||
                static_cast<std::size_t>(m) >=
                    placement.majSlots.size())
                break;
            const pud::MajSlot &slot = placement.majSlots[m];
            const InputCombination in =
                combineInputs(values, op.inputs, columns);
            std::vector<std::uint32_t> support{opIndex};
            for (const ValueId input : op.inputs)
                support = supportUnion(support,
                                       values[input].support);
            defineValue(
                op.computeValue, trusted.compute,
                pud::majSuccessProbabilities(
                    chip, slot.context.bank, slot.rfAnchor,
                    slot.rlAnchor, slot.activatedRows, temperature,
                    pud::MarginCase::Worst),
                pud::majSuccessProbabilities(
                    chip, slot.context.bank, slot.rfAnchor,
                    slot.rlAnchor, slot.activatedRows, temperature,
                    pud::MarginCase::Best),
                noClone, in, support);
            break;
        }
        }
    }

    const ValueState &result = values[program.result];
    certificate.perColumnErrorBound = result.upper;
    certificate.perColumnErrorFloor = result.lower;
    double accuracySum = 0.0;
    for (std::size_t col = 0; col < columns; ++col) {
        accuracySum += 1.0 - result.upper[col];
        if (result.upper[col] >
            certificate.worstColumnErrorBound) {
            certificate.worstColumnErrorBound = result.upper[col];
            certificate.worstColumn = static_cast<ColId>(col);
        }
    }
    certificate.expectedAccuracy =
        columns == 0 ? 1.0
                     : accuracySum / static_cast<double>(columns);
    return certificate;
}

} // namespace fcdram::verify
