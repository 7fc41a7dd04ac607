#include "pud/lower.hh"

#include "fcdram/ops.hh"

namespace fcdram::pud {

namespace {

using Kind = LoweredStep::Kind;
using Source = LoweredStep::Source;
using Sink = LoweredStep::Sink;

/** Appends the steps of one op on one bank. */
struct StepWriter
{
    const Chip &chip;
    BankId bank;
    std::vector<LoweredStep> &out;

    const SpeedGrade &speed() const { return chip.profile().speed; }

    void write(RowId row, Source source, std::size_t operand = 0)
    {
        out.push_back({.kind = Kind::Write,
                       .program = hostWriteProgram(speed(), bank, row),
                       .bank = bank,
                       .row = row,
                       .source = source,
                       .operand = operand});
    }

    void run(const char *label, Program program,
             std::size_t mustOpen = 0)
    {
        out.push_back({.kind = Kind::Run,
                       .label = label,
                       .program = std::move(program),
                       .bank = bank,
                       .mustOpen = mustOpen});
    }

    void read(RowId row, Sink sink)
    {
        out.push_back({.kind = Kind::Read,
                       .label = "RowRead",
                       .program = hostReadProgram(speed(), bank, row),
                       .bank = bank,
                       .row = row,
                       .sink = sink});
    }

    /**
     * Ops::fracInit of @p target: all-1s helper, all-0s target, the
     * interrupted double activation. False when no donor exists.
     */
    bool frac(RowId target, const std::vector<RowId> &avoid)
    {
        const RowId helper = fracHelper(chip, target, avoid);
        if (helper == kInvalidRow)
            return false;
        write(helper, Source::Ones);
        write(target, Source::Zeros);
        run("Frac", fracProgram(speed(), bank, helper, target));
        return true;
    }
};

/** The placed slot of op @p i, or nullptr (unplaced or out of range). */
template <class Slot>
const Slot *
slotOf(const std::vector<int> &map, std::size_t i,
       const std::vector<Slot> &slots)
{
    const int index = map[i];
    return index >= 0 && static_cast<std::size_t>(index) < slots.size()
               ? &slots[static_cast<std::size_t>(index)]
               : nullptr;
}

LoweredOp
lowerGate(const Chip &chip, const MicroOp &op, const GateSlot &slot,
          const std::vector<bool> &isColumn, CopyInMode copyIn)
{
    const std::size_t width = op.inputs.size();
    if (slot.refRows.empty() || slot.computeRows.size() < width)
        return {};
    LoweredOp lowered;
    StepWriter body{chip, slot.context.bank, lowered.body};
    StepWriter prologue{chip, slot.context.bank, lowered.prologue};

    const Source constant =
        op.family == BoolOp::And || op.family == BoolOp::Nand
            ? Source::Ones
            : Source::Zeros;
    const std::size_t constants = slot.refRows.size() - 1;
    // Ops::initReference: the constants, then the Frac row, then the
    // constants again in case the Frac helper disturbed one.
    for (std::size_t k = 0; k < constants; ++k)
        body.write(slot.refRows[k], constant);
    if (!body.frac(slot.refRows.back(), slot.refRows))
        return {};
    for (std::size_t k = 0; k < constants; ++k)
        body.write(slot.refRows[k], constant);

    for (std::size_t k = 0; k < width; ++k) {
        const ValueId input = op.inputs[k];
        const bool clone = copyIn == CopyInMode::RowClone &&
                           input < isColumn.size() && isColumn[input] &&
                           k < slot.stagingRows.size() &&
                           slot.stagingRows[k] != kInvalidRow;
        if (!clone) {
            body.write(slot.computeRows[k], Source::Operand, k);
            continue;
        }
        prologue.write(slot.stagingRows[k], Source::Operand, k);
        body.run("RowClone",
                 copyProgram(body.speed(), slot.context.bank,
                             slot.stagingRows[k], slot.computeRows[k]));
    }
    body.run("Logic", doubleActProgram(body.speed(), slot.context.bank,
                                       slot.refAnchor, slot.comAnchor));
    body.read(slot.computeRows.front(), Sink::Compute);
    body.read(slot.refRows.front(), Sink::Reference);
    return lowered;
}

LoweredOp
lowerNot(const Chip &chip, const NotSlot &slot)
{
    LoweredOp lowered;
    StepWriter body{chip, slot.context.bank, lowered.body};
    body.write(slot.srcRow, Source::Operand);
    // The destination starts as the source value, so a failed
    // (retaining) cell reads as stale data, not as a success.
    body.write(slot.dstRow, Source::Operand);
    body.run("NOT",
             copyProgram(body.speed(), slot.context.bank, slot.srcRow,
                         slot.dstRow),
             1);
    body.read(slot.dstRow, Sink::Compute);
    return lowered;
}

LoweredOp
lowerMaj(const Chip &chip, const MicroOp &op, const MajSlot &slot)
{
    const std::size_t size = slot.rows.size();
    if (static_cast<int>(size) != op.activatedRows ||
        op.width() + op.constantOnes + op.constantZeros +
                op.neutralRows !=
            op.activatedRows)
        return {};
    LoweredOp lowered;
    StepWriter body{chip, slot.context.bank, lowered.body};
    // Operands first (the measured first row carries operand 0), then
    // the bias constants, then the Frac tiebreaker(s) at the end,
    // initialized first: a helper activation would disturb data
    // written before it.
    for (std::size_t n = 0; n < static_cast<std::size_t>(op.neutralRows);
         ++n) {
        if (!body.frac(slot.rows[size - 1 - n], slot.rows))
            return {};
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < op.inputs.size(); ++k)
        body.write(slot.rows[next++], Source::Operand, k);
    for (int k = 0; k < op.constantOnes; ++k)
        body.write(slot.rows[next++], Source::Ones);
    for (int k = 0; k < op.constantZeros; ++k)
        body.write(slot.rows[next++], Source::Zeros);
    body.run("MAJ",
             doubleActProgram(body.speed(), slot.context.bank,
                              slot.rfAnchor, slot.rlAnchor),
             size);
    body.read(slot.rows.front(), Sink::Compute);
    return lowered;
}

/** Narrow @p mask to @p copy where both cover the same columns. */
void
narrow(BitVector &mask, const BitVector &copy)
{
    if (mask.size() == copy.size())
        mask &= copy;
}

} // namespace

std::vector<LoweredOp>
lower(const MicroProgram &program, const Placement &placement,
      const Chip &chip, CopyInMode copyIn)
{
    const std::size_t n = program.ops.size();
    std::vector<LoweredOp> lowered(n);
    if (placement.gateSlotOf.size() != n ||
        placement.notSlotOf.size() != n ||
        placement.majSlotOf.size() != n)
        return lowered;

    std::vector<bool> isColumn(program.numValues, false);
    for (std::size_t i = 0; i < n; ++i) {
        const MicroOp &op = program.ops[i];
        switch (op.kind) {
          case MicroOpKind::Load:
            if (op.computeValue < isColumn.size())
                isColumn[op.computeValue] = true;
            break;
          case MicroOpKind::Wide:
            if (const GateSlot *slot = slotOf(placement.gateSlotOf, i,
                                              placement.gateSlots))
                lowered[i] = lowerGate(chip, op, *slot, isColumn, copyIn);
            break;
          case MicroOpKind::Not:
            if (const NotSlot *slot = slotOf(placement.notSlotOf, i,
                                             placement.notSlots))
                lowered[i] = lowerNot(chip, *slot);
            break;
          case MicroOpKind::Maj:
            if (const MajSlot *slot = slotOf(placement.majSlotOf, i,
                                             placement.majSlots))
                lowered[i] = lowerMaj(chip, op, *slot);
            break;
        }
    }
    return lowered;
}

TrustedMasks
trustedMasks(const MicroProgram &program, const Placement &placement,
             std::size_t i, const LoweredOp &lowered)
{
    const MicroOp &op = program.ops[i];
    TrustedMasks masks;
    switch (op.kind) {
      case MicroOpKind::Load:
        break;
      case MicroOpKind::Wide:
        if (const GateSlot *slot = slotOf(placement.gateSlotOf, i,
                                          placement.gateSlots)) {
            masks.compute = slot->mask(op.family);
            masks.reference = slot->mask(
                op.family == BoolOp::And ? BoolOp::Nand : BoolOp::Nor);
            for (const LoweredStep &staging : lowered.prologue) {
                const BitVector &copy =
                    slot->stagingMasks[staging.operand];
                narrow(masks.compute, copy);
                narrow(masks.reference, copy);
            }
        }
        break;
      case MicroOpKind::Not:
        if (const NotSlot *slot = slotOf(placement.notSlotOf, i,
                                         placement.notSlots))
            masks.compute = slot->mask;
        break;
      case MicroOpKind::Maj:
        if (const MajSlot *slot = slotOf(placement.majSlotOf, i,
                                         placement.majSlots))
            masks.compute = slot->mask;
        break;
    }
    return masks;
}

} // namespace fcdram::pud
