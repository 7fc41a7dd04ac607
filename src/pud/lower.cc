#include "pud/lower.hh"

namespace fcdram::pud {

namespace {

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
    if (!body.reference(op.family, slot.refRows))
        return {};
    for (std::size_t k = 0; k < width; ++k) {
        const ValueId input = op.inputs[k];
        const bool clone = copyIn == CopyInMode::RowClone &&
                           input < isColumn.size() && isColumn[input] &&
                           k < slot.stagingRows.size() &&
                           slot.stagingRows[k] != kInvalidRow;
        if (!clone) {
            body.write(slot.computeRows[k], Step::Source::Operand, k);
            continue;
        }
        prologue.write(slot.stagingRows[k], Step::Source::Operand, k);
        body.run("RowClone",
                 copyProgram(body.speed(), slot.context.bank,
                             slot.stagingRows[k], slot.computeRows[k]));
    }
    body.logic(slot.refAnchor, slot.comAnchor);
    body.read(slot.computeRows.front(), Step::Sink::Compute);
    body.read(slot.refRows.front(), Step::Sink::Reference);
    return lowered;
}

LoweredOp
lowerNot(const Chip &chip, const NotSlot &slot)
{
    LoweredOp lowered;
    StepWriter body{chip, slot.context.bank, lowered.body};
    body.write(slot.srcRow, Step::Source::Operand);
    // The destination starts as the source value, so a failed
    // (retaining) cell reads as stale data, not as a success.
    body.write(slot.dstRow, Step::Source::Operand);
    body.run("NOT",
             copyProgram(body.speed(), slot.context.bank, slot.srcRow,
                         slot.dstRow),
             1);
    body.read(slot.dstRow, Step::Sink::Compute);
    return lowered;
}

LoweredOp
lowerMaj(const Chip &chip, const MicroOp &op, const MajSlot &slot)
{
    if (static_cast<int>(slot.rows.size()) != op.activatedRows ||
        op.width() + op.constantOnes + op.constantZeros +
                op.neutralRows !=
            op.activatedRows)
        return {};
    LoweredOp lowered;
    if (!StepWriter{chip, slot.context.bank, lowered.body}.maj(
            slot.rfAnchor, slot.rlAnchor, slot.rows, op.inputs.size(),
            static_cast<std::size_t>(op.constantOnes),
            static_cast<std::size_t>(op.constantZeros)))
        return {};
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
            for (const Step &staging : lowered.prologue) {
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
