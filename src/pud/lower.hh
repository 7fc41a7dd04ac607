/**
 * @file
 * The PuD lowering: one pure function from a placed μprogram to the
 * ordered DDR4 command stream each op issues, as fcdram::Steps. It is
 * the only description of what the simulator does per op:
 *
 *  - PudEngine::execute runs the steps through fcdram::runSteps;
 *  - verify::verifyPlan lints their programs;
 *  - verify::analyzeActivationPressure counts their ACTs;
 *  - verify::certifyPlan reads the clone-or-write choice from them;
 *  - trustedMasks turns that choice into the columns a placed op's
 *    DRAM result is trusted for, the one rule both PudEngine::execute
 *    (which columns keep the DRAM bits) and verify::certifyPlan
 *    (which columns carry an error bound) apply;
 *  - the engine prices QueryResult::dram, load and bankBusyNs from
 *    their programs.
 *
 * The reference init, logic fire and MAJ group are fcdram::StepWriter
 * recipes, shared with Ops and the paper's trial method; the lowering
 * adds the copy-in, NOT and read steps, with the placed rows. Per
 * trial, an op issues:
 *
 *  - wide N-input gate: the reference init, one copy-in per operand
 *    (host write, or RowClone from its staging row), the logic fire,
 *    then the compute and reference reads;
 *  - NOT: source and destination writes, the copy program, the
 *    destination read;
 *  - SiMRA MAJ: the MAJ group over its slot's rows.
 */

#ifndef FCDRAM_PUD_LOWER_HH
#define FCDRAM_PUD_LOWER_HH

#include <cstdint>
#include <vector>

#include "dram/chip.hh"
#include "fcdram/ops.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"

namespace fcdram::pud {

/** How operand values reach the compute rows. */
enum class CopyInMode : std::uint8_t {
    /** One host write per operand and trial. */
    HostWrite,

    /**
     * In-DRAM RowClone from the slot's staging rows for loaded
     * columns: the staging write is residency (once per op), each
     * trial clones. Computed operands and compute rows without a
     * staging row are host-written. Columns outside the copy's
     * reliable mask shrink the gate mask.
     */
    RowClone,
};

/** One μop's command stream. */
struct LoweredOp
{
    /** Once per op: the RowClone staging writes (residency). */
    std::vector<Step> prologue;

    /**
     * One majority-vote trial in issue order, repeated per trial.
     * Empty when the op runs on the CPU: Loads, unplaced ops, and
     * gates whose Frac row has no pair-activating donor.
     */
    std::vector<Step> body;
};

/**
 * Lower every op of @p program as placed by @p placement on @p chip;
 * element i belongs to program.ops[i]. Malformed placements (the
 * placement lint's UPL0xx findings) lower to empty ops.
 */
std::vector<LoweredOp> lower(const MicroProgram &program,
                             const Placement &placement,
                             const Chip &chip, CopyInMode copyIn);

/** Columns a placed op's DRAM result is trusted for, per vote set. */
struct TrustedMasks
{
    BitVector compute;   ///< AND/OR, NOT or MAJ result.
    BitVector reference; ///< NAND/NOR result of a wide gate.
};

/**
 * Trusted columns of op @p i as placed by @p placement and lowered to
 * @p lowered (element i of lower()): the slot's reliability mask per
 * result side, narrowed for a wide gate by the staging mask of every
 * RowClone copy-in in its prologue (a column the clone cannot serve
 * reliably leaves both sides). A mask not sized like the staging mask
 * (the placement lint's UPL010) is left unnarrowed. Empty masks when
 * the op has no slot. After the allocator's threshold cut, this is
 * the only place a placed op's trusted columns shrink.
 */
TrustedMasks trustedMasks(const MicroProgram &program,
                          const Placement &placement, std::size_t i,
                          const LoweredOp &lowered);

} // namespace fcdram::pud

#endif // FCDRAM_PUD_LOWER_HH
