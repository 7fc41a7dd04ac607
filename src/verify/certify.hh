/**
 * @file
 * Static plan certifier: an abstract interpretation over a compiled
 * μprogram that propagates per-output-column error-probability
 * intervals through the dataflow graph, producing a machine-checkable
 * reliability certificate for one placed plan.
 *
 * Per placed op, the gate-level per-trial bit-flip probability is
 * seeded from the analytic SuccessModel margins of the concrete
 * placement (pud::logicSuccessProbabilities and friends), under both
 * MarginCase::Worst (interval upper bound) and MarginCase::Best
 * (lower bound). Majority voting over the engine's redundancy trials
 * amplifies per-trial flips with the exact binomial tail; RowClone
 * copy-in flip probabilities add to the per-trial flip (the clone
 * re-runs every trial); input-value errors are common-mode across the
 * trials of one op and therefore compose AFTER voting. Fan-out /
 * CSE-shared values are handled correlation-safely: input errors
 * combine under the independence product only when the per-value
 * support sets (the op indices each value's error derives from) are
 * provably pairwise disjoint, and under the worst-case union bound
 * otherwise. Columns outside a slot's reliability mask execute on the
 * CPU golden path and carry an error probability of exactly zero.
 *
 * The resulting PlanCertificate is cached on the PlacementPlan next
 * to the lint verdict, checked empirically by bench_certify (measured
 * Monte-Carlo error rates must never exceed the certified upper
 * bounds, and every corpus certificate must meet its reference SLO),
 * and enforced at submit time against an EngineOptions::slo
 * AccuracySlo (UPL202).
 */

#ifndef FCDRAM_VERIFY_CERTIFY_HH
#define FCDRAM_VERIFY_CERTIFY_HH

#include <vector>

#include "dram/chip.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"

namespace fcdram::verify {

/**
 * Submit-time reliability service-level objective. The default is
 * disabled (accepts every certificate); a query service configured
 * with a real SLO rejects plans whose certificate misses either
 * bound.
 */
struct AccuracySlo
{
    /** Minimum certified expected accuracy over the result columns. */
    double minExpectedAccuracy = 0.0;

    /** Maximum certified error bound of any single result column. */
    double maxColumnErrorBound = 1.0;

    /** True when either bound can reject a plan. */
    bool enabled() const
    {
        return minExpectedAccuracy > 0.0 || maxColumnErrorBound < 1.0;
    }
};

/** Certified reliability bounds of one placed plan's result value. */
struct PlanCertificate
{
    /**
     * Per result column: certified upper bound on the probability the
     * returned bit is wrong. Sound for every operand data pattern
     * (Worst margins) at the certified temperature and redundancy.
     */
    std::vector<double> perColumnErrorBound;

    /**
     * Per result column: certified lower bound (Best margins,
     * clone-free), an optimism floor for slack diagnostics. Holds
     * when no op of the column's cone takes the CPU fallback path at
     * runtime (a fallback computes the golden value exactly).
     */
    std::vector<double> perColumnErrorFloor;

    /** Column with the largest certified error bound. */
    ColId worstColumn = 0;

    /** Error bound of worstColumn (0 when there are no columns). */
    double worstColumnErrorBound = 0.0;

    /**
     * Certified expected accuracy: mean over result columns of one
     * minus the per-column error bound.
     */
    double expectedAccuracy = 1.0;

    /** Redundancy (majority-vote trials) the bounds were derived for. */
    int redundancy = 1;

    /** True when the certificate satisfies @p slo. */
    bool meets(const AccuracySlo &slo) const
    {
        return expectedAccuracy >= slo.minExpectedAccuracy &&
               worstColumnErrorBound <= slo.maxColumnErrorBound;
    }
};

/**
 * Certify one placed plan: propagate error intervals through
 * @p program's dataflow as placed by @p placement on @p chip.
 *
 * @param temperature Temperature the margins are evaluated at (the
 *        plan's mask temperature).
 * @param redundancy Majority-vote trial count of the executing
 *        engine. @pre positive and odd.
 * @param rowCloneCopyIn Account for staging->compute RowClone flip
 *        probabilities (CopyInMode::RowClone engines).
 */
PlanCertificate certifyPlan(const pud::MicroProgram &program,
                            const pud::Placement &placement,
                            const Chip &chip, Celsius temperature,
                            int redundancy, bool rowCloneCopyIn);

} // namespace fcdram::verify

#endif // FCDRAM_VERIFY_CERTIFY_HH
