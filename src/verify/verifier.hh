/**
 * @file
 * Top-level static plan verifier: one entry point that runs both lint
 * levels over a placed plan before anything touches the (simulated)
 * chip.
 *
 * verifyPlan() chains
 *
 *  1. the μprogram dataflow lint (verify/uplint.hh),
 *  2. the placement lint against the target chip,
 *  3. a mask-temperature consistency check (UPL009), and
 *  4. the command-program lint (verify/cmdlint.hh) over every program
 *     each op executes per trial — the Frac reference init, the
 *     double-ACT logic sequence, cross-subarray NOT, the SiMRA MAJ
 *     activation, RowClone copy-in when enabled, and the host reads —
 *     taken from the lowering (pud/lower.hh) the engine interprets,
 *     under their DramLabel epochs.
 *
 * The returned DiagnosticSink is the cached verdict: PlanCache stores
 * it in the PlacementPlan (so a warm submit re-checks nothing) and
 * QueryService::submit throws VerifyError for Error-bearing plans.
 */

#ifndef FCDRAM_VERIFY_VERIFIER_HH
#define FCDRAM_VERIFY_VERIFIER_HH

#include <stdexcept>
#include <string>

#include "dram/chip.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"
#include "verify/cmdlint.hh"
#include "verify/diagnostics.hh"
#include "verify/uplint.hh"

namespace fcdram::verify {

/**
 * Thrown by QueryService::submit when a plan carries Error
 * diagnostics and verification is enforcing; carries the full
 * verdict for the caller to inspect or render.
 */
class VerifyError : public std::runtime_error
{
  public:
    VerifyError(const std::string &what, DiagnosticSink report)
        : std::runtime_error(what), report_(std::move(report))
    {
    }

    const DiagnosticSink &report() const { return report_; }

  private:
    DiagnosticSink report_;
};

/**
 * Statically verify one placed plan against @p chip.
 *
 * @param maskTemperature Temperature the placement's reliability
 *        masks were derived at.
 * @param executeTemperature Temperature the plan will execute at
 *        (UPL009 on mismatch; the runtime engine additionally
 *        enforces this as a hard error).
 * @param rowCloneCopyIn Lower with CopyInMode::RowClone, so the
 *        staging->compute RowClone programs are linted.
 */
DiagnosticSink verifyPlan(const pud::MicroProgram &program,
                          const pud::Placement &placement,
                          const Chip &chip, Celsius maskTemperature,
                          Celsius executeTemperature,
                          bool rowCloneCopyIn = false);

/**
 * One-line human summary of a verdict for exception messages and
 * logs: the full severity counts ("N error(s), M warning(s), K
 * note(s)") followed by up to three diagnostics, errors first.
 * VerifyError messages embed this so a caller that only sees what()
 * still learns the shape of the failure.
 */
std::string summarizeVerdict(const DiagnosticSink &report);

} // namespace fcdram::verify

#endif // FCDRAM_VERIFY_VERIFIER_HH
