#include "verify/verifier.hh"

#include <sstream>
#include <string>
#include <vector>

#include "pud/lower.hh"

namespace fcdram::verify {

using pud::MicroProgram;
using pud::Placement;

DiagnosticSink
verifyPlan(const MicroProgram &program, const Placement &placement,
           const Chip &chip, Celsius maskTemperature,
           Celsius executeTemperature, bool rowCloneCopyIn)
{
    DiagnosticSink sink;
    lintMicroProgram(program, sink);
    lintPlacement(program, placement, chip, sink);

    if (maskTemperature != executeTemperature) {
        std::ostringstream message;
        message << "reliability masks derived at " << maskTemperature
                << "C, plan executes at " << executeTemperature
                << "C (stale masks must be re-derived)";
        sink.report("UPL009", "plan", message.str());
    }

    // Command-level lint of what each op issues per trial: the
    // lowered programs the engine executes (host writes land rows
    // directly and issue no commands).
    const std::vector<pud::LoweredOp> lowered = pud::lower(
        program, placement, chip,
        rowCloneCopyIn ? pud::CopyInMode::RowClone
                       : pud::CopyInMode::HostWrite);
    CommandLintContext context;
    context.ignoresViolatedCommands =
        chip.profile().decoder.ignoresViolatedCommands;
    for (std::size_t i = 0; i < lowered.size(); ++i) {
        for (const Step &step : lowered[i].body) {
            if (step.kind == Step::Kind::Write)
                continue;
            context.epoch = step.label;
            context.locus =
                std::string("op ") + std::to_string(i) + " " + step.label;
            lintCommandProgram(step.program, context, sink);
        }
    }
    return sink;
}

DiagnosticSink
verifyPlan(const MicroProgram &program, const Placement &placement,
           const Chip &chip, Celsius maskTemperature)
{
    return verifyPlan(program, placement, chip, maskTemperature,
                      chip.temperature());
}

std::string
summarizeVerdict(const DiagnosticSink &report)
{
    std::ostringstream out;
    out << report.errors() << " error(s), " << report.warnings()
        << " warning(s), " << report.notes() << " note(s)";
    std::size_t shown = 0;
    for (const Diagnostic &diagnostic : report.diagnostics()) {
        if (diagnostic.severity != Severity::Error)
            continue;
        out << (shown == 0 ? "; top: " : "; ")
            << diagnostic.toString();
        if (++shown == 3)
            break;
    }
    if (shown < 3) {
        for (const Diagnostic &diagnostic : report.diagnostics()) {
            if (diagnostic.severity == Severity::Error)
                continue;
            out << (shown == 0 ? "; top: " : "; ")
                << diagnostic.toString();
            if (++shown == 3)
                break;
        }
    }
    return out.str();
}

} // namespace fcdram::verify
