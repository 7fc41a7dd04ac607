#include "verify/pressure.hh"

#include <sstream>
#include <vector>

#include "pud/lower.hh"

namespace fcdram::verify {

ActivationPressureProfile
analyzeActivationPressure(const pud::MicroProgram &program,
                          const pud::Placement &placement,
                          const Chip &chip, int redundancy,
                          bool rowCloneCopyIn,
                          const PressureBudget &budget,
                          DiagnosticSink &sink)
{
    ActivationPressureProfile profile;
    profile.redundancy = redundancy;

    // Every trial re-issues each op's body: its programs' ACTs plus
    // the ACT of each host write and read. The once-per-op staging
    // writes are residency and stay out of the census.
    const auto weight = static_cast<std::int64_t>(redundancy);
    for (const pud::LoweredOp &op : pud::lower(
             program, placement, chip,
             rowCloneCopyIn ? pud::CopyInMode::RowClone
                            : pud::CopyInMode::HostWrite)) {
        for (const Step &step : op.body) {
            for (const Command &command : step.program.commands) {
                if (command.type != CommandType::Act)
                    continue;
                profile.rowActivations[{command.bank, command.row}] +=
                    weight;
                profile.totalActivations += weight;
            }
        }
    }

    for (const auto &[key, count] : profile.rowActivations) {
        if (count > profile.maxRowActivations) {
            profile.maxRowActivations = count;
            profile.hottestBank = key.first;
            profile.hottestRow = key.second;
        }
        if (count >
            static_cast<std::int64_t>(budget.maxRowActivations)) {
            std::ostringstream object;
            object << "bank " << static_cast<int>(key.first) << " row "
                   << key.second;
            std::ostringstream message;
            message << count << " activations in one plan execution "
                    << "(redundancy " << redundancy << ") exceed the "
                    << "disturbance budget of "
                    << budget.maxRowActivations;
            sink.report("UPL201", object.str(), message.str());
        }
    }
    return profile;
}

} // namespace fcdram::verify
