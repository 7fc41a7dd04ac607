/**
 * @file
 * Static activation-pressure analysis: counts, per (bank, row), the
 * ACT commands one plan's execution implies and flags rows whose
 * count exceeds a configurable disturbance budget (UPL201).
 *
 * The count reads the lowering the engine interprets (pud/lower.hh):
 * each op's per-trial body — the ACTs of its violated-timing
 * programs, plus one per host row write or read — multiplied by the
 * engine's redundancy, because rowhammer-style disturbance
 * accumulates per physical activation. The once-per-op RowClone
 * staging writes are residency and stay out of the census.
 */

#ifndef FCDRAM_VERIFY_PRESSURE_HH
#define FCDRAM_VERIFY_PRESSURE_HH

#include <cstdint>
#include <map>
#include <utility>

#include "dram/chip.hh"
#include "pud/allocator.hh"
#include "pud/compiler.hh"
#include "verify/diagnostics.hh"

namespace fcdram::verify {

/** Disturbance budget the pressure analysis enforces. */
struct PressureBudget
{
    /**
     * Maximum ACTs any single row may receive within one plan
     * execution before UPL201 fires. The default sits well below
     * contemporary per-refresh-window rowhammer thresholds while
     * leaving wide-redundancy plans room; deployments characterize
     * their modules and tighten it.
     */
    int maxRowActivations = 4800;
};

/** Static per-plan activation census. */
struct ActivationPressureProfile
{
    /** ACT count per (bank, row) for one plan execution. */
    std::map<std::pair<BankId, RowId>, std::int64_t> rowActivations;

    /** Total ACTs across all banks and rows. */
    std::int64_t totalActivations = 0;

    /** Largest per-row count (0 when the plan issues no ACT). */
    std::int64_t maxRowActivations = 0;

    /** Bank and row holding maxRowActivations. */
    BankId hottestBank = 0;
    RowId hottestRow = 0;

    /** Redundancy multiplier the counts include. */
    int redundancy = 1;
};

/**
 * Count the ACTs @p program's execution implies under @p placement
 * and report every row exceeding @p budget as UPL201 into @p sink.
 *
 * @param redundancy Majority-vote trial count (every trial re-issues
 *        each op's body).
 * @param rowCloneCopyIn Lower with CopyInMode::RowClone (staged
 *        operands cloned instead of host-written).
 */
ActivationPressureProfile
analyzeActivationPressure(const pud::MicroProgram &program,
                          const pud::Placement &placement,
                          const Chip &chip, int redundancy,
                          bool rowCloneCopyIn,
                          const PressureBudget &budget,
                          DiagnosticSink &sink);

} // namespace fcdram::verify

#endif // FCDRAM_VERIFY_PRESSURE_HH
