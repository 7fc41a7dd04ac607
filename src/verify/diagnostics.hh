/**
 * @file
 * Diagnostic plumbing for the static plan verifier (src/verify/):
 * severity tiers, the stable rule catalog, and the DiagnosticSink the
 * lint passes report into.
 *
 * Rule IDs are stable API: tests key on them, pudlint reports group by
 * them, and suppressions (should they ever exist) would name them.
 * μprogram/placement rules are UPL0xx, command-program rules UPL1xx.
 * Every rule has exactly one severity, fixed in the catalog:
 *
 *  - Error:   the plan is wrong and must not execute (QueryService
 *             rejects it);
 *  - Warning: the plan executes correctly but wastes work or trusts
 *             nothing to DRAM;
 *  - Note:    informational (e.g. counts of intentionally violated
 *             timing gaps inside labeled epochs).
 *
 * This directory sits above common/config/dram/bender/obs and the
 * pud IR headers (compiler/allocator), and below pud/plan.hh and
 * pud/service.hh, which consume the verdicts.
 */

#ifndef FCDRAM_VERIFY_DIAGNOSTICS_HH
#define FCDRAM_VERIFY_DIAGNOSTICS_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fcdram::verify {

/** Severity tier of a diagnostic. */
enum class Severity : std::uint8_t { Error, Warning, Note };

/** Printable name ("error" / "warning" / "note"). */
const char *toString(Severity severity);

/** One catalog entry: a stable rule ID with its fixed severity. */
struct RuleInfo
{
    const char *id;      ///< Stable ID, e.g. "UPL001".
    Severity severity;   ///< The rule's only severity.
    const char *summary; ///< One-line description (reports, README).
};

/** The full rule catalog, sorted by ID. */
const std::vector<RuleInfo> &ruleCatalog();

/** Catalog entry for @p id, or nullptr when unknown. */
const RuleInfo *findRule(const char *id);

/** One reported finding. */
struct Diagnostic
{
    std::string rule; ///< Catalog ID, e.g. "UPL001".
    Severity severity = Severity::Error;

    /** Locus: module/gate/command, e.g. "op 3 (wide/and) cmd 2". */
    std::string object;

    std::string message;

    /** "error UPL001 at <object>: <message>". */
    std::string toString() const;
};

/**
 * Collector the lint passes report into; doubles as the cached
 * verdict of a verified plan (copyable value type). Severity counts
 * are maintained incrementally so hasErrors() is O(1) on the
 * QueryService submit path.
 */
class DiagnosticSink
{
  public:
    /** Report under @p rule with the catalog severity. */
    void report(const char *rule, std::string object,
                std::string message);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diagnostics_;
    }

    std::size_t count(Severity severity) const
    {
        return counts_[static_cast<std::size_t>(severity)];
    }
    std::size_t errors() const { return count(Severity::Error); }
    std::size_t warnings() const { return count(Severity::Warning); }
    std::size_t notes() const { return count(Severity::Note); }

    bool hasErrors() const { return errors() != 0; }
    bool empty() const { return diagnostics_.empty(); }

    /** First Error-severity diagnostic, or nullptr. */
    const Diagnostic *firstError() const;

    /** Human-readable report, one line per diagnostic plus a tally. */
    void writeText(std::ostream &os) const;

    /**
     * JSON array of {rule, severity, object, message} objects
     * (locale-proof via common/jsonio).
     */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<Diagnostic> diagnostics_;
    std::size_t counts_[3] = {0, 0, 0};
};

} // namespace fcdram::verify

#endif // FCDRAM_VERIFY_DIAGNOSTICS_HH
