/**
 * @file
 * pudlint: standalone static verifier over the PuD query corpus.
 *
 * Compiles every query shape of the corpus (tools/corpus.hh: the
 * bench_pud_query sweep plus MAJ gates) for each of the paper's
 * manufacturer profiles, places the programs on a fresh chip, and
 * runs the full static verifier (verify::verifyPlan) over each plan:
 * μprogram dataflow, placement/capability, and the lowered command
 * programs the engine executes (pud/lower.hh). Prints a per-plan text
 * report to stdout, optionally dumps the findings as JSON
 * (--json-out=PATH, consumed by CI as a build artifact), and exits
 * non-zero when any Error-severity diagnostic fired — the same plans
 * QueryService::submit would reject. bench_certify certifies and
 * measures the same plans.
 *
 * Usage: pudlint [--json-out=PATH]
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "corpus.hh"
#include "pud/service.hh"
#include "verify/verifier.hh"

using namespace fcdram;
using namespace fcdram::pud;

namespace {

struct RunRecord
{
    std::string profile;
    std::string backend;
    std::string query;
    bool rowClone = false;
    verify::DiagnosticSink verdict;
};

void
writeJsonReport(std::ostream &os, const std::vector<RunRecord> &runs)
{
    os << "{\n  \"tool\": \"pudlint\",\n  \"runs\": [\n";
    bool firstRun = true;
    for (const RunRecord &run : runs) {
        if (!firstRun)
            os << ",\n";
        firstRun = false;
        os << "    {\"profile\": " << jsonQuote(run.profile)
           << ", \"backend\": " << jsonQuote(run.backend)
           << ", \"query\": " << jsonQuote(run.query)
           << ", \"rowclone\": " << (run.rowClone ? "true" : "false")
           << ", \"errors\": "
           << jsonNumber(
                  static_cast<std::uint64_t>(run.verdict.errors()))
           << ", \"warnings\": "
           << jsonNumber(
                  static_cast<std::uint64_t>(run.verdict.warnings()))
           << ", \"notes\": "
           << jsonNumber(
                  static_cast<std::uint64_t>(run.verdict.notes()))
           << ", \"diagnostics\": ";
        run.verdict.writeJson(os);
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOutPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0 &&
            arg.size() > std::string("--json-out=").size()) {
            jsonOutPath = arg.substr(std::string("--json-out=").size());
        } else {
            std::cerr << "usage: " << argv[0] << " [--json-out=PATH]\n";
            return 2;
        }
    }

    ExprPool pool;
    const std::vector<corpus::QuerySpec> queries =
        corpus::buildCorpus(pool);
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());

    std::vector<RunRecord> runs;
    std::size_t totalErrors = 0;
    std::size_t totalWarnings = 0;
    std::size_t totalNotes = 0;

    for (const corpus::ProfileSpec &spec : corpus::buildProfiles()) {
        const Chip chip =
            session->checkoutChip(spec.profile, corpus::kChipSeed);
        const RowAllocator allocator(chip, corpus::kChipSeed);
        for (const BackendChoice backend : spec.backends) {
            EngineOptions options;
            options.backend = backend;
            const PudEngine engine(session, options);
            for (const corpus::QuerySpec &query : queries) {
                const MicroProgram program =
                    engine.compileFor(pool, query.root, chip);
                const Placement placement = allocator.place(program);
                // Lint both copy-in flavors: RowClone additionally
                // covers the staging->compute clone programs.
                for (const bool rowClone : {false, true}) {
                    RunRecord run;
                    run.profile = spec.label;
                    run.backend = toString(backend);
                    run.query = query.label;
                    run.rowClone = rowClone;
                    run.verdict = verify::verifyPlan(
                        program, placement, chip, chip.temperature(),
                        chip.temperature(), rowClone);

                    std::cout << run.profile << " / " << run.backend
                              << (rowClone ? " / rowclone" : "")
                              << " / " << run.query << ": "
                              << run.verdict.errors() << " error(s), "
                              << run.verdict.warnings()
                              << " warning(s), " << run.verdict.notes()
                              << " note(s)\n";
                    for (const verify::Diagnostic &diagnostic :
                         run.verdict.diagnostics())
                        std::cout << "  " << diagnostic.toString()
                                  << "\n";

                    totalErrors += run.verdict.errors();
                    totalWarnings += run.verdict.warnings();
                    totalNotes += run.verdict.notes();
                    runs.push_back(std::move(run));
                }
            }
        }
    }

    std::cout << "\npudlint: " << runs.size() << " plan(s), "
              << totalErrors << " error(s), " << totalWarnings
              << " warning(s), " << totalNotes << " note(s)\n";

    if (!jsonOutPath.empty()) {
        std::ofstream out(jsonOutPath);
        if (!out) {
            std::cerr << "pudlint: cannot write " << jsonOutPath
                      << "\n";
            return 2;
        }
        writeJsonReport(out, runs);
        std::cout << "JSON report written to " << jsonOutPath << "\n";
    }

    return totalErrors == 0 ? 0 : 1;
}
