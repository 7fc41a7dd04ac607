/**
 * @file
 * pudlint: standalone static verifier over the PuD query corpus.
 *
 * Compiles every query shape the benches exercise (the bench_pud_query
 * sweep plus MAJ gates) for each of the paper's manufacturer profiles,
 * places the programs on a fresh chip, and runs the full static
 * verifier (verify::verifyPlan) over each plan: μprogram dataflow,
 * placement/capability, and the lowered command programs the engine
 * executes (pud/lower.hh). Prints a per-plan text report to stdout,
 * optionally dumps the findings as JSON (--json-out=PATH, consumed by
 * CI as a build artifact), and exits non-zero when any Error-severity
 * diagnostic fired — the same plans QueryService::submit would reject
 * under VerifyPolicy::Enforce.
 *
 * --certify additionally derives each plan's reliability certificate
 * (verify::certifyPlan), executes the plan --certify-runs times with
 * varied seeds to measure actual per-column error rates, prints
 * certified-bound-vs-measured columns, checks the certificate against
 * the reference SLO (min expected accuracy 99.5%, max per-column
 * error bound 5%), and exits non-zero when any plan's certificate is
 * SLO-infeasible.
 *
 * Usage: pudlint [--json-out=PATH] [--certify] [--certify-runs=N]
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "common/rng.hh"
#include "pud/service.hh"
#include "verify/certify.hh"
#include "verify/verifier.hh"

using namespace fcdram;
using namespace fcdram::pud;

namespace {

struct QuerySpec
{
    std::string label;
    ExprId root = kNoExpr;
};

struct ProfileSpec
{
    std::string label;
    ChipProfile profile;

    /** Backend choices to lint this profile under. */
    std::vector<BackendChoice> backends;
};

struct RunRecord
{
    std::string profile;
    std::string backend;
    std::string query;
    bool rowClone = false;
    verify::DiagnosticSink verdict;

    // --certify only.
    bool certified = false;
    verify::PlanCertificate certificate;
    double measuredWorstRate = 0.0;
    double measuredAccuracy = 1.0;
    bool sloOk = true;
};

/**
 * Reference SLO the --certify mode checks certificates against:
 * chosen so every clean corpus plan is feasible (masked per-trial
 * flip probabilities sit at or below 1e-4, so even 16-deep chains
 * certify well under these bounds) while a vacuous certifier would
 * trip it immediately.
 */
constexpr double kSloMinExpectedAccuracy = 0.995;
constexpr double kSloMaxColumnErrorBound = 0.05;

/** The bench_pud_query sweep plus explicit MAJ gates. */
std::vector<QuerySpec>
buildCorpus(ExprPool &pool)
{
    std::vector<ExprId> cols;
    for (int i = 0; i < 16; ++i)
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));

    std::vector<QuerySpec> corpus;
    for (const int width : {2, 4, 8, 16}) {
        const std::vector<ExprId> slice(cols.begin(),
                                        cols.begin() + width);
        corpus.push_back({std::string("AND-") + std::to_string(width),
                          pool.mkAnd(slice)});
        corpus.push_back({std::string("OR-") + std::to_string(width),
                          pool.mkOr(slice)});
    }
    corpus.push_back(
        {"(a&~b)|(c&d)",
         pool.mkOr(pool.mkAnd(cols[0], pool.mkNot(cols[1])),
                   pool.mkAnd(cols[2], cols[3]))});
    corpus.push_back(
        {"XOR-4", pool.mkXor({cols[0], cols[1], cols[2], cols[3]})});
    corpus.push_back({"MAJ-3", pool.mkMaj({cols[0], cols[1], cols[2]})});
    corpus.push_back({"MAJ-5", pool.mkMaj({cols[0], cols[1], cols[2],
                                           cols[3], cols[4]})});
    return corpus;
}

/**
 * One calibrated profile per manufacturer/die the paper
 * characterizes. Forced backends only where the design supports the
 * basis (a forced-incapable combination is the verifier's job to
 * reject, exercised by tests/test_verify.cc, not a clean corpus).
 */
std::vector<ProfileSpec>
buildProfiles()
{
    const std::vector<BackendChoice> all = {BackendChoice::Auto,
                                            BackendChoice::NandNor,
                                            BackendChoice::SimraMaj};
    const std::vector<BackendChoice> autoOnly = {BackendChoice::Auto};
    return {
        {"SKHynix-4Gb-M",
         ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666),
         all},
        {"SKHynix-4Gb-A",
         ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133),
         all},
        {"Samsung-4Gb-F",
         ChipProfile::make(Manufacturer::Samsung, 4, 'F', 8, 2666),
         autoOnly},
        {"Micron-8Gb-B",
         ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666),
         autoOnly},
    };
}

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
        if (run.certified) {
            os << ", \"certify\": {\"expectedAccuracy\": "
               << jsonNumber(run.certificate.expectedAccuracy)
               << ", \"worstColumn\": "
               << jsonNumber(static_cast<std::uint64_t>(
                      run.certificate.worstColumn))
               << ", \"worstColumnErrorBound\": "
               << jsonNumber(run.certificate.worstColumnErrorBound)
               << ", \"redundancy\": "
               << jsonNumber(static_cast<std::uint64_t>(
                      run.certificate.redundancy))
               << ", \"measuredWorstRate\": "
               << jsonNumber(run.measuredWorstRate)
               << ", \"measuredAccuracy\": "
               << jsonNumber(run.measuredAccuracy)
               << ", \"sloOk\": " << (run.sloOk ? "true" : "false")
               << "}";
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOutPath;
    bool certify = false;
    int certifyRuns = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0 &&
            arg.size() > std::string("--json-out=").size()) {
            jsonOutPath = arg.substr(std::string("--json-out=").size());
        } else if (arg == "--certify") {
            certify = true;
        } else if (arg.rfind("--certify-runs=", 0) == 0 &&
                   arg.size() >
                       std::string("--certify-runs=").size()) {
            certifyRuns = std::atoi(
                arg.substr(std::string("--certify-runs=").size())
                    .c_str());
            if (certifyRuns <= 0) {
                std::cerr << "pudlint: --certify-runs must be "
                             "positive\n";
                return 2;
            }
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json-out=PATH] [--certify]"
                         " [--certify-runs=N]\n";
            return 2;
        }
    }

    ExprPool pool;
    const std::vector<QuerySpec> corpus = buildCorpus(pool);
    const std::vector<ProfileSpec> profiles = buildProfiles();

    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    constexpr std::uint64_t kChipSeed = 0x11D7;

    std::vector<RunRecord> runs;
    std::size_t totalErrors = 0;
    std::size_t totalWarnings = 0;
    std::size_t totalNotes = 0;
    std::size_t sloInfeasible = 0;
    const verify::AccuracySlo slo{kSloMinExpectedAccuracy,
                                  kSloMaxColumnErrorBound};
    std::vector<std::string> columnNames;
    for (int i = 0; i < 16; ++i)
        columnNames.push_back(std::string("c") + std::to_string(i));

    for (const ProfileSpec &spec : profiles) {
        const Chip chip = session->checkoutChip(spec.profile, kChipSeed);
        const RowAllocator allocator(chip, kChipSeed);
        for (const BackendChoice backend : spec.backends) {
            EngineOptions options;
            options.backend = backend;
            const PudEngine engine(session, options);
            for (const QuerySpec &query : corpus) {
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

                    if (certify) {
                        run.certified = true;
                        run.certificate = verify::certifyPlan(
                            program, placement, chip,
                            chip.temperature(),
                            engine.options().redundancy, rowClone);
                        run.sloOk = run.certificate.meets(slo);

                        // Monte-Carlo measurement: execute the plan
                        // with varied bender and data seeds and count
                        // per-column result mismatches vs golden.
                        const std::size_t columns =
                            chip.geometry().columns;
                        std::vector<std::size_t> mismatches(columns,
                                                            0);
                        EngineOptions execOptions = engine.options();
                        execOptions.copyIn =
                            rowClone ? CopyInMode::RowClone
                                     : CopyInMode::HostWrite;
                        const PudEngine execEngine(session,
                                                   execOptions);
                        for (int r = 0; r < certifyRuns; ++r) {
                            const auto data =
                                PudEngine::randomColumns(
                                    columnNames, columns,
                                    hashCombine(kChipSeed,
                                                0xDA7A00 + r));
                            Chip runChip = session->checkoutChip(
                                spec.profile, kChipSeed);
                            const QueryResult result =
                                execEngine.execute(
                                    program, placement,
                                    chip.temperature(), runChip,
                                    hashCombine(kChipSeed,
                                                0xBE6D00 + r),
                                    data);
                            const BitVector diff =
                                result.output ^ result.golden;
                            for (std::size_t col = 0; col < columns;
                                 ++col)
                                if (diff.get(col))
                                    ++mismatches[col];
                        }
                        double worst = 0.0;
                        double accuracySum = 0.0;
                        for (std::size_t col = 0; col < columns;
                             ++col) {
                            const double rate =
                                static_cast<double>(
                                    mismatches[col]) /
                                static_cast<double>(certifyRuns);
                            worst = std::max(worst, rate);
                            accuracySum += 1.0 - rate;
                        }
                        run.measuredWorstRate = worst;
                        run.measuredAccuracy =
                            columns == 0
                                ? 1.0
                                : accuracySum /
                                      static_cast<double>(columns);
                        if (!run.sloOk)
                            ++sloInfeasible;
                    }

                    std::cout << run.profile << " / " << run.backend
                              << (rowClone ? " / rowclone" : "")
                              << " / " << run.query << ": "
                              << run.verdict.errors() << " error(s), "
                              << run.verdict.warnings()
                              << " warning(s), " << run.verdict.notes()
                              << " note(s)";
                    if (run.certified) {
                        std::cout
                            << " | certified acc "
                            << run.certificate.expectedAccuracy
                            << ", worst bound "
                            << run.certificate.worstColumnErrorBound
                            << " (col "
                            << run.certificate.worstColumn
                            << ") | measured acc "
                            << run.measuredAccuracy
                            << ", worst rate "
                            << run.measuredWorstRate << " | SLO "
                            << (run.sloOk ? "ok" : "VIOLATION");
                    }
                    std::cout << "\n";
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
    if (certify)
        std::cout << "pudlint: " << sloInfeasible
                  << " SLO-infeasible plan(s) (min accuracy "
                  << kSloMinExpectedAccuracy << ", max column bound "
                  << kSloMaxColumnErrorBound << ")\n";

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

    return totalErrors == 0 && sloInfeasible == 0 ? 0 : 1;
}
