/**
 * @file
 * Empirical validation of the static plan certifier
 * (verify/certify.hh) over the pudlint corpus (tools/corpus.hh):
 * every (query, profile, backend, rowclone) plan is certified and
 * then executed --runs times with varied bender and data seeds, and
 * the measured per-column Monte-Carlo error rates are tested against
 * the certified bounds.
 *
 * Three hard gates (non-zero exit on failure):
 *
 *  - Soundness: no column's measured error count may statistically
 *    exceed its certified upper bound. The test is an exact binomial
 *    hypothesis test — with k errors in R runs against bound p, the
 *    plan fails iff P(X >= k | X ~ Binomial(R, p)) < 1e-6, so a
 *    sound certifier never trips it by sampling noise; a zero bound
 *    with any observed error fails outright.
 *
 *  - Non-vacuousness: over plans with a non-zero worst bound, the
 *    median slack worstBound / max(worstMeasuredRate, 1/R) must stay
 *    below 10x (1/R is the measurement floor of R runs: rates below
 *    it are indistinguishable from zero, so bounds under the floor
 *    are non-vacuous by convention).
 *
 *  - Reference SLO: every certificate meets min expected accuracy
 *    99.5% and max per-column error bound 5%, chosen so every clean
 *    corpus plan is feasible (masked per-trial flip probabilities sit
 *    at or below 1e-4, so even 16-deep chains certify well under
 *    these bounds) while a vacuous certifier would trip it at once.
 *
 * A second section re-certifies the SK Hynix module at redundancy 3
 * and checks the voted bounds the same way (majority voting must
 * shrink, never grow, the certified bounds).
 *
 * Usage: bench_certify [--runs=N] [--workers=N] [--seed=X]
 *                      [--json-out=PATH]
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "common/bitvector.hh"
#include "common/mathutil.hh"
#include "common/rng.hh"
#include "corpus.hh"
#include "pud/service.hh"
#include "verify/certify.hh"

using namespace fcdram;
using namespace fcdram::pud;

namespace {

using corpus::kChipSeed;
using corpus::ProfileSpec;
using corpus::QuerySpec;

constexpr double kSoundnessPValue = 1e-6;
constexpr double kVacuousSlack = 10.0;

/** The reference SLO every corpus certificate must meet. */
constexpr verify::AccuracySlo kReferenceSlo{0.995, 0.05};

/** Outcome of one certified-and-measured plan. */
struct PlanOutcome
{
    std::string label;
    double worstBound = 0.0;
    double worstMeasured = 0.0;
    std::size_t soundnessViolations = 0;

    /** The certificate meets kReferenceSlo. */
    bool sloOk = true;
};

/**
 * Certify one plan and measure it over @p runs executions, testing
 * every column's error count against its certified bound.
 */
PlanOutcome
checkPlan(const std::shared_ptr<FleetSession> &session,
          const ProfileSpec &spec, const std::string &label,
          const PudEngine &engine, const MicroProgram &program,
          const Placement &placement, const Chip &chip, bool rowClone,
          int runs, const std::vector<std::string> &columnNames)
{
    PlanOutcome outcome;
    outcome.label = label;

    const verify::PlanCertificate certificate = verify::certifyPlan(
        program, placement, chip, chip.temperature(),
        engine.options().redundancy, rowClone);
    outcome.worstBound = certificate.worstColumnErrorBound;
    outcome.sloOk = certificate.meets(kReferenceSlo);

    const std::size_t columns = chip.geometry().columns;
    std::vector<std::size_t> mismatches(columns, 0);
    for (int r = 0; r < runs; ++r) {
        const auto data = PudEngine::randomColumns(
            columnNames, columns, hashCombine(kChipSeed, 0xDA7A00 + r));
        Chip runChip = session->checkoutChip(spec.profile, kChipSeed);
        const QueryResult result = engine.execute(
            program, placement, chip.temperature(), runChip,
            hashCombine(kChipSeed, 0xBE6D00 + r), data);
        const BitVector diff = result.output ^ result.golden;
        for (std::size_t col = 0; col < columns; ++col)
            if (diff.get(col))
                ++mismatches[col];
    }

    for (std::size_t col = 0; col < columns; ++col) {
        const std::size_t k = mismatches[col];
        const double rate =
            static_cast<double>(k) / static_cast<double>(runs);
        outcome.worstMeasured = std::max(outcome.worstMeasured, rate);
        if (k == 0)
            continue;
        const double bound =
            col < certificate.perColumnErrorBound.size()
                ? certificate.perColumnErrorBound[col]
                : 0.0;
        // Exact binomial test: can k errors in `runs` draws happen
        // under the certified bound? A zero bound with any error is
        // an outright soundness failure.
        if (bound <= 0.0 ||
            binomialTail(runs, static_cast<int>(k), bound) <
                kSoundnessPValue) {
            ++outcome.soundnessViolations;
            std::cout << "  SOUNDNESS VIOLATION: " << label << " col "
                      << col << ": " << k << "/" << runs
                      << " errors vs bound " << bound << "\n";
        }
    }
    return outcome;
}

double
medianSlack(const std::vector<PlanOutcome> &outcomes, int runs)
{
    const double floor = 1.0 / static_cast<double>(runs);
    std::vector<double> slacks;
    for (const PlanOutcome &outcome : outcomes) {
        if (outcome.worstBound <= 0.0)
            continue;
        slacks.push_back(outcome.worstBound /
                         std::max(outcome.worstMeasured, floor));
    }
    if (slacks.empty())
        return 0.0;
    std::sort(slacks.begin(), slacks.end());
    return quantileSorted(slacks, 0.5);
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel --runs=N before handing the rest to the shared arg parser
    // (which exits on anything it does not know).
    int runs = 100;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--runs=", 0) == 0 && arg.size() > 7) {
            runs = std::atoi(arg.c_str() + 7);
            if (runs <= 0) {
                std::cerr << "bench_certify: --runs must be "
                             "positive\n";
                return 2;
            }
        } else {
            passthrough.push_back(argv[i]);
        }
    }

    // Same session configuration and chip seed as pudlint, so the
    // plans certified here are the ones pudlint lints.
    CampaignConfig config = CampaignConfig::forTests();
    benchutil::applyArgs(config,
                         static_cast<int>(passthrough.size()),
                         passthrough.data());
    const auto session = std::make_shared<FleetSession>(config);

    ExprPool pool;
    const std::vector<QuerySpec> queries = corpus::buildCorpus(pool);
    const std::vector<ProfileSpec> profiles = corpus::buildProfiles();
    const std::vector<std::string> columnNames = corpus::columnNames();

    benchutil::BenchReport report("certify");
    std::vector<PlanOutcome> outcomes;
    std::size_t violations = 0;

    std::cout << "== Certified bounds vs " << runs
              << "-run Monte-Carlo, redundancy 1 ==\n";
    for (const ProfileSpec &spec : profiles) {
        const Chip chip =
            session->checkoutChip(spec.profile, kChipSeed);
        const RowAllocator allocator(chip, kChipSeed);
        for (const BackendChoice backend : spec.backends) {
            for (const QuerySpec &query : queries) {
                // Placement is copy-in independent; certify + measure
                // both flavors of the same placed program.
                EngineOptions compileOptions;
                compileOptions.backend = backend;
                const PudEngine compileEngine(session, compileOptions);
                const MicroProgram program =
                    compileEngine.compileFor(pool, query.root, chip);
                const Placement placement = allocator.place(program);
                for (const bool rowClone : {false, true}) {
                    EngineOptions options = compileOptions;
                    options.copyIn = rowClone ? CopyInMode::RowClone
                                              : CopyInMode::HostWrite;
                    const PudEngine engine(session, options);
                    const std::string label =
                        spec.label + "/" + toString(backend) + "/" +
                        query.label + (rowClone ? "/rowclone" : "");
                    outcomes.push_back(checkPlan(
                        session, spec, label, engine, program,
                        placement, chip, rowClone, runs,
                        columnNames));
                    violations +=
                        outcomes.back().soundnessViolations;
                }
            }
        }
    }
    report.lap("corpus_redundancy1");

    // Redundancy 3: majority voting must shrink the certified bounds
    // and the measured rates together (same soundness test).
    std::cout << "== SK Hynix redundancy-3 subsection ==\n";
    std::vector<PlanOutcome> votedOutcomes;
    {
        const ProfileSpec &spec = profiles.front();
        const Chip chip =
            session->checkoutChip(spec.profile, kChipSeed);
        const RowAllocator allocator(chip, kChipSeed);
        for (const QuerySpec &query : queries) {
            EngineOptions compileOptions;
            compileOptions.backend = BackendChoice::Auto;
            compileOptions.redundancy = 3;
            const PudEngine compileEngine(session, compileOptions);
            const MicroProgram program =
                compileEngine.compileFor(pool, query.root, chip);
            const Placement placement = allocator.place(program);
            for (const bool rowClone : {false, true}) {
                EngineOptions options = compileOptions;
                options.copyIn = rowClone ? CopyInMode::RowClone
                                          : CopyInMode::HostWrite;
                const PudEngine engine(session, options);
                const std::string label = spec.label + "/auto-r3/" +
                                          query.label +
                                          (rowClone ? "/rowclone" : "");
                votedOutcomes.push_back(checkPlan(
                    session, spec, label, engine, program, placement,
                    chip, rowClone, runs, columnNames));
                violations +=
                    votedOutcomes.back().soundnessViolations;
            }
        }
    }
    report.lap("skhynix_redundancy3");

    const double slack = medianSlack(outcomes, runs);
    const bool vacuous = slack > kVacuousSlack;

    double maxBound = 0.0;
    double maxMeasured = 0.0;
    std::size_t certifiedNonZero = 0;
    for (const PlanOutcome &outcome : outcomes) {
        maxBound = std::max(maxBound, outcome.worstBound);
        maxMeasured =
            std::max(maxMeasured, outcome.worstMeasured);
        if (outcome.worstBound > 0.0)
            ++certifiedNonZero;
    }
    std::size_t sloInfeasible = 0;
    for (const auto *section : {&outcomes, &votedOutcomes})
        for (const PlanOutcome &outcome : *section)
            sloInfeasible += outcome.sloOk ? 0 : 1;

    std::cout << "\nbench_certify: "
              << outcomes.size() + votedOutcomes.size()
              << " plan(s), " << runs << " run(s) each, " << violations
              << " soundness violation(s), median slack " << slack
              << "x (" << certifiedNonZero
              << " plans with non-zero bounds)\n";
    std::cout << "bench_certify: " << sloInfeasible << " of "
              << outcomes.size() + votedOutcomes.size()
              << " plan(s) SLO-infeasible (min accuracy "
              << kReferenceSlo.minExpectedAccuracy
              << ", max column bound "
              << kReferenceSlo.maxColumnErrorBound << ")\n";

    report.metric("plans", static_cast<double>(outcomes.size()));
    report.metric("voted_plans",
                  static_cast<double>(votedOutcomes.size()));
    report.metric("runs_per_plan", static_cast<double>(runs));
    report.metric("soundness_violations",
                  static_cast<double>(violations));
    report.metric("median_slack", slack);
    report.metric("max_certified_bound", maxBound);
    report.metric("max_measured_rate", maxMeasured);
    report.metric("plans_with_nonzero_bound",
                  static_cast<double>(certifiedNonZero));
    report.metric("slo_infeasible_plans",
                  static_cast<double>(sloInfeasible));
    benchutil::recordCacheStats(report, *session);
    report.save();

    if (violations != 0) {
        std::cerr << "bench_certify: FAILED — measured error rates "
                     "exceed certified bounds\n";
        return 1;
    }
    if (vacuous) {
        std::cerr << "bench_certify: FAILED — certified bounds are "
                     "vacuous (median slack " << slack << "x > "
                  << kVacuousSlack << "x)\n";
        return 1;
    }
    if (sloInfeasible != 0) {
        std::cerr << "bench_certify: FAILED — " << sloInfeasible
                  << " certificate(s) miss the reference SLO\n";
        return 1;
    }
    std::cout << "bench_certify: PASS\n";
    return 0;
}
