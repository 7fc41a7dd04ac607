/**
 * @file
 * The PuD query corpus pudlint lints and bench_certify certifies: the
 * bench_pud_query sweep plus MAJ gates, over one calibrated profile
 * per manufacturer die the paper characterizes. tests/test_lower.cc
 * and tests/test_verify.cc run the same corpus.
 */

#ifndef FCDRAM_TOOLS_CORPUS_HH
#define FCDRAM_TOOLS_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/chipprofile.hh"
#include "pud/engine.hh"
#include "pud/expr.hh"

namespace fcdram::corpus {

/** Seed of every corpus chip (FleetSession::checkoutChip). */
inline constexpr std::uint64_t kChipSeed = 0x11D7;

struct QuerySpec
{
    std::string label;
    pud::ExprId root = pud::kNoExpr;
};

struct ProfileSpec
{
    std::string label;
    ChipProfile profile;

    /** Backend choices the profile's plans are built under. */
    std::vector<pud::BackendChoice> backends;
};

/** The corpus operand columns c0..c15. */
inline std::vector<std::string>
columnNames()
{
    std::vector<std::string> names;
    for (int i = 0; i < 16; ++i)
        names.push_back(std::string("c") + std::to_string(i));
    return names;
}

/**
 * The 12 query shapes: AND and OR at 2, 4, 8 and 16 inputs, a mixed
 * AND/OR/NOT expression, XOR-4, MAJ-3 and MAJ-5.
 */
inline std::vector<QuerySpec>
buildCorpus(pud::ExprPool &pool)
{
    std::vector<pud::ExprId> cols;
    for (const std::string &name : columnNames())
        cols.push_back(pool.column(name));

    std::vector<QuerySpec> corpus;
    for (const int width : {2, 4, 8, 16}) {
        const std::vector<pud::ExprId> slice(cols.begin(),
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
inline std::vector<ProfileSpec>
buildProfiles()
{
    using pud::BackendChoice;
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

} // namespace fcdram::corpus

#endif // FCDRAM_TOOLS_CORPUS_HH
