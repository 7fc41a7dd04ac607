#include "fcdram/classifier.hh"

#include <cassert>
#include <sstream>

#include "dram/address.hh"
#include "dram/openbitline.hh"
#include "obs/telemetry.hh"

namespace fcdram {

std::string
ClassifiedActivation::typeName() const
{
    if (!simultaneous)
        return "none";
    std::ostringstream oss;
    oss << firstRows.size() << ":" << secondRows.size();
    return oss.str();
}

double
CoverageStats::coverage(const std::string &type) const
{
    if (totalPairs == 0)
        return 0.0;
    const auto it = counts.find(type);
    if (it == counts.end())
        return 0.0;
    return static_cast<double>(it->second) /
           static_cast<double>(totalPairs);
}

ActivationClassifier::ActivationClassifier(DramBender &bender,
                                           std::uint64_t seed)
    : bender_(bender), rng_(seed)
{
}

ClassifiedActivation
ActivationClassifier::classify(BankId bank, SubarrayId firstSubarray,
                               RowId rfLocal, SubarrayId secondSubarray,
                               RowId rlLocal)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    assert(std::abs(static_cast<int>(firstSubarray) -
                    static_cast<int>(secondSubarray)) == 1);

    // Step 1: initialize both subarrays with a base pattern. The
    // probe pattern must be statistically independent of the base:
    // if probe == ~base, an idle second-subarray row (holding base)
    // would be indistinguishable from one that captured ~probe.
    BitVector base(static_cast<std::size_t>(geometry.columns));
    base.randomize(rng_);
    BitVector probe(static_cast<std::size_t>(geometry.columns));
    probe.randomize(rng_);
    const auto rows = static_cast<RowId>(geometry.rowsPerSubarray);
    for (RowId local = 0; local < rows; ++local) {
        bender_.writeRow(bank,
                         composeRow(geometry, firstSubarray, local),
                         base);
        bender_.writeRow(bank,
                         composeRow(geometry, secondSubarray, local),
                         base);
    }

    // Step 2: the violated double activation followed by a WR with a
    // different pattern (respecting write timing).
    const RowId rf = composeRow(geometry, firstSubarray, rfLocal);
    const RowId rl = composeRow(geometry, secondSubarray, rlLocal);
    ProgramBuilder builder = bender_.newProgram();
    builder.act(bank, rf, 0.0)
        .pre(bank, kViolatedGapTargetNs)
        .act(bank, rl, kViolatedGapTargetNs)
        .writeNominal(bank, rl, probe)
        .preNominal(bank);
    const obs::DramLabel label("DoubleAct"); // Reads label themselves.
    bender_.execute(builder.build());

    // Step 3: read every row of both subarrays and detect captures.
    ClassifiedActivation activation;
    const auto shared =
        sharedColumns(geometry, firstSubarray, secondSubarray);
    for (RowId local = 0; local < rows; ++local) {
        const BitVector readback = bender_.readRow(
            bank, composeRow(geometry, firstSubarray, local));
        // First-subarray rows capture the written pattern on all
        // columns (Observation 1).
        if (readback.hammingDistance(probe) <= probe.size() / 16)
            activation.firstRows.push_back(local);
    }
    for (RowId local = 0; local < rows; ++local) {
        const BitVector readback = bender_.readRow(
            bank, composeRow(geometry, secondSubarray, local));
        // Second-subarray rows capture the complement on the shared
        // columns and retain the base pattern elsewhere.
        std::size_t inverted = 0;
        for (const ColId col : shared)
            inverted += readback.get(col) != probe.get(col) ? 1 : 0;
        if (inverted >= shared.size() - shared.size() / 16)
            activation.secondRows.push_back(local);
    }
    activation.simultaneous = !activation.firstRows.empty() &&
                              !activation.secondRows.empty();
    return activation;
}

CoverageStats
ActivationClassifier::sampleCoverage(BankId bank,
                                     SubarrayId firstSubarray,
                                     SubarrayId secondSubarray,
                                     int pairs)
{
    const GeometryConfig &geometry = bender_.chip().geometry();
    const auto rows = static_cast<RowId>(geometry.rowsPerSubarray);
    CoverageStats stats;
    for (int i = 0; i < pairs; ++i) {
        const auto rf = static_cast<RowId>(rng_.below(rows));
        const auto rl = static_cast<RowId>(rng_.below(rows));
        const ClassifiedActivation activation = classify(
            bank, firstSubarray, rf, secondSubarray, rl);
        ++stats.counts[activation.typeName()];
        ++stats.totalPairs;
    }
    return stats;
}

} // namespace fcdram
