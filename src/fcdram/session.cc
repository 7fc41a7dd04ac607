#include "fcdram/session.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>

#include "dram/address.hh"

namespace fcdram {

CampaignConfig::CampaignConfig()
{
    geometry = GeometryConfig::standard();
    geometry.columns = 128;
}

CampaignConfig
CampaignConfig::forTests()
{
    CampaignConfig config;
    config.geometry = GeometryConfig::standard();
    config.geometry.columns = 32;
    config.geometry.numBanks = 1;
    config.geometry.subarraysPerBank = 4;
    config.banksPerChip = 1;
    config.subarrayPairsPerBank = 2;
    config.pairSamplesPerConfig = 6;
    config.probesPerPair = 4000;
    config.analytic.trials = 2000;
    return config;
}

PairQuery
PairQuery::anyWithDest(int dest)
{
    PairQuery query;
    query.activation = Activation::Any;
    query.destRows = dest;
    return query;
}

PairQuery
PairQuery::simultaneousWithDest(int dest)
{
    PairQuery query;
    query.activation = Activation::Simultaneous;
    query.destRows = dest;
    return query;
}

PairQuery
PairQuery::square(int inputs)
{
    PairQuery query;
    query.activation = Activation::Simultaneous;
    query.sourceRows = inputs;
    query.destRows = inputs;
    return query;
}

PairQuery
PairQuery::sameSubarray(int rows)
{
    PairQuery query;
    query.activation = Activation::SameSubarray;
    query.destRows = rows;
    return query;
}

bool
PairQuery::matches(const ActivationSets &sets) const
{
    if (activation == Activation::Simultaneous ||
        activation == Activation::SameSubarray) {
        if (!sets.simultaneous)
            return false;
    } else if (!sets.simultaneous && !sets.sequential) {
        return false;
    }
    if (sourceRows >= 0 && sets.nrf() != sourceRows)
        return false;
    if (destRows >= 0 && sets.nrl() != destRows)
        return false;
    return true;
}

std::uint64_t
PairQuery::key() const
{
    std::uint64_t key = hashCombine(
        0x5041ULL, static_cast<std::uint64_t>(activation));
    key = hashCombine(key,
                      static_cast<std::uint64_t>(sourceRows + 1));
    return hashCombine(key, static_cast<std::uint64_t>(destRows + 1));
}

bool
PairQuery::operator<(const PairQuery &other) const
{
    return std::tie(activation, sourceRows, destRows) <
           std::tie(other.activation, other.sourceRows,
                    other.destRows);
}

std::vector<std::pair<RowId, RowId>>
findQualifyingPairs(const Chip &chip, const PairContext &context,
                    const PairQuery &query, int probes, int maxPairs,
                    std::uint64_t seed)
{
    std::vector<std::pair<RowId, RowId>> pairs;
    const GeometryConfig &geometry = chip.geometry();
    const auto rows = static_cast<RowId>(geometry.rowsPerSubarray);
    Rng rng(seed);
    // Probing draws with replacement: a pair found again is skipped,
    // so no context lists (and no figure counts) a pair twice.
    const auto keep = [&pairs](const std::pair<RowId, RowId> &pair) {
        if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end())
            pairs.push_back(pair);
    };

    if (query.activation == PairQuery::Activation::SameSubarray) {
        // SiMRA row groups: both rows of the pair live in the low
        // subarray, and candidates come from the decoder-hierarchy
        // address mask (only the coverage gate needs probing).
        for (int probe = 0;
             probe < probes &&
             static_cast<int>(pairs.size()) < maxPairs;
             ++probe) {
            const auto base = static_cast<RowId>(rng.below(rows));
            const RowId partner = query.destRows >= 2
                                      ? chip.decoder().maskPartner(
                                            base, query.destRows)
                                      : static_cast<RowId>(
                                            rng.below(rows));
            if (partner == kInvalidRow)
                break; // Mask unreachable on this decoder.
            const auto set = chip.decoder().sameSubarrayActivation(
                partner, base);
            ActivationSets sets;
            sets.simultaneous = set.size() > 1;
            sets.secondRows = set;
            if (!query.matches(sets))
                continue;
            keep({composeRow(geometry, context.lowSubarray, partner),
                  composeRow(geometry, context.lowSubarray, base)});
        }
        return pairs;
    }

    for (int probe = 0;
         probe < probes && static_cast<int>(pairs.size()) < maxPairs;
         ++probe) {
        const auto rf = static_cast<RowId>(rng.below(rows));
        const auto rl = static_cast<RowId>(rng.below(rows));
        const ActivationSets sets =
            chip.decoder().neighborActivation(rf, rl);
        if (!query.matches(sets))
            continue;
        keep({composeRow(geometry, context.lowSubarray, rf),
              composeRow(geometry, context.lowSubarray + 1, rl)});
    }
    return pairs;
}

bool
FleetSession::PairCacheKey::operator<(const PairCacheKey &other) const
{
    return std::tie(module, bank, lowSubarray, query) <
           std::tie(other.module, other.bank, other.lowSubarray,
                    other.query);
}

bool
FleetSession::LogicCacheKey::operator<(const LogicCacheKey &other) const
{
    return std::tie(module, bank, op, ref, com) <
           std::tie(other.module, other.bank, other.op, other.ref,
                    other.com);
}

FleetSession::FleetSession(const CampaignConfig &config)
    : config_(config), scheduler_(config.workers)
{
    assert(config_.geometry.valid());
    // pairContexts draws each bank's low subarrays without repeats.
    if (config_.subarrayPairsPerBank > config_.geometry.subarraysPerBank - 1)
        throw std::invalid_argument(
            "subarrayPairsPerBank exceeds the bank's subarray pairs");
    std::size_t index = 0;
    for (const ModuleSpec &spec : table1Fleet()) {
        for (int m = 0; m < spec.numModules; ++m) {
            Module module;
            module.spec = &spec;
            module.index = ++index;
            module.seed =
                Scheduler::taskSeed(config_.seed, module.index);
            table1Modules_.push_back(module);
            if (spec.manufacturer == Manufacturer::SkHynix)
                skHynixModules_.push_back(module);
        }
        if (spec.manufacturer == Manufacturer::SkHynix)
            skHynixSpecs_.push_back(spec);
    }
}

const std::vector<FleetSession::Module> &
FleetSession::modules(Fleet fleet) const
{
    return fleet == Fleet::SkHynix ? skHynixModules_ : table1Modules_;
}

const std::vector<ModuleSpec> &
FleetSession::specs(Fleet fleet) const
{
    return fleet == Fleet::SkHynix ? skHynixSpecs_ : table1Fleet();
}

const FleetSession::Module *
FleetSession::findModule(Manufacturer manufacturer, int densityGbit,
                         char dieRevision, std::uint32_t speedMt) const
{
    for (const Module &module : table1Modules_) {
        const ModuleSpec &spec = *module.spec;
        if (spec.manufacturer == manufacturer &&
            spec.densityGbit == densityGbit &&
            spec.dieRevision == dieRevision &&
            spec.speedMt == speedMt) {
            return &module;
        }
    }
    return nullptr;
}

const Chip &
FleetSession::chip(const Module &module) const
{
    // Independent modules hydrate in parallel; tasks of one module
    // wait for its single build.
    bool hit = false;
    const std::unique_ptr<Chip> &built =
        chips_.get(module.index, hit, [&] {
            return std::make_unique<Chip>(module.spec->profile(),
                                          config_.geometry, module.seed);
        });
    if (!hit) {
        {
            const std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.chipBuilds;
        }
        obs::Telemetry &tel = obs::global();
        if (tel.metricsOn())
            tel.add(tel.counter("session.chip_builds"));
    }
    return *built;
}

std::size_t
FleetSession::contextsPerModule() const
{
    const int banks =
        std::min(config_.banksPerChip, config_.geometry.numBanks);
    return static_cast<std::size_t>(
        std::max(0, banks * config_.subarrayPairsPerBank));
}

const std::vector<PairContext> &
FleetSession::pairContexts(const Module &module) const
{
    bool hit = false;
    return contexts_.get(module.index, hit, [&] {
        const Chip &moduleChip = chip(module);
        std::vector<PairContext> contexts;
        Rng rng(hashCombine(module.seed, 0x5041ULL));
        const int banks =
            std::min(config_.banksPerChip, moduleChip.numBanks());
        const auto maxLow = static_cast<std::uint64_t>(
            moduleChip.geometry().subarraysPerBank - 1);
        for (int b = 0; b < banks; ++b) {
            // A low subarray the bank already holds is redrawn, so no
            // subarray pair is sampled twice.
            std::vector<bool> held(maxLow);
            for (int p = 0; p < config_.subarrayPairsPerBank; ++p) {
                std::uint64_t low = 0;
                do {
                    low = rng.below(maxLow);
                } while (held[low]);
                held[low] = true;
                contexts.push_back({static_cast<BankId>(b),
                                    static_cast<SubarrayId>(low)});
            }
        }
        return contexts;
    });
}

const std::vector<std::pair<RowId, RowId>> &
FleetSession::qualifyingPairs(const Module &module,
                              const PairContext &context,
                              const PairQuery &query) const
{
    PairCacheKey key;
    key.module = module.index;
    key.bank = context.bank;
    key.lowSubarray = context.lowSubarray;
    key.query = query;
    bool hit = false;
    const auto &pairs = pairs_.get(key, hit, [&] {
        // The discovery seed depends only on (module, context, query),
        // so every figure asking the same question probes the same
        // pairs and all but the first are cache hits.
        const std::uint64_t seed = hashCombine(
            module.seed,
            hashCombine(query.key(),
                        0xD15CULL + context.bank * 977 +
                            context.lowSubarray * 131));
        return findQualifyingPairs(chip(module), context, query,
                                   config_.probesPerPair,
                                   config_.pairSamplesPerConfig, seed);
    });
    {
        const std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.pairLookups;
        stats_.pairHits += hit ? 1 : 0;
    }
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn()) {
        tel.add(tel.counter("session.pair_lookups"));
        if (hit)
            tel.add(tel.counter("session.pair_hits"));
    }
    return pairs;
}

const LogicBaseline &
FleetSession::logicBaseline(const Module &module, BankId bank,
                            BoolOp op, RowId ref, RowId com) const
{
    const LogicCacheKey key{module.index, bank, op, ref, com};
    bool hit = false;
    const LogicBaseline &baseline = logic_.get(key, hit, [&] {
        const AnalyticAnalyzer analyzer(chip(module), config_.analytic);
        const std::vector<CellSample> samples = analyzer.logicSamples(
            bank, op, ref, com, OpConditions(), PatternClass::Random);
        LogicBaseline entry;
        entry.probability.reserve(samples.size());
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const CellSample &sample = samples[i];
            if (i == 0 || sample.rowLocal != samples[i - 1].rowLocal)
                entry.rowRegion.push_back(sample.ownRegion);
            entry.probability.push_back(sample.probability);
        }
        if (!samples.empty()) {
            entry.columnsPerRow =
                samples.size() / entry.rowRegion.size();
            entry.otherRegion = samples.front().otherRegion;
        }
        return entry;
    });
    {
        const std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.logicLookups;
        stats_.logicHits += hit ? 1 : 0;
    }
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn()) {
        tel.add(tel.counter("session.logic_lookups"));
        if (hit)
            tel.add(tel.counter("session.logic_hits"));
    }
    return baseline;
}

Chip
FleetSession::checkoutChip(const Module &module) const
{
    return Chip(module.spec->profile(), config_.geometry, module.seed);
}

Chip
FleetSession::checkoutChip(const ChipProfile &profile,
                           std::uint64_t seed) const
{
    return Chip(profile, config_.geometry, seed);
}

FleetSession::CacheStats
FleetSession::cacheStats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

} // namespace fcdram
