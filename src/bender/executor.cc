#include "bender/executor.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <optional>
#include <utility>

#include "analog/chargesharing.hh"
#include "common/mathutil.hh"
#include "common/simd.hh"
#include "dram/address.hh"
#include "dram/openbitline.hh"

namespace fcdram {

namespace {

/** Sensing starts this long after an ACT (charge-sharing time). */
constexpr Ns kSenseStartNs = 2.0;

/** Full restore takes this long after an ACT. */
constexpr Ns kRestoreDoneNs = 20.0;

/** Voltages this close to VDD/2 sense metastably. */
constexpr Volt kMetastableBand = 0.02;

/** Ambiguity window for lazily resolved single-row sensing. */
constexpr Volt kAmbiguousBand = 0.15;

/** Call fn(col) for every set bit of mask, in ascending order. */
template <typename Fn>
void
forEachSetBit(const BitVector &mask, Fn &&fn)
{
    const auto words = mask.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            fn(static_cast<ColId>(w * 64 +
                                  static_cast<std::size_t>(b)));
        }
    }
}

/**
 * Conservative per-bucket bounds on normalQuantile over [k/N,
 * (k+1)/N). A hash-derived deviate sigma * Q(u) is guaranteed inside
 * [sigma * lo(bucket), sigma * hi(bucket)], so most Bernoulli draws
 * resolve from the raw (cheap) uniform without evaluating the
 * quantile at all; the exact computation only runs when the bounds
 * straddle the decision threshold. The seam slack covers the rational
 * approximation's error (|rel| < 1.15e-9) plus any non-monotonicity
 * at its region boundaries, so skipping is bit-exact.
 */
class NormalBuckets
{
  public:
    static constexpr int kCount = 512;

    static const NormalBuckets &instance()
    {
        static const NormalBuckets buckets;
        return buckets;
    }

    static int bucketOf(double u)
    {
        const int b = static_cast<int>(u * kCount);
        return std::min(std::max(b, 0), kCount - 1);
    }

    double lo(int b) const { return lo_[static_cast<std::size_t>(b)]; }
    double hi(int b) const { return hi_[static_cast<std::size_t>(b)]; }

  private:
    NormalBuckets()
    {
        constexpr double kSeamSlack = 1e-6;
        for (int b = 0; b < kCount; ++b) {
            lo_[static_cast<std::size_t>(b)] =
                b == 0 ? -kHashNormalBound
                       : normalQuantile(static_cast<double>(b) /
                                        kCount) -
                             kSeamSlack;
            hi_[static_cast<std::size_t>(b)] =
                b == kCount - 1
                    ? kHashNormalBound
                    : normalQuantile(static_cast<double>(b + 1) /
                                     kCount) +
                          kSeamSlack;
        }
    }

    std::array<double, kCount> lo_;
    std::array<double, kCount> hi_;
};

/**
 * Fast exact-semantics cell trial for the word-parallel mode: decides
 *
 *   margin - (cellOffset + saOffset) + senseNoise > 0
 *
 * from the three raw uniforms and the bucket bounds whenever they
 * already determine the sign, and falls back to the scalar
 * reference's exact expressions otherwise. Outcomes are bit-identical
 * to SuccessModel::sampleTrialAt with the same keys.
 */
struct FastSampler
{
    const SuccessModel &model;
    const VariationMap &variation;
    double cellSigma;
    double saSigma;
    double noiseSigma;

    /**
     * Takes the SA offset's raw uniform, so callers that visit a
     * column once per row hoist its hash + uniform out of the row
     * loop.
     */
    bool successWithSaU(Volt margin, double saU,
                        std::uint64_t cellKey,
                        std::uint64_t noiseKey) const
    {
        const NormalBuckets &nb = NormalBuckets::instance();
        const double uc = uniformFromHash(cellKey);
        const double un = uniformFromHash(noiseKey);
        const int bc = NormalBuckets::bucketOf(uc);
        const int bs = NormalBuckets::bucketOf(saU);
        const int bn = NormalBuckets::bucketOf(un);
        constexpr double kSlack = 1e-9;
        const double best = margin - cellSigma * nb.lo(bc) -
                            saSigma * nb.lo(bs) +
                            noiseSigma * nb.hi(bn);
        if (best < -kSlack)
            return false;
        const double worst = margin - cellSigma * nb.hi(bc) -
                             saSigma * nb.hi(bs) +
                             noiseSigma * nb.lo(bn);
        if (worst > kSlack)
            return true;
        // Undecided: take the scalar reference's exact expressions.
        const Volt offset = variation.cellOffsetFromKey(cellKey) +
                            saSigma * normalQuantile(saU);
        return model.sampleTrialAt(margin, offset, false, noiseKey);
    }
};

/**
 * The word-parallel resolution core of every sensed op. NOT and
 * RowClone overdrive their targets from a restored row; logic and MAJ
 * compare charge-shared bitlines. Either way a cell resolves
 * correctly iff
 *
 *   margin - (cellOffset + saOffset) + senseNoise > 0,
 *
 * or by a coin flip on a structurally failing column. One resolver
 * serves one op over one column domain: it scans the domain for
 * failing columns once, classifies each distinct per-column margin
 * array once through the SIMD kernel (a column whose |margin| lies
 * beyond the hard noise bound is decided; the rest draw per row,
 * with their SA uniform hoisted), and then hands back each target
 * row's mask of correctly resolved cells. Every draw is keyed by
 * (op epoch, row, col), so the masks equal the scalar reference's
 * cell-at-a-time outcomes bit for bit.
 */
class CellResolver
{
  public:
    /** One margin array, classified over the domain. */
    struct Classified
    {
        std::vector<Volt> margins;
        BitVector decided; ///< Columns correct without a draw.
        std::vector<std::uint32_t> draws; ///< Live columns that draw.
    };

    /**
     * @param stripes SA stripe of the even and of the odd columns.
     * @param domain Columns that resolve; masks are clear elsewhere.
     */
    CellResolver(const Chip &chip, BankId bank, int pairLoad,
                 std::uint64_t opStream,
                 const std::array<StripeId, 2> &stripes,
                 const BitVector &domain)
        : model_(chip.model()), variation_(model_.variation()),
          bank_(bank), opStream_(opStream), live_(domain),
          fails_(domain.size()), saU_(domain.size(), 0.5),
          sampler_{model_, variation_,
                   chip.profile().analog.cellOffsetSigma,
                   chip.profile().analog.saOffsetSigma,
                   model_.senseAmp().noiseSigma()},
          colBound_(kHashNormalBound *
                    (sampler_.cellSigma + sampler_.saSigma +
                     sampler_.noiseSigma))
    {
        const double fail_fraction =
            model_.structuralFailFraction(pairLoad);
        std::uint64_t sa_prefix[2];
        std::uint64_t fail_prefix[2];
        for (std::size_t parity = 0; parity < 2; ++parity) {
            sa_prefix[parity] =
                variation_.saKeyPrefix(bank, stripes[parity]);
            fail_prefix[parity] =
                variation_.failKeyPrefix(bank, stripes[parity]);
        }
        // A failing column's cells are coin flips whatever the margin;
        // every other domain column is live and gets its SA uniform.
        forEachSetBit(domain, [&](ColId col) {
            if (fail_fraction > 0.0 &&
                variation_.structuralFailFromKey(
                    hashCombine(fail_prefix[col & 1], col),
                    fail_fraction)) {
                fails_.set(col, true);
                return;
            }
            saU_[col] =
                uniformFromHash(hashCombine(sa_prefix[col & 1], col));
        });
        live_.andNot(fails_);
    }

    /** Classify @p margins (only domain entries are read). */
    Classified classify(std::vector<Volt> margins) const
    {
        const std::size_t columns = live_.size();
        Classified out{std::move(margins), BitVector(columns),
                       std::vector<std::uint32_t>(columns)};
        std::size_t count = 0;
        simd::activeKernels().classifyMargins(
            out.margins.data(), columns, colBound_,
            out.decided.words().data(), out.draws.data(), &count);
        out.decided &= live_;
        // Keep only the live ambiguous columns, in place.
        const auto live = live_.words();
        std::size_t kept = 0;
        for (std::size_t a = 0; a < count; ++a) {
            const std::uint32_t col = out.draws[a];
            if (((live[col / 64] >> (col % 64)) & 1) != 0)
                out.draws[kept++] = col;
        }
        out.draws.resize(kept);
        return out;
    }

    /** Mask of @p globalRow's domain cells that resolve correctly. */
    void resolveRow(const Classified &classified, RowId globalRow,
                    BitVector &correct) const
    {
        correct = classified.decided;
        const auto words = correct.words();
        const auto mark = [&words](ColId col) {
            words[col / 64] |= std::uint64_t{1} << (col % 64);
        };
        const std::vector<Volt> &margins = classified.margins;
        const std::uint64_t cell_prefix =
            variation_.cellKeyPrefix(bank_, globalRow);
        const std::uint64_t noise_row =
            cellNoiseRowStream(opStream_, globalRow);
        for (const std::uint32_t col : classified.draws) {
            if (sampler_.successWithSaU(margins[col], saU_[col],
                                        hashCombine(cell_prefix, col),
                                        cellNoiseKeyAt(noise_row, col)))
                mark(col);
        }
        forEachSetBit(fails_, [&](ColId col) {
            if (model_.sampleTrialAt(margins[col], 0.0, true,
                                     cellNoiseKeyAt(noise_row, col)))
                mark(col);
        });
    }

  private:
    const SuccessModel &model_;
    const VariationMap &variation_;
    BankId bank_;
    std::uint64_t opStream_;
    BitVector live_;  ///< Domain columns that do not fail.
    BitVector fails_; ///< Structurally failing domain columns.
    std::vector<double> saU_; ///< SA offset uniform per live column.
    FastSampler sampler_;
    double colBound_;
};

/** Coupling fraction of a coupling class (0.0 / 0.5 / 1.0). */
double
couplingFractionOf(std::uint8_t cls)
{
    return 0.5 * cls;
}

/**
 * Per-column margins of a drive op, whose margin depends on a column
 * only through its coupling class (Executor::couplingClasses), so
 * @p marginOf(couplingFraction) runs once per class.
 */
template <typename MarginOf>
std::vector<Volt>
classMargins(const std::vector<std::uint8_t> &classes,
             MarginOf &&marginOf)
{
    std::array<Volt, 3> by_class{};
    for (std::uint8_t cls = 0; cls < 3; ++cls)
        by_class[cls] = marginOf(couplingFractionOf(cls));
    std::vector<Volt> margins(classes.size());
    for (std::size_t col = 0; col < classes.size(); ++col)
        margins[col] = by_class[classes[col]];
    return margins;
}

} // namespace

Executor::Executor(Chip &chip, std::uint64_t trialSeed,
                   const TimingParams &timing, ExecMode mode,
                   obs::Telemetry *telemetry)
    : chip_(chip), timing_(timing), mode_(mode),
      telemetry_(telemetry),
      noiseSeed_(hashCombine(chip.seed(), trialSeed)),
      banks_(static_cast<std::size_t>(chip.numBanks()))
{
}

void
Executor::recordProgram(const Program &program)
{
    obs::Telemetry &tel = *telemetry_;
    if (tel.metricsOn()) {
        std::uint64_t act = 0, pre = 0, rd = 0, wr = 0;
        for (const Command &command : program.commands) {
            switch (command.type) {
              case CommandType::Act:
                ++act;
                break;
              case CommandType::Pre:
                ++pre;
                break;
              case CommandType::Rd:
                ++rd;
                break;
              case CommandType::Wr:
                ++wr;
                break;
              case CommandType::Ref:
              case CommandType::Nop:
                break;
            }
        }
        tel.add(tel.counter("bender.programs"));
        if (act != 0)
            tel.add(tel.counter("bender.cmd_act"), act);
        if (pre != 0)
            tel.add(tel.counter("bender.cmd_pre"), pre);
        if (rd != 0)
            tel.add(tel.counter("bender.cmd_rd"), rd);
        if (wr != 0)
            tel.add(tel.counter("bender.cmd_wr"), wr);
    }
    if (tel.dramOn()) {
        std::vector<obs::Telemetry::DramCmd> cmds;
        cmds.reserve(program.commands.size());
        for (const Command &command : program.commands) {
            obs::Telemetry::DramCmd cmd;
            switch (command.type) {
              case CommandType::Act:
                cmd.kind = obs::Telemetry::DramCmdKind::Act;
                break;
              case CommandType::Pre:
                cmd.kind = obs::Telemetry::DramCmdKind::Pre;
                break;
              case CommandType::Rd:
                cmd.kind = obs::Telemetry::DramCmdKind::Rd;
                break;
              case CommandType::Wr:
                cmd.kind = obs::Telemetry::DramCmdKind::Wr;
                break;
              case CommandType::Ref:
              case CommandType::Nop:
                cmd.kind = obs::Telemetry::DramCmdKind::Other;
                break;
            }
            cmd.bank = command.bank;
            cmd.row = command.row;
            cmd.issueNs = command.issueNs;
            cmds.push_back(cmd);
        }
        tel.recordDramProgram(cmds, obs::DramLabel::current());
    }
}

ExecResult
Executor::run(const Program &program)
{
    if (telemetry_ != nullptr)
        recordProgram(program);
    ExecResult result;
    for (const Command &command : program.commands) {
        assert(command.bank < banks_.size());
        switch (command.type) {
          case CommandType::Act:
            handleAct(command, result);
            break;
          case CommandType::Pre:
            handlePre(command);
            break;
          case CommandType::Wr:
            handleWr(command);
            break;
          case CommandType::Rd:
            handleRd(command, result);
            break;
          case CommandType::Ref:
          case CommandType::Nop:
            break;
        }
    }
    return result;
}

double
Executor::restoreProgress(Ns gapNs) const
{
    if (gapNs <= kSenseStartNs)
        return 0.0;
    if (gapNs >= kRestoreDoneNs)
        return 1.0;
    return (gapNs - kSenseStartNs) / (kRestoreDoneNs - kSenseStartNs);
}

double
Executor::couplingFractionAt(const BitVector &pattern, ColId col)
{
    if (pattern.size() == 0)
        return 0.0;
    const bool value = pattern.get(col);
    double neighbors = 0.0;
    double differing = 0.0;
    if (col > 0) {
        neighbors += 1.0;
        differing += pattern.get(col - 1) != value ? 1.0 : 0.0;
    }
    if (col + 1 < pattern.size()) {
        neighbors += 1.0;
        differing += pattern.get(col + 1) != value ? 1.0 : 0.0;
    }
    return neighbors > 0.0 ? differing / neighbors : 0.0;
}

void
Executor::couplingClasses(const BitVector &pattern,
                          std::vector<std::uint8_t> &classes) const
{
    const std::size_t n = pattern.size();
    classes.assign(n, 0);
    if (n < 2)
        return;
    // Shift-derived neighbor-differ masks: bit c of diffNext says the
    // cell differs from its right neighbor, diffPrev from its left.
    const BitVector diffNext = pattern ^ pattern.shiftedDown(1);
    const BitVector diffPrev = pattern ^ pattern.shiftedUp(1);
    for (std::size_t col = 1; col + 1 < n; ++col) {
        classes[col] = static_cast<std::uint8_t>(
            (diffPrev.get(col) ? 1 : 0) + (diffNext.get(col) ? 1 : 0));
    }
    // Edge columns have a single neighbor: fractions 0.0 or 1.0.
    classes[0] = diffNext.get(0) ? 2 : 0;
    classes[n - 1] = diffPrev.get(n - 1) ? 2 : 0;
}

const BitVector &
Executor::sharedColumnMask(SubarrayId a, SubarrayId b)
{
    // columnShared depends only on the parity of the lower subarray
    // id, so two cached masks cover every neighbor pair.
    const int parity = static_cast<int>(std::min(a, b)) % 2;
    BitVector &mask = sharedMaskByParity_[parity];
    const auto columns =
        static_cast<std::size_t>(chip_.geometry().columns);
    if (mask.size() != columns) {
        mask = BitVector(columns);
        for (ColId col = 0; col < static_cast<ColId>(columns); ++col)
            mask.set(col, columnShared(a, b, col));
    }
    return mask;
}

const BitVector &
Executor::allColumnsMask()
{
    const auto columns =
        static_cast<std::size_t>(chip_.geometry().columns);
    if (allColumns_.size() != columns)
        allColumns_ = BitVector(columns, true);
    return allColumns_;
}

void
Executor::captureSharedVoltages(BankId bank, SubarrayId subarray,
                                const std::vector<RowId> &localRows,
                                std::vector<float> &out,
                                const BitVector *columnMask) const
{
    const CellArray &cells =
        chip_.bank(bank).subarray(subarray).cells();
    const auto columns =
        static_cast<std::size_t>(chip_.geometry().columns);
    const AnalogParams &analog = chip_.profile().analog;
    out.assign(columns, 0.0f);
    const int total = static_cast<int>(localRows.size());

    // Pre-resolve each connected row's storage: packed rail words or
    // the analog float lane.
    struct Source
    {
        const std::uint64_t *words = nullptr;
        const float *lane = nullptr;
    };
    std::array<Source, 64> sources;
    assert(localRows.size() <= sources.size());
    for (std::size_t i = 0; i < localRows.size(); ++i) {
        const RowId local = localRows[i];
        if (cells.rowOnRail(local))
            sources[i].words = cells.rowWords(local).data();
        else
            sources[i].lane = cells.rowLane(local).data();
    }

    // All-rail fast path: the voltage takes one of total+1 values,
    // indexed by the per-column population count; tabulating them
    // reproduces the per-column arithmetic exactly.
    bool all_rail = true;
    for (std::size_t i = 0; i < localRows.size(); ++i)
        all_rail = all_rail && sources[i].words != nullptr;
    std::array<float, 65> by_count{};
    if (all_rail) {
        for (int k = 0; k <= total; ++k) {
            by_count[static_cast<std::size_t>(k)] =
                static_cast<float>(
                    railSharedVoltage(k, 0.0, total, analog));
        }
    }

    const auto capture = [&](std::size_t col) {
        int ones = 0;
        double lane_sum = 0.0;
        for (std::size_t i = 0; i < localRows.size(); ++i) {
            if (sources[i].words != nullptr) {
                ones += static_cast<int>(
                    (sources[i].words[col / 64] >> (col % 64)) & 1);
            } else {
                lane_sum += sources[i].lane[col];
            }
        }
        out[col] = all_rail
                       ? by_count[static_cast<std::size_t>(ones)]
                       : static_cast<float>(railSharedVoltage(
                             ones, lane_sum, total, analog));
    };
    if (columnMask != nullptr) {
        forEachSetBit(*columnMask,
                      [&](ColId col) { capture(col); });
    } else {
        for (std::size_t col = 0; col < columns; ++col)
            capture(col);
    }
}

void
Executor::normalAct(BankState &state, BankId bank, RowId row, Ns now)
{
    (void)bank;
    state.open = true;
    state.glitchArmed = false;
    state.resolved = false;
    state.multi = false;
    state.pendingMaj = false;
    state.firstRow = row;
    state.lastActNs = now;
    state.openRows = {row};
}

void
Executor::resolveIfDue(BankState &state, BankId bank, Ns now)
{
    if (!state.open || state.resolved)
        return;
    if (now - state.lastActNs < timing_.fracThreshold)
        return;
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();

    if (state.pendingMaj) {
        // Deferred in-subarray multi-row charge share: sense the
        // bitline voltages captured at activation time and restore.
        const RowAddress first = decomposeRow(geometry, state.firstRow);
        std::vector<RowId> local_rows;
        local_rows.reserve(state.openRows.size());
        for (const RowId row : state.openRows)
            local_rows.push_back(decomposeRow(geometry, row).localRow);
        majResolve(bank, first.subarray, local_rows, allColumnsMask(),
                   state.pendingBitline, -1.0,
                   static_cast<int>(local_rows.size()));
        state.pendingMaj = false;
        state.pendingBitline.clear();
        state.resolved = true;
        return;
    }

    // Ordinary single-row sensing + restore: deterministic except in
    // the ambiguity band around VDD/2 (e.g. Frac-initialized cells).
    // A packed (on-rail) row senses and restores to itself, so the
    // word-parallel mode skips it outright; only off-rail lanes walk
    // their columns.
    const std::uint64_t op_stream = beginNoiseEpoch();
    const AnalogParams &analog = chip_.profile().analog;
    const double transfer =
        analog.cellCap / (analog.cellCap + analog.bitlineCap);
    const SuccessModel &model = chip_.model();
    for (const RowId row : state.openRows) {
        const RowAddress address = decomposeRow(geometry, row);
        CellArray &cells = bank_ref.subarray(address.subarray).cells();
        if (!scalar() && cells.rowOnRail(address.localRow))
            continue;
        for (ColId col = 0; col < static_cast<ColId>(geometry.columns);
             ++col) {
            const Volt v = cells.volt(address.localRow, col);
            bool bit = v > kVddHalf;
            if (std::abs(v - kVddHalf) < kAmbiguousBand) {
                const StripeId stripe =
                    stripeFor(address.subarray, col);
                const Volt margin =
                    (v - kVddHalf) * transfer -
                    model.staticOffset(bank, row, col, stripe);
                bit = model.senseAmp().sampleAt(
                    margin, cellNoiseKey(op_stream, row, col));
            }
            cells.setBit(address.localRow, col, bit);
        }
        cells.collapseIfRail(address.localRow);
    }
    state.resolved = true;
}

void
Executor::partialRestore(BankState &state, BankId bank, Ns gapNs)
{
    if (state.resolved)
        return;
    const double progress = restoreProgress(gapNs);
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();
    const auto columns = static_cast<std::size_t>(geometry.columns);
    if (state.pendingMaj) {
        // The connected cells sit at the charge-shared bitline level;
        // the interrupt freezes them there (plus any partial
        // amplification drift). This is the Frac mechanism. The
        // settled value depends only on the column, so it is computed
        // once and copied into every connected row's analog lane.
        scratchVolts_.assign(state.pendingBitline.begin(),
                             state.pendingBitline.end());
        if (scalar()) {
            for (std::size_t col = 0; col < columns; ++col) {
                const Volt v = scratchVolts_[col];
                Volt settled = v;
                if (std::abs(v - kVddHalf) >= kMetastableBand) {
                    const Volt rail = v > kVddHalf ? kVdd : kGnd;
                    settled = v + progress * (rail - v);
                }
                scratchVolts_[col] = static_cast<float>(settled);
            }
        } else {
            simd::activeKernels().blendTowardRail(
                scratchVolts_.data(), columns, progress,
                kMetastableBand);
        }
        for (const RowId row : state.openRows) {
            const RowAddress address = decomposeRow(geometry, row);
            CellArray &cells =
                bank_ref.subarray(address.subarray).cells();
            cells.materializeLane(address.localRow);
            const auto lane = cells.rowLane(address.localRow);
            std::copy(scratchVolts_.begin(), scratchVolts_.end(),
                      lane.begin());
        }
        state.pendingMaj = false;
        state.pendingBitline.clear();
        state.resolved = true;
        return;
    }
    if (progress <= 0.0)
        return;
    for (const RowId row : state.openRows) {
        const RowAddress address = decomposeRow(geometry, row);
        CellArray &cells = bank_ref.subarray(address.subarray).cells();
        // Rail cells are already at their target: the partial drive
        // moves them nowhere.
        if (!scalar() && cells.rowOnRail(address.localRow))
            continue;
        if (cells.rowOnRail(address.localRow)) {
            // Scalar reference: the naive walk writes every rail cell
            // back to itself.
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                const Volt v = cells.volt(address.localRow, col);
                if (std::abs(v - kVddHalf) < kMetastableBand)
                    continue;
                const Volt rail = v > kVddHalf ? kVdd : kGnd;
                cells.setVolt(address.localRow, col,
                              v + progress * (rail - v));
            }
            continue;
        }
        const auto lane = cells.rowLane(address.localRow);
        if (scalar()) {
            for (std::size_t col = 0; col < columns; ++col) {
                const Volt v = lane[col];
                if (std::abs(v - kVddHalf) < kMetastableBand)
                    continue; // Metastable: the bitline has not moved.
                const Volt rail = v > kVddHalf ? kVdd : kGnd;
                lane[col] =
                    static_cast<float>(v + progress * (rail - v));
            }
        } else {
            simd::activeKernels().blendTowardRail(
                lane.data(), columns, progress, kMetastableBand);
        }
        cells.collapseIfRail(address.localRow);
    }
}

void
Executor::handlePre(const Command &command)
{
    BankState &state = banks_[command.bank];
    if (!state.open)
        return;
    const Ns gap = command.issueNs - state.lastActNs;
    if (chip_.profile().decoder.ignoresViolatedCommands &&
        grosslyViolated(gap, timing_.tRas)) {
        return; // Micron-style: the violated PRE never lands.
    }
    if (classifyRestore(timing_, gap) == RestoreClass::Interrupted) {
        partialRestore(state, command.bank, gap);
    } else {
        resolveIfDue(state, command.bank, command.issueNs);
    }
    state.open = false;
    state.glitchArmed = true;
    state.preNs = command.issueNs;
}

void
Executor::handleAct(const Command &command, ExecResult &result)
{
    BankState &state = banks_[command.bank];
    if (state.open) {
        return; // ACT on an open bank: ignored.
    }
    if (state.glitchArmed) {
        const Ns gap = command.issueNs - state.preNs;
        if (chip_.profile().decoder.ignoresViolatedCommands &&
            grosslyViolated(gap, timing_.tRp)) {
            return; // Micron-style: the violated ACT never lands.
        }
        if (classifyPrecharge(timing_, gap) == PrechargeClass::Glitch &&
            state.firstRow != kInvalidRow) {
            glitchAct(state, command.bank, command.row, command.issueNs,
                      result);
            return;
        }
    }
    normalAct(state, command.bank, command.row, command.issueNs);
}

void
Executor::glitchAct(BankState &state, BankId bank, RowId rlRow, Ns now,
                    ExecResult &result)
{
    const GeometryConfig &geometry = chip_.geometry();
    const RowAddress rf = decomposeRow(geometry, state.firstRow);
    const RowAddress rl = decomposeRow(geometry, rlRow);
    const Ns gap = now - state.preNs;
    const bool first_restored = state.resolved;

    if (rf.subarray == rl.subarray) {
        const auto local_rows =
            chip_.decoder().sameSubarrayActivation(rf.localRow,
                                                   rl.localRow);
        state.open = true;
        state.glitchArmed = false;
        state.lastActNs = now;
        state.openRows.clear();
        for (const RowId local : local_rows) {
            state.openRows.push_back(
                composeRow(geometry, rf.subarray, local));
        }
        state.multi = state.openRows.size() > 1;
        if (first_restored) {
            // RowClone: the latched first row overdrives the set.
            applyRowClone(state, bank, rf.subarray, local_rows, gap);
            state.resolved = true;
            state.pendingMaj = false;
        } else if (state.openRows.size() > 1) {
            // Charge sharing among the set: in-subarray MAJ, resolved
            // lazily so a fast PRE can interrupt it (Frac). The
            // equalized bitline level is captured now.
            state.resolved = false;
            state.pendingMaj = true;
            captureSharedVoltages(bank, rf.subarray, local_rows,
                                  state.pendingBitline);
        } else {
            state.resolved = false;
            state.pendingMaj = false;
            state.firstRow = rlRow;
        }
        if (state.multi) {
            ActivationEvent event;
            event.bank = bank;
            event.firstSubarray = rf.subarray;
            event.secondSubarray = rf.subarray;
            event.firstLocalRow = rf.localRow;
            event.secondLocalRow = rl.localRow;
            for (const RowId local : local_rows)
                event.sets.secondRows.push_back(local);
            event.sets.simultaneous = true;
            result.activations.push_back(event);
        }
        return;
    }

    const bool neighbors =
        std::abs(static_cast<int>(rf.subarray) -
                 static_cast<int>(rl.subarray)) == 1;
    if (!neighbors) {
        // Electrically isolated subarrays (HiRA-style): the second
        // activation proceeds independently; we model it as a normal
        // activation of RL.
        normalAct(state, bank, rlRow, now);
        return;
    }

    const ActivationSets sets =
        chip_.decoder().neighborActivation(rf.localRow, rl.localRow);
    if (!sets.simultaneous && !sets.sequential) {
        normalAct(state, bank, rlRow, now);
        return;
    }
    if (sets.sequential && !first_restored) {
        // Sequential designs cannot charge-share across subarrays;
        // the second row simply activates.
        normalAct(state, bank, rlRow, now);
        return;
    }

    ActivationEvent event;
    event.bank = bank;
    event.firstSubarray = rf.subarray;
    event.secondSubarray = rl.subarray;
    event.firstLocalRow = rf.localRow;
    event.secondLocalRow = rl.localRow;
    event.sets = sets;
    result.activations.push_back(event);

    state.open = true;
    state.glitchArmed = false;
    state.lastActNs = now;
    state.multi = true;
    state.pendingMaj = false;
    state.openRows.clear();
    for (const RowId local : sets.firstRows)
        state.openRows.push_back(composeRow(geometry, rf.subarray, local));
    for (const RowId local : sets.secondRows)
        state.openRows.push_back(composeRow(geometry, rl.subarray, local));

    if (first_restored)
        applyNot(state, bank, event, gap);
    else
        applyLogic(state, bank, event, gap);
    state.resolved = true;
}

void
Executor::applyRowClone(BankState &state, BankId bank,
                        SubarrayId subarray,
                        const std::vector<RowId> &localRows, Ns gapNs)
{
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();
    CellArray &cells = bank_ref.subarray(subarray).cells();
    const RowAddress src = decomposeRow(geometry, state.firstRow);
    assert(src.subarray == subarray);
    const BitVector pattern = bank_ref.readRowBits(state.firstRow);
    const int total = static_cast<int>(localRows.size()) + 1;
    const SuccessModel &model = chip_.model();
    const std::uint64_t op_stream = beginNoiseEpoch();
    const int pair_load = (total + 1) / 2;
    const auto margin_at = [&](double coupling) {
        RowCloneContext ctx;
        ctx.activatedRows = static_cast<int>(localRows.size());
        ctx.cond = {chip_.temperature(), coupling};
        ctx.glitchGapNs = gapNs;
        return model.rowCloneMargin(ctx);
    };

    if (scalar()) {
        for (const RowId local : localRows) {
            if (local == src.localRow)
                continue;
            const RowId global = composeRow(geometry, subarray, local);
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                const StripeId stripe = stripeFor(subarray, col);
                const Volt margin =
                    margin_at(couplingFractionAt(pattern, col));
                const Volt offset =
                    model.staticOffset(bank, global, col, stripe);
                const bool fail_struct = model.structuralFail(
                    bank, stripe, col, pair_load);
                if (model.sampleTrialAt(
                        margin, offset, fail_struct,
                        cellNoiseKey(op_stream, global, col))) {
                    cells.setBit(local, col, pattern.get(col));
                }
                // On failure the destination cell retains its charge.
            }
            cells.collapseIfRail(local);
        }
        return;
    }

    // Word-parallel: the drive margin depends on the column only
    // through its coupling class.
    couplingClasses(pattern, scratchClasses_);
    std::vector<Volt> margins = classMargins(scratchClasses_, margin_at);
    const CellResolver core(
        chip_, bank, pair_load, op_stream,
        {stripeFor(subarray, 0), stripeFor(subarray, 1)},
        allColumnsMask());
    const CellResolver::Classified classified =
        core.classify(std::move(margins));
    BitVector correct;
    for (const RowId local : localRows) {
        if (local == src.localRow)
            continue;
        core.resolveRow(classified, composeRow(geometry, subarray, local),
                        correct);
        cells.writeMasked(local, pattern, correct);
    }
}

void
Executor::majResolve(BankId bank, SubarrayId subarray,
                     const std::vector<RowId> &localRows,
                     const BitVector &columnMask,
                     const std::vector<float> &blVolts, Ns gapNs,
                     int totalActivatedRows)
{
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();
    CellArray &cells = bank_ref.subarray(subarray).cells();
    const SuccessModel &model = chip_.model();
    const std::uint64_t op_stream = beginNoiseEpoch();
    const int pair_load = (totalActivatedRows + 1) / 2;

    // Every column takes random-data coupling (OpConditions' default).
    const auto margin_at = [&](Volt sensed) {
        MajContext ctx;
        ctx.activatedRows = static_cast<int>(localRows.size());
        ctx.cond.temperature = chip_.temperature();
        ctx.glitchGapNs = gapNs;
        ctx.sensed = sensed;
        return model.majMargin(ctx);
    };

    if (scalar()) {
        forEachSetBit(columnMask, [&](ColId col) {
            const Volt v_shared = blVolts[col];
            const StripeId stripe = stripeFor(subarray, col);
            const Volt margin = margin_at(v_shared);
            const bool ideal = v_shared > kVddHalf;
            for (const RowId local : localRows) {
                const RowId global =
                    composeRow(geometry, subarray, local);
                const Volt offset =
                    model.staticOffset(bank, global, col, stripe);
                const bool fail_struct = model.structuralFail(
                    bank, stripe, col, pair_load);
                const bool correct = model.sampleTrialAt(
                    margin, offset, fail_struct,
                    cellNoiseKey(op_stream, global, col));
                cells.setBit(local, col, correct ? ideal : !ideal);
            }
        });
        for (const RowId local : localRows)
            cells.collapseIfRail(local);
        return;
    }

    // Word-parallel: one margin per column; each cell senses its
    // ideal bit when it resolves correctly and the complement when not.
    const auto columns = static_cast<std::size_t>(geometry.columns);
    std::vector<Volt> margins(columns, 0.0);
    BitVector ideal(columns);
    forEachSetBit(columnMask, [&](ColId col) {
        margins[col] = margin_at(blVolts[col]);
        ideal.set(col, blVolts[col] > kVddHalf);
    });
    const CellResolver core(
        chip_, bank, pair_load, op_stream,
        {stripeFor(subarray, 0), stripeFor(subarray, 1)}, columnMask);
    const CellResolver::Classified classified =
        core.classify(std::move(margins));
    BitVector correct;
    for (const RowId local : localRows) {
        core.resolveRow(classified, composeRow(geometry, subarray, local),
                        correct);
        cells.writeMasked(local, ~(ideal ^ correct), columnMask);
    }
}

void
Executor::applyNot(BankState &state, BankId bank,
                   const ActivationEvent &event, Ns gapNs)
{
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();
    const SuccessModel &model = chip_.model();
    const RowAddress src = decomposeRow(geometry, state.firstRow);
    const SubarrayId src_sa = event.firstSubarray;
    const SubarrayId dst_sa = event.secondSubarray;
    const StripeId stripe = sharedStripe(src_sa, dst_sa);
    const Subarray &src_sub = bank_ref.subarray(src_sa);
    const Subarray &dst_sub = bank_ref.subarray(dst_sa);
    const BitVector pattern = bank_ref.readRowBits(state.firstRow);
    const int total = static_cast<int>(event.sets.firstRows.size() +
                                       event.sets.secondRows.size());
    const Region src_region = src_sub.regionFor(src.localRow, stripe);
    const std::uint64_t op_stream = beginNoiseEpoch();
    const int pair_load = (total + 1) / 2;
    const BitVector &shared = sharedColumnMask(src_sa, dst_sa);
    const auto margin_at = [&](Region dstRegion, double coupling) {
        NotContext ctx;
        ctx.totalActivatedRows = total;
        ctx.srcRegion = src_region;
        ctx.dstRegion = dstRegion;
        ctx.cond = {chip_.temperature(), coupling};
        ctx.glitchGapNs = gapNs;
        return model.notMargin(ctx);
    };

    // Extra rows in the source subarray get the source value on every
    // column (their non-shared columns are latched by the stripe on
    // the other side, which also holds the source row's values);
    // destination rows get the complement on shared columns only.
    struct Target
    {
        SubarrayId subarray;
        RowId local;
        RowId global;
        Region region;   ///< Destination-side region of the row.
        bool invert;     ///< Write the complement of the pattern.
        bool sharedOnly; ///< Restrict to the shared columns.
    };
    std::vector<Target> targets;
    targets.reserve(event.sets.firstRows.size() +
                    event.sets.secondRows.size());
    for (const RowId local : event.sets.firstRows) {
        if (local == src.localRow)
            continue;
        targets.push_back({src_sa, local,
                           composeRow(geometry, src_sa, local),
                           src_sub.regionFor(local, stripe), false,
                           false});
    }
    for (const RowId local : event.sets.secondRows) {
        targets.push_back({dst_sa, local,
                           composeRow(geometry, dst_sa, local),
                           dst_sub.regionFor(local, stripe), true,
                           true});
    }

    if (scalar()) {
        for (const Target &t : targets) {
            CellArray &cells = bank_ref.subarray(t.subarray).cells();
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                if (t.sharedOnly && !columnShared(src_sa, dst_sa, col))
                    continue;
                const Volt margin =
                    margin_at(t.region, couplingFractionAt(pattern, col));
                const Volt offset =
                    model.staticOffset(bank, t.global, col, stripe);
                const bool fail_struct = model.structuralFail(
                    bank, stripe, col, pair_load);
                if (model.sampleTrialAt(
                        margin, offset, fail_struct,
                        cellNoiseKey(op_stream, t.global, col))) {
                    const bool src_bit = pattern.get(col);
                    cells.setBit(t.local, col,
                                 t.invert ? !src_bit : src_bit);
                }
                // On failure the cell retains its previous charge.
            }
            cells.collapseIfRail(t.local);
        }
    } else {
        // Word-parallel: the drive margin depends on (target region,
        // coupling class) only. Source-side rows resolve every column
        // and destination rows the shared ones, so each side gets one
        // resolver and each (side, region) one classification.
        couplingClasses(pattern, scratchClasses_);
        const BitVector not_pattern = ~pattern;
        std::optional<CellResolver> sides[2];
        std::optional<CellResolver::Classified> classified[2][3];
        BitVector correct;
        for (const Target &t : targets) {
            const int side = t.sharedOnly ? 1 : 0;
            if (!sides[side]) {
                sides[side].emplace(
                    chip_, bank, pair_load, op_stream,
                    std::array<StripeId, 2>{stripe, stripe},
                    t.sharedOnly ? shared : allColumnsMask());
            }
            auto &slot = classified[side][static_cast<int>(t.region)];
            if (!slot) {
                slot = sides[side]->classify(classMargins(
                    scratchClasses_, [&](double coupling) {
                        return margin_at(t.region, coupling);
                    }));
            }
            sides[side]->resolveRow(*slot, t.global, correct);
            bank_ref.subarray(t.subarray).cells().writeMasked(
                t.local, t.invert ? not_pattern : pattern, correct);
        }
    }

    // Non-shared columns of the destination subarray resolve among
    // the simultaneously activated destination rows themselves.
    if (event.sets.secondRows.size() > 1) {
        const BitVector non_shared = ~shared;
        captureSharedVoltages(bank, dst_sa, event.sets.secondRows,
                              scratchVolts_, &non_shared);
        majResolve(bank, dst_sa, event.sets.secondRows, non_shared,
                   scratchVolts_, gapNs, total);
    }
}

void
Executor::applyLogic(BankState &state, BankId bank,
                     const ActivationEvent &event, Ns gapNs)
{
    Bank &bank_ref = chip_.bank(bank);
    const GeometryConfig &geometry = chip_.geometry();
    const SuccessModel &model = chip_.model();
    const SubarrayId first_sa = event.firstSubarray;
    const SubarrayId second_sa = event.secondSubarray;
    const StripeId stripe = sharedStripe(first_sa, second_sa);
    const Subarray &first_sub = bank_ref.subarray(first_sa);
    const Subarray &second_sub = bank_ref.subarray(second_sa);
    const RowAddress rf = decomposeRow(geometry, state.firstRow);
    const int n_first = static_cast<int>(event.sets.firstRows.size());
    const int n_second = static_cast<int>(event.sets.secondRows.size());
    const int pair_load = (n_first + n_second + 1) / 2;
    const int total = n_first + n_second;
    const std::uint64_t op_stream = beginNoiseEpoch();

    // Representative regions of the first-activated (reference) and
    // the second (compute) side, LogicContext's refRegion and
    // comRegion.
    const Region ref_region = first_sub.regionFor(rf.localRow, stripe);
    const Region com_region =
        second_sub.regionFor(event.secondLocalRow, stripe);

    const BitVector first_pattern = bank_ref.readRowBits(state.firstRow);
    const BitVector &shared = sharedColumnMask(first_sa, second_sa);
    const bool first_on_complement =
        onComplementTerminal(first_sa, stripe);

    // Canonical charge-shared voltage of both terminal sides at every
    // column (counts for rail rows, lane floats otherwise). Writes
    // below only touch the columns they resolve, so capturing up
    // front matches the per-column capture of the old code.
    std::vector<float> first_volts;
    std::vector<float> second_volts;
    captureSharedVoltages(bank, first_sa, event.sets.firstRows,
                          first_volts, &shared);
    captureSharedVoltages(bank, second_sa, event.sets.secondRows,
                          second_volts, &shared);

    struct Target
    {
        SubarrayId subarray;
        RowId local;
        RowId global;
        Region own;
        bool onComplement;
        bool secondSide;
    };
    std::vector<Target> targets;
    targets.reserve(static_cast<std::size_t>(total));
    for (const RowId local : event.sets.firstRows) {
        targets.push_back({first_sa, local,
                           composeRow(geometry, first_sa, local),
                           first_sub.regionFor(local, stripe),
                           first_on_complement, false});
    }
    for (const RowId local : event.sets.secondRows) {
        targets.push_back({second_sa, local,
                           composeRow(geometry, second_sa, local),
                           second_sub.regionFor(local, stripe),
                           !first_on_complement, true});
    }
    // The sensed voltages fix the gate family, so the context's op
    // only names the side a target row is read from: NAND/NOR read
    // the reference (first-activated) rows, which take the
    // inverted-side penalty, and AND/OR the compute rows. The ideal
    // bit still follows the terminal.
    const auto margin_at = [&](const Target &t, ColId col,
                               double coupling) {
        LogicContext ctx;
        ctx.op = t.secondSide ? BoolOp::And : BoolOp::Nand;
        ctx.numInputs = pair_load;
        ctx.comRegion = t.secondSide ? t.own : com_region;
        ctx.refRegion = t.secondSide ? ref_region : t.own;
        ctx.cond = {chip_.temperature(), coupling};
        ctx.glitchGapNs = gapNs;
        ctx.sensed = {first_volts[col], second_volts[col]};
        return model.logicMargin(ctx);
    };

    if (scalar()) {
        for (const Target &t : targets) {
            CellArray &cells = bank_ref.subarray(t.subarray).cells();
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                if (!columnShared(first_sa, second_sa, col))
                    continue;
                const Volt v_first = first_volts[col];
                const Volt v_second = second_volts[col];
                // Ideal outcome: the higher side senses to 1; the
                // complement terminal receives the inverse.
                const bool true_side_high =
                    first_on_complement ? v_second > v_first
                                        : v_first > v_second;
                const Volt margin = margin_at(
                    t, col, couplingFractionAt(first_pattern, col));
                const Volt offset =
                    model.staticOffset(bank, t.global, col, stripe);
                const bool fail_struct = model.structuralFail(
                    bank, stripe, col, pair_load);
                const bool correct = model.sampleTrialAt(
                    margin, offset, fail_struct,
                    cellNoiseKey(op_stream, t.global, col));
                const bool ideal_bit =
                    t.onComplement ? !true_side_high : true_side_high;
                cells.setBit(t.local, col,
                             correct ? ideal_bit : !ideal_bit);
            }
            cells.collapseIfRail(t.local);
        }
    } else {
        // Word-parallel: a target's margins depend on the column and
        // on its (side, region) class, so each class's margin array
        // is computed and classified once and shared by its rows. A
        // cell senses its ideal bit when it resolves correctly and
        // the complement when not.
        couplingClasses(first_pattern, scratchClasses_);
        const auto columns = static_cast<std::size_t>(geometry.columns);
        BitVector true_side(columns);
        forEachSetBit(shared, [&](ColId col) {
            true_side.set(col, first_on_complement
                                   ? second_volts[col] > first_volts[col]
                                   : first_volts[col] > second_volts[col]);
        });
        const BitVector false_side = ~true_side;
        const CellResolver core(chip_, bank, pair_load, op_stream,
                                {stripe, stripe}, shared);
        std::optional<CellResolver::Classified> classified[2][3];
        BitVector correct;
        for (const Target &t : targets) {
            auto &slot = classified[t.secondSide ? 1 : 0]
                                   [static_cast<int>(t.own)];
            if (!slot) {
                std::vector<Volt> margins(columns, 0.0);
                forEachSetBit(shared, [&](ColId col) {
                    margins[col] = margin_at(
                        t, col, couplingFractionOf(scratchClasses_[col]));
                });
                slot = core.classify(std::move(margins));
            }
            core.resolveRow(*slot, t.global, correct);
            const BitVector &ideal =
                t.onComplement ? false_side : true_side;
            bank_ref.subarray(t.subarray).cells().writeMasked(
                t.local, ~(ideal ^ correct), shared);
        }
    }

    // Non-shared columns of each side resolve among that side's own
    // activated rows.
    const auto resolve_non_shared = [&](SubarrayId subarray,
                                        const std::vector<RowId>
                                            &rows) {
        if (rows.size() < 2)
            return;
        const BitVector non_shared = ~shared;
        captureSharedVoltages(bank, subarray, rows, scratchVolts_,
                              &non_shared);
        majResolve(bank, subarray, rows, non_shared, scratchVolts_,
                   gapNs, total);
    };
    resolve_non_shared(first_sa, event.sets.firstRows);
    resolve_non_shared(second_sa, event.sets.secondRows);
}

void
Executor::handleWr(const Command &command)
{
    BankState &state = banks_[command.bank];
    if (!state.open)
        return;
    resolveIfDue(state, command.bank, command.issueNs);
    Bank &bank_ref = chip_.bank(command.bank);
    const GeometryConfig &geometry = chip_.geometry();
    assert(static_cast<int>(command.data.size()) == geometry.columns);

    if (!state.multi) {
        bank_ref.writeRowBits(state.openRows.front(), command.data);
        state.resolved = true;
        return;
    }

    // Multi-row write (the Section 4.2 characterization idiom): rows
    // in the first subarray get the written pattern on every column;
    // rows in the second subarray get its complement on the shared
    // columns and keep their (just resolved) values elsewhere.
    const RowAddress rf = decomposeRow(geometry, state.firstRow);
    for (const RowId row : state.openRows) {
        const RowAddress address = decomposeRow(geometry, row);
        if (address.subarray == rf.subarray) {
            bank_ref.writeRowBits(row, command.data);
            continue;
        }
        CellArray &cells = bank_ref.subarray(address.subarray).cells();
        const BitVector &mask =
            sharedColumnMask(rf.subarray, address.subarray);
        if (scalar()) {
            for (ColId col = 0;
                 col < static_cast<ColId>(geometry.columns); ++col) {
                if (columnShared(rf.subarray, address.subarray, col))
                    cells.setBit(address.localRow, col,
                                 !command.data.get(col));
            }
            cells.collapseIfRail(address.localRow);
        } else {
            cells.writeMasked(address.localRow, ~command.data, mask);
        }
    }
    state.resolved = true;
}

void
Executor::handleRd(const Command &command, ExecResult &result)
{
    BankState &state = banks_[command.bank];
    if (state.open)
        resolveIfDue(state, command.bank, command.issueNs);
    result.reads.push_back(
        chip_.bank(command.bank).readRowBits(command.row));
}

} // namespace fcdram
