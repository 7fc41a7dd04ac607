/**
 * @file
 * PuD row allocator: places the gates of a compiled μprogram onto
 * qualifying (RF, RL) subarray-pair activations of one module.
 *
 * Wide N-input gates need an N:N simultaneous activation pair; NOT
 * needs a pair reaching one destination row; SiMRA MAJ needs an N-row
 * same-subarray group. Candidate pairs come from the FleetSession
 * discovery cache (or direct probing for a private chip), and one
 * ranking frame places all three reliability-mask-aware: each
 * candidate's mask is the threshold cut of its per-column worst-case
 * success probability (worst operand ones-count, full bitline
 * coupling; the op's SuccessModel margin) and the candidates with the
 * densest masks win. Columns outside an op's mask are computed on the
 * CPU per column at execution time (the fallback path), so the mask
 * also bounds which bit positions the DRAM result is trusted for
 * (pud::trustedMasks in pud/lower.hh).
 */

#ifndef FCDRAM_PUD_ALLOCATOR_HH
#define FCDRAM_PUD_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/bitvector.hh"
#include "fcdram/session.hh"
#include "pud/compiler.hh"

namespace fcdram::pud {

/** Placement constants; no caller sets a placement value. */
struct AllocatorOptions
{
    /**
     * Per-cell worst-case success-rate threshold (percent) a column
     * must meet to be computed in DRAM. It keeps the per-trial
     * failure probability of masked columns at or below 1e-4, which
     * majority voting (EngineOptions::redundancy) then suppresses
     * further.
     */
    static constexpr double maskThresholdPercent = 99.99;
};

/** A placed wide-gate execution site. */
struct GateSlot
{
    PairContext context;

    /** Discovered anchor pair (global rows): RF drives, RL follows. */
    RowId refAnchor = 0;
    RowId comAnchor = 0;

    /** The N reference rows (RF's subarray, global ids). */
    std::vector<RowId> refRows;

    /** The N compute rows (RL's subarray, global ids). */
    std::vector<RowId> computeRows;

    /**
     * Per compute row: a staging row in the same subarray that
     * pair-activates with it (RowClone copy-in source), or
     * kInvalidRow when none was found. Data resident in a staging
     * row reaches its compute row with a 4-command in-DRAM copy
     * instead of a host write.
     */
    std::vector<RowId> stagingRows;

    /**
     * Per compute row: reliable columns of the staging -> compute
     * RowClone (worst-case analytic mask); empty when there is no
     * staging row.
     */
    std::vector<BitVector> stagingMasks;

    /** Reliable columns of the compute side per family (And/Or). */
    BitVector andMask;
    BitVector orMask;

    /** Reliable columns of the reference side (Nand/Nor). */
    BitVector nandMask;
    BitVector norMask;

    int width = 0;

    /** Mask for one executed result side. */
    const BitVector &mask(BoolOp op) const;

    /** Placement score: summed densities of the four masks. */
    double score() const;
};

/** A placed NOT execution site. */
struct NotSlot
{
    PairContext context;
    RowId srcRow = 0; ///< RF (source) global row.
    RowId dstRow = 0; ///< RL (destination) global row.

    /** Reliable columns of the destination row. */
    BitVector mask;
};

/**
 * A placed SiMRA MAJ execution site: an N-row same-subarray
 * simultaneous-activation group (N-row operand group instead of a
 * subarray pair). The executor assigns operand, constant, and
 * neutral rows within the group and reads the result back from the
 * group's first row.
 */
struct MajSlot
{
    PairContext context; ///< bank + host (low) subarray.

    /** Discovered same-subarray anchors (global rows). */
    RowId rfAnchor = 0;
    RowId rlAnchor = 0;

    /** The N activated rows (global ids, sorted). */
    std::vector<RowId> rows;

    int activatedRows = 0;

    /**
     * Reliable columns of the measured (first) row under the
     * worst-case one-cell majority margin — conservative for every
     * gate the group can host.
     */
    BitVector mask;
};

/** Placement of a μprogram onto one module's activation sites. */
struct Placement
{
    /** Per μop index: slot in gateSlots / notSlots / majSlots, or -1. */
    std::vector<int> gateSlotOf;
    std::vector<int> notSlotOf;
    std::vector<int> majSlotOf;

    std::vector<GateSlot> gateSlots;
    std::vector<NotSlot> notSlots;
    std::vector<MajSlot> majSlots;

    /**
     * True if every Wide and Not μop received a slot. μops without a
     * slot (design cannot activate the required shape) execute
     * entirely on the CPU fallback path.
     */
    bool complete = true;
};

/**
 * Discovers and ranks execution sites for one module (or one private
 * chip) and assigns μops to them, spreading the μops of one wave
 * round-robin over the ranked slots so independent gates land on
 * distinct subarray pairs.
 */
class RowAllocator
{
  public:
    /**
     * Session-backed: discovery served by the memoized pair cache.
     * Pair discovery is temperature-independent (decoder expansion is
     * structural), but reliability masks are not: they derive at
     * @p maskTemperature when given, else at the session chip's
     * temperature. QueryService re-derives allocators through this
     * override when a prepared plan goes temperature-stale.
     */
    RowAllocator(const FleetSession &session,
                 const FleetSession::Module &module,
                 AllocatorOptions options = AllocatorOptions(),
                 std::optional<Celsius> maskTemperature = std::nullopt);

    /** Direct: probe a private chip (tests, custom profiles). */
    RowAllocator(const Chip &chip, std::uint64_t seed,
                 AllocatorOptions options = AllocatorOptions());

    const Chip &chip() const { return *chip_; }
    const AllocatorOptions &options() const { return options_; }

    /**
     * Temperature every reliability mask of this allocator was
     * derived at (the chip's temperature when the allocator was
     * constructed). Masks are only valid for executions at the same
     * temperature; the engine rejects or re-derives on mismatch.
     */
    Celsius maskTemperature() const { return temperature_; }

    /** Place every Wide/Not/Maj μop of @p program. */
    Placement place(const MicroProgram &program) const;

    /** Ranked slots for one gate width (cached). */
    const std::vector<GateSlot> &gateSlots(int width) const;

    /** Ranked NOT slots (cached). */
    const std::vector<NotSlot> &notSlots() const;

    /** Ranked SiMRA group slots for one activation size (cached). */
    const std::vector<MajSlot> &majSlots(int activatedRows) const;

  private:
    /**
     * The one ranking frame behind gateSlots, notSlots and majSlots,
     * cached in @p cache under @p key. Walks the module's pair
     * contexts and turns @p query's discovered (first, second) pairs
     * into slots through build(context, first, second) until
     * kCandidatePairsPerWidth slots exist (a candidate that build
     * rejects with nullopt does not count), then keeps the
     * kSlotsPerWidth densest, stably sorted (allocator.cc).
     */
    template <class Slot, class Build>
    const std::vector<Slot> &
    rankSlots(std::map<int, std::vector<Slot>> &cache, int key,
              const PairQuery &query, const Build &build) const;

    std::vector<std::pair<RowId, RowId>>
    discover(const PairContext &context, const PairQuery &query) const;

    std::vector<PairContext> directContexts() const;

    const FleetSession *session_ = nullptr;
    FleetSession::Module module_{}; ///< By value: no lifetime ties.
    const Chip *chip_ = nullptr;
    std::uint64_t seed_ = 0;
    AllocatorOptions options_;

    /** Chip temperature the reliability masks were derived at. */
    Celsius temperature_ = kDefaultTemperature;

    // Lazy discovery caches; entries are immutable once published
    // and map nodes are stable, so returned references stay valid.
    mutable std::mutex mutex_;
    mutable std::map<int, std::vector<GateSlot>> slotsByWidth_;
    mutable std::map<int, std::vector<MajSlot>> majSlotsByRows_;
    mutable std::map<int, std::vector<NotSlot>> notSlots_; ///< Key 1.
    mutable std::vector<PairContext> contexts_;
};

/**
 * Extremal operating assumption the per-column success probabilities
 * are evaluated under. Worst pins the minimum margin over operand
 * ones-counts at full bitline coupling (the deployment-mask side);
 * Best pins the maximum margin at zero coupling (the optimistic side
 * of the certifier's error intervals). Both bound every concrete
 * operand pattern the executor can face.
 */
enum class MarginCase : std::uint8_t { Worst, Best };

/**
 * Per-column per-trial success probability of one executed gate side
 * under @p marginCase, indexed by column id. Columns the mechanism
 * does not reach (outside the subarray pair's shared stripe) hold
 * -1.0; empty when the pair does not activate as N:N simultaneous
 * with N >= 2.
 * Every reliability mask the allocator places is the
 * maskThresholdPercent cut of a Worst vector, and the plan certifier
 * (verify/certify) seeds its flip-probability intervals from the
 * [Worst, Best] pair. All four functions evaluate the cells of the
 * row the executor reads, at @p temperature, which must match the
 * chip temperature at execution time.
 */
std::vector<double>
logicSuccessProbabilities(const Chip &chip, BankId bank, BoolOp op,
                          RowId refGlobal, RowId comGlobal,
                          Celsius temperature, MarginCase marginCase);

/** Per-column success probabilities of a NOT destination row. */
std::vector<double>
notSuccessProbabilities(const Chip &chip, BankId bank, RowId srcGlobal,
                        RowId dstGlobal, Celsius temperature,
                        MarginCase marginCase);

/**
 * Per-column success probabilities of an in-subarray RowClone onto
 * @p dstGlobal; every column participates (RowClone is not confined
 * to a shared stripe). Empty unless the pair activates two rows.
 */
std::vector<double>
rowCloneSuccessProbabilities(const Chip &chip, BankId bank,
                             RowId srcGlobal, RowId dstGlobal,
                             Celsius temperature,
                             MarginCase marginCase);

/**
 * Per-column success probabilities of a SiMRA MAJ group's measured
 * (first) row, on every column of the subarray. Worst evaluates the
 * one-deciding-cell margin on the penalized high-common-mode side
 * (the minimum any hosted gate can face); Best the easiest
 * ones-count at zero coupling. Empty when the pair does not expand
 * to @p activatedRows rows.
 */
std::vector<double>
majSuccessProbabilities(const Chip &chip, BankId bank, RowId rfGlobal,
                        RowId rlGlobal, int activatedRows,
                        Celsius temperature, MarginCase marginCase);

} // namespace fcdram::pud

#endif // FCDRAM_PUD_ALLOCATOR_HH
