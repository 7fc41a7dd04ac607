/**
 * @file
 * PuD query compiler: lowers an expression DAG to a μprogram of the
 * FCDRAM operation primitives the substrate executes natively —
 * operand copy-in, N-input AND/OR wide gates (with the inverted
 * NAND/NOR result available for free on the reference rows of the
 * same activation), and cross-subarray NOT.
 *
 * The compiler fuses associative gate trees into wide gates of up to
 * CompilerOptions::maxGateInputs inputs (the paper demonstrates
 * 16-input operations on SK Hynix chips), reuses common
 * subexpressions (one μop per unique gate), decomposes XOR into the
 * functionally-complete basis as
 * XOR(a, b) = AND(OR(a, b), NAND(a, b)) — where the NAND is the free
 * reference-side twin of AND(a, b) — and assigns every μop a
 * topological wave so independent gates can be batched onto distinct
 * subarray pairs by the executor.
 */

#ifndef FCDRAM_PUD_COMPILER_HH
#define FCDRAM_PUD_COMPILER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "pud/expr.hh"

namespace fcdram::pud {

/**
 * Compute backend a query lowers to: which native substrate
 * primitive realizes the AND/OR gates of the expression DAG.
 */
enum class ComputeBackend : std::uint8_t {
    /**
     * The FCDRAM basis (HPCA'24): cross-subarray N:N simultaneous
     * activation against a constants + Frac reference, with the
     * inverted NAND/NOR result free on the reference rows.
     */
    NandNor,

    /**
     * The SiMRA basis (simultaneous many-row activation, Yüksel et
     * al. 2024): 4-32 rows of *one* subarray charge-share a bitline
     * and restore its majority, giving native MAJ; AND/OR become
     * input-biased MAJ gates (Buddy-RAM lowering) with balanced
     * constant rows and one Frac tiebreaker. No free inverted twin:
     * NAND/NOR pay an explicit NOT.
     */
    SimraMaj,
};

/** Printable name of a compute backend. */
const char *toString(ComputeBackend backend);

/** Compilation knobs. */
struct CompilerOptions
{
    /**
     * Widest gate the compiler may emit. 16 is the paper's maximum
     * demonstrated input count; the allocator additionally clamps to
     * the target design's capability. Setting 2 degenerates to a
     * classic Ambit-style 2-input gate tree (the fusion ablation).
     * On the SimraMaj backend a k-input gate occupies a 2k-row
     * activation group, so callers clamp this to
     * ChipProfile::maxSimraInputs().
     */
    int maxGateInputs = 16;

    /** Gate basis the DAG lowers to. */
    ComputeBackend backend = ComputeBackend::NandNor;
};

/** Handle on a μprogram value (virtual register). */
using ValueId = std::uint32_t;

/** Sentinel for "no value". */
inline constexpr ValueId kNoValue = static_cast<ValueId>(-1);

/** μop kinds the executor realizes on the DRAM substrate. */
enum class MicroOpKind : std::uint8_t {
    Load, ///< Materialize a named column (copy-in to a compute row).
    Wide, ///< N-input AND/OR gate (+ free NAND/NOR reference twin).
    Not,  ///< Cross-subarray NOT through the shared sense amps.
    Maj,  ///< In-subarray SiMRA majority over an activation group.
};

/** One μop of a compiled query. */
struct MicroOp
{
    MicroOpKind kind = MicroOpKind::Wide;

    /**
     * Charge-sharing family of a Wide gate: BoolOp::And or BoolOp::Or
     * (NAND/NOR are not separate executions — they are the reference
     * side of the corresponding And/Or gate).
     */
    BoolOp family = BoolOp::And;

    /** Source column name (Load only). */
    std::string column;

    /** Operand values (Wide: N >= 2 inputs; Not: exactly one). */
    std::vector<ValueId> inputs;

    /**
     * Direct result: the AND/OR read from the compute rows (Wide),
     * the negated value (Not), or the materialized column (Load).
     * kNoValue when only the reference side is consumed.
     */
    ValueId computeValue = kNoValue;

    /**
     * Free inverted result read from the reference rows (Wide only):
     * NAND for the And family, NOR for the Or family. kNoValue when
     * unused.
     */
    ValueId referenceValue = kNoValue;

    /**
     * Topological wave: 0 for loads, 1 + max(producer waves)
     * otherwise. μops sharing a wave are mutually independent and can
     * run batched on distinct subarray pairs.
     */
    int wave = 0;

    /**
     * Maj only: all-1s / all-0s constant rows in the activation
     * group. The imbalance biases the majority (AND: zeros dominate
     * by width-1; OR: ones; pure MAJ: balanced), and one extra
     * balanced pair pads odd remainders of the power-of-two group.
     */
    int constantOnes = 0;
    int constantZeros = 0;

    /** Maj only: Frac-initialized VDD/2 tiebreaker rows (>= 1). */
    int neutralRows = 0;

    /**
     * Maj only: total simultaneously activated rows
     * (inputs + constants + neutrals; a power of two).
     */
    int activatedRows = 0;

    /** Gate width (Wide/Maj: operand count; otherwise 1). */
    int width() const
    {
        return kind == MicroOpKind::Wide || kind == MicroOpKind::Maj
                   ? static_cast<int>(inputs.size())
                   : 1;
    }
};

/** A compiled query: μops in topological order. */
struct MicroProgram
{
    std::vector<MicroOp> ops;

    /** Number of virtual values the ops define. */
    std::uint32_t numValues = 0;

    /** Value holding the query result. */
    ValueId result = kNoValue;

    /** 1 + the largest wave of any op. */
    int numWaves = 0;

    /** Basis the program was lowered to. */
    ComputeBackend backend = ComputeBackend::NandNor;

    /** Op counts by kind. */
    int loadOps() const;
    int wideOps() const;
    int notOps() const;
    int majOps() const;
};

/** Lower an expression DAG to a μprogram. */
class Compiler
{
  public:
    explicit Compiler(CompilerOptions options = CompilerOptions());

    const CompilerOptions &options() const { return options_; }

    MicroProgram compile(const ExprPool &pool, ExprId root) const;

  private:
    CompilerOptions options_;
};

/**
 * CPU golden-model evaluation of every μprogram value. Used by the
 * executor both as the per-column fallback for unreliable bit
 * positions and as the accuracy reference.
 *
 * @return One BitVector per ValueId.
 */
std::vector<BitVector>
goldenValues(const MicroProgram &program,
             const std::map<std::string, BitVector> &columns);

} // namespace fcdram::pud

#endif // FCDRAM_PUD_COMPILER_HH
