/**
 * @file
 * Runtime-dispatched SIMD kernels for the executor's two hot scalar
 * loops: margin classification (deciding every column of an op's
 * margin array or queueing it for a per-row draw) and the analog
 * blend of partial restores. The scalar implementations are always
 * compiled and act as the golden reference; an AVX2 variant is built
 * when the toolchain supports it (see FCDRAM_ENABLE_AVX2 in CMake) and
 * selected at runtime via __builtin_cpu_supports, so one binary runs
 * on any x86-64. Every kernel is bit-exact against its scalar
 * counterpart: classification is pure comparisons and the blend uses
 * the same double-precision multiply/add sequence lane-wise (no FMA
 * contraction), verified by tests/test_wordparallel.cc on randomized
 * inputs.
 */

#ifndef FCDRAM_COMMON_SIMD_HH
#define FCDRAM_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace fcdram::simd {

/**
 * Classify @p n columns by their margins: column i succeeds
 * deterministically when margins[i] > bound (bit i of detWords set),
 * fails deterministically when margins[i] < -bound (bit clear, not
 * listed), and is ambiguous otherwise (appended to @p ambiguous in
 * ascending order). detWords has (n + 63) / 64 entries and is fully
 * overwritten (tail bits zero); @p ambiguous must hold n entries;
 * *ambiguousCount receives the count.
 */
using ClassifyMarginsFn = void (*)(const double *margins, std::size_t n,
                                   double bound, std::uint64_t *detWords,
                                   std::uint32_t *ambiguous,
                                   std::size_t *ambiguousCount);

/**
 * Partial-restore blend: each float value v (widened to double) moves
 * toward its nearest rail by v + progress * (rail - v), unless it sits
 * inside the metastable band (|v - VDD/2| < band), where it stays
 * untouched. In-place over @p n values, bit-exact with the scalar
 * executor loop.
 */
using BlendTowardRailFn = void (*)(float *values, std::size_t n,
                                   double progress, double band);

/** One dispatchable kernel set. */
struct Kernels
{
    ClassifyMarginsFn classifyMargins = nullptr;
    BlendTowardRailFn blendTowardRail = nullptr;
    const char *name = "";
};

/** Portable reference kernels (always available). */
const Kernels &scalarKernels();

/** AVX2 kernels; null members if not compiled in. */
const Kernels &avx2Kernels();

/** True if the AVX2 TU was compiled with AVX2 support. */
bool avx2Compiled();

/** True if this CPU supports AVX2 (runtime probe). */
bool avx2Supported();

/**
 * Kernels selected for this process: AVX2 when compiled in and
 * supported by the CPU, scalar otherwise. Setting the environment
 * variable FCDRAM_SIMD=scalar forces the scalar set (diagnostics).
 */
const Kernels &activeKernels();

} // namespace fcdram::simd

#endif // FCDRAM_COMMON_SIMD_HH
