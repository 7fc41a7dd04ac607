/**
 * @file
 * AVX2 variants of the SIMD kernels. This is the only translation unit
 * compiled with -mavx2 (see FCDRAM_ENABLE_AVX2 in CMakeLists.txt);
 * everything else in the library stays baseline x86-64, and callers
 * reach these kernels only through the runtime dispatch in simd.cc.
 *
 * Bit-exactness notes: classification compares four margins at a
 * time against +bound and -bound with ordered compares, which agree
 * with the scalar > and < on every input (NaN included) and pack into
 * movemask bits; the blend widens floats to doubles and applies the same
 * multiply-then-add sequence as the scalar loop with explicit
 * intrinsics, so no FMA contraction can change results.
 */

#include "common/simd.hh"

#if defined(FCDRAM_SIMD_AVX2_ENABLED) && defined(__AVX2__)
#define FCDRAM_HAVE_AVX2_IMPL 1
#include <immintrin.h>
#else
#define FCDRAM_HAVE_AVX2_IMPL 0
#endif

#include <cmath>

#include "common/types.hh"

namespace fcdram::simd {

#if FCDRAM_HAVE_AVX2_IMPL

namespace {

void
classifyAvx2(const double *margins, std::size_t n, double bound,
             std::uint64_t *detWords, std::uint32_t *ambiguous,
             std::size_t *ambiguousCount)
{
    const __m256d hi = _mm256_set1_pd(bound);
    const __m256d lo = _mm256_set1_pd(-bound);
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
        detWords[w] = 0;

    std::size_t amb = 0;
    std::size_t i = 0;
    // 16 columns per step, so a step never straddles a det word.
    for (; i + 16 <= n; i += 16) {
        unsigned det = 0;
        unsigned fail = 0;
        for (unsigned k = 0; k < 4; ++k) {
            const __m256d m = _mm256_loadu_pd(margins + i + 4 * k);
            det |= static_cast<unsigned>(_mm256_movemask_pd(
                       _mm256_cmp_pd(m, hi, _CMP_GT_OQ)))
                   << (4 * k);
            fail |= static_cast<unsigned>(_mm256_movemask_pd(
                        _mm256_cmp_pd(m, lo, _CMP_LT_OQ)))
                    << (4 * k);
        }
        detWords[i / 64] |= static_cast<std::uint64_t>(det) << (i % 64);
        unsigned draw = ~(det | fail) & 0xFFFFu;
        while (draw != 0) {
            const unsigned b = static_cast<unsigned>(__builtin_ctz(draw));
            draw &= draw - 1;
            ambiguous[amb++] = static_cast<std::uint32_t>(i + b);
        }
    }
    for (; i < n; ++i) {
        const double margin = margins[i];
        if (margin > bound) {
            detWords[i / 64] |= std::uint64_t{1} << (i % 64);
        } else if (!(margin < -bound)) {
            ambiguous[amb++] = static_cast<std::uint32_t>(i);
        }
    }
    *ambiguousCount = amb;
}

void
blendAvx2(float *values, std::size_t n, double progress, double band)
{
    const __m256d half = _mm256_set1_pd(kVddHalf);
    const __m256d vdd = _mm256_set1_pd(kVdd);
    const __m256d gnd = _mm256_set1_pd(kGnd);
    const __m256d bandv = _mm256_set1_pd(band);
    const __m256d prog = _mm256_set1_pd(progress);
    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));

    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 f = _mm_loadu_ps(values + i);
        const __m256d v = _mm256_cvtps_pd(f);
        const __m256d dist =
            _mm256_and_pd(_mm256_sub_pd(v, half), absMask);
        // Metastable lanes (|v - VDD/2| < band) keep their value.
        const __m256d meta = _mm256_cmp_pd(dist, bandv, _CMP_LT_OQ);
        const __m256d up = _mm256_cmp_pd(v, half, _CMP_GT_OQ);
        const __m256d rail = _mm256_blendv_pd(gnd, vdd, up);
        // Same shape as the scalar loop: v + progress * (rail - v),
        // multiply then add (no FMA).
        const __m256d moved = _mm256_add_pd(
            v, _mm256_mul_pd(prog, _mm256_sub_pd(rail, v)));
        const __m256d out = _mm256_blendv_pd(moved, v, meta);
        _mm_storeu_ps(values + i, _mm256_cvtpd_ps(out));
    }
    for (; i < n; ++i) {
        const double v = values[i];
        if (std::abs(v - kVddHalf) < band)
            continue;
        const double rail = v > kVddHalf ? kVdd : kGnd;
        values[i] = static_cast<float>(v + progress * (rail - v));
    }
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels kernels{classifyAvx2, blendAvx2, "avx2"};
    return kernels;
}

bool
avx2Compiled()
{
    return true;
}

#else // !FCDRAM_HAVE_AVX2_IMPL

const Kernels &
avx2Kernels()
{
    static const Kernels kernels{nullptr, nullptr, "unavailable"};
    return kernels;
}

bool
avx2Compiled()
{
    return false;
}

#endif // FCDRAM_HAVE_AVX2_IMPL

} // namespace fcdram::simd
