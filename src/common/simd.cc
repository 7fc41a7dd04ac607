#include "common/simd.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/types.hh"

namespace fcdram::simd {

namespace {

void
classifyScalar(const double *margins, std::size_t n, double bound,
               std::uint64_t *detWords, std::uint32_t *ambiguous,
               std::size_t *ambiguousCount)
{
    const std::size_t words = (n + 63) / 64;
    std::memset(detWords, 0, words * sizeof(std::uint64_t));
    std::size_t amb = 0;
    for (std::size_t i = 0; i < n; ++i) {
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
blendScalar(float *values, std::size_t n, double progress, double band)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double v = values[i];
        if (std::abs(v - kVddHalf) < band)
            continue; // Metastable: the bitline has not moved.
        const double rail = v > kVddHalf ? kVdd : kGnd;
        values[i] = static_cast<float>(v + progress * (rail - v));
    }
}

const Kernels &
selectKernels()
{
    static const Kernels *selected = [] {
        const char *forced = std::getenv("FCDRAM_SIMD");
        if (forced != nullptr && std::strcmp(forced, "scalar") == 0)
            return &scalarKernels();
        if (avx2Compiled() && avx2Supported())
            return &avx2Kernels();
        return &scalarKernels();
    }();
    return *selected;
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels kernels{classifyScalar, blendScalar, "scalar"};
    return kernels;
}

bool
avx2Supported()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

const Kernels &
activeKernels()
{
    return selectKernels();
}

} // namespace fcdram::simd
