// AVX2+FMA+F16C backend table. Compiled with -mavx2 -mfma -mf16c
// -ffp-contract=off (see src/CMakeLists.txt); on toolchains without those
// flags this TU degrades to a nullptr table and dispatch reports the
// backend as not compiled.
#include "lqcd/simd/avx2_kernels.h"
#include "lqcd/simd/backends.h"

namespace lqcd::simd::detail {

#if defined(LQCD_SIMD_AVX2_COMPILED)

namespace {
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2,
    &a2::su3_mul_nn,
    &a2::dslash_lanes,
    &a2::clover_lanes,
    &a2::xpay_lanes,
    &a2::pack_faces_lanes,
    &a2::mr_dots_lanes<a2::Chunks>,
    &a2::mr_axpy_lanes<a2::Chunks>,
    &a2::float_to_half_n,
    &a2::half_to_float_n,
    4,  // lane_width: the 8- and 4-wide paths leave no scalar tail
};
}  // namespace

const Kernels* avx2_table() noexcept { return &kAvx2Kernels; }

#else

const Kernels* avx2_table() noexcept { return nullptr; }

#endif

}  // namespace lqcd::simd::detail
