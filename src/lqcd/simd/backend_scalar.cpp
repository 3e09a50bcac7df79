// Scalar (portable) backend: the reference implementations, wrapped into a
// dispatch table. Compiled with -ffp-contract=off so its results are
// bit-stable across compilers and -march levels (see scalar_kernels.h).
#include "lqcd/simd/backends.h"
#include "lqcd/simd/scalar_kernels.h"

namespace lqcd::simd::detail {

namespace {
constexpr Kernels kScalarKernels = {
    Backend::kScalar,
    &ref::su3_mul_nn,
    &ref::dslash_lanes,
    &ref::clover_lanes,
    &ref::xpay_lanes,
    &ref::pack_faces_lanes,
    &ref::mr_dots_lanes,
    &ref::mr_axpy_lanes,
    &ref::float_to_half_n,
    &ref::half_to_float_n,
    4,  // lane_width: padding to 16 lanes measured slower
};
}  // namespace

const Kernels* scalar_table() noexcept { return &kScalarKernels; }

}  // namespace lqcd::simd::detail
