// Runtime-dispatched SIMD kernel backends for the hot SU(3) / dslash /
// clover / lane (SOA-over-RHS) arithmetic.
//
// The paper's performance rests on hand-vectorized kernels (Sec. VI); on
// host hardware we provide the same split explicitly: a portable scalar
// path (the reference semantics, autovectorized via LQCD_PRAGMA_SIMD), an
// AVX2+FMA+F16C backend, and an AVX-512 backend. One of them is selected
// at runtime by CPUID, overridable with the LQCD_SIMD_BACKEND environment
// variable ("scalar" | "avx2" | "avx512") or programmatically with
// force_backend(). Kernel code includes ONLY this header (enforced by
// tools/analyze): concrete backends live in src/lqcd/simd/*.cpp and
// are reached through the function-pointer table below.
//
// Numerical contract (tested in tests/test_simd.cpp):
//   - su3_mul_nn, dslash_lanes, pack_faces_lanes and xpay are
//     BIT-IDENTICAL across backends: every backend evaluates the same
//     expressions in the same order, FMA contraction is disabled on all
//     backend translation units (-ffp-contract=off) and the intrinsic
//     paths use separate mul/add.
//   - clover_lanes and the MR kernels MAY use FMA in the wide backends;
//     they agree with scalar to <= 1e-6 relative, and avx2 and avx512
//     evaluate the same per-lane FMA sequence, so those two agree bitwise.
//   - Lanes are independent at every lane count: lane b of an L-lane call
//     is bitwise equal to a one-lane call on lane b's data. At one lane
//     the wide backends vectorize within the site instead of across lanes,
//     with the same per-lane operation sequence.
//   - float_to_half_n / half_to_float_n are bit-identical everywhere
//     (F16C round-to-nearest-even matches the software converter exactly,
//     including saturate-to-inf overflow and NaN quieting).
//   - Exact zeros stay exact zeros in every backend, so SchwarzStats
//     counters (which branch only on arar == 0) are backend-invariant.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "lqcd/linalg/fp16.h"
#include "lqcd/su3/clover_block.h"

namespace lqcd::simd {

enum class Backend : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumBackends = 3;

/// A lane count every backend runs without a tail: each backend's
/// Kernels::lane_width divides it (tested). Batch caps and the kernel
/// benches use it so that they do not depend on the host's backend.
inline constexpr int kCommonLaneWidth = 16;

/// The dispatched kernel table. All lane kernels take the SOA-over-RHS
/// layout of schwarz/storage.h: a "lane vector" is `lanes` contiguous
/// floats, components are [re lane vector][im lane vector] pairs.
struct Kernels {
  Backend backend;

  /// c[i] = a[i] * b[i] over n row-major complex 3x3 matrices (18 floats
  /// each, (re,im) interleaved) — the su3_bench calibration kernel.
  void (*su3_mul_nn)(const float* a, const float* b, float* c,
                     std::int64_t n);

  /// The Dirichlet parity dslash of one domain on all lanes in one call.
  /// Output site i (< nsites) is local site l = l0 + i and receives the
  /// sum over l's in-domain hops of (1 - gamma_mu) U_mu(l) psi(l + mu)
  /// and (1 + gamma_mu) U_mu(l - mu)^dagger psi(l - mu), added in the
  /// order mu = 0..3, forward before backward. `nbr` is the shared
  /// [local][mu][dir] table of DomainPartition::local_neighbors() (-1:
  /// outside the domain, hop skipped); psi at local site n is read from
  /// `in` at site n - in_off. `links` holds kNumDims SU(3) matrices (18
  /// floats each) per local site. Any lanes >= 1; in and out must not
  /// alias.
  void (*dslash_lanes)(const float* links, const std::int32_t* nbr,
                       std::int32_t l0, std::int32_t in_off,
                       std::int32_t nsites, const float* in, float* out,
                       int lanes);

  /// The two chirality clover blocks of each of `nsites` sites applied to
  /// its 24-component spinor lane vectors: out(i) = blockpair_i in(i),
  /// in and out site-major. Site i's blocks are the 72 floats at
  /// blocks + 72 i, chirality 0 first, each in the packed layout of
  /// schwarz/storage.h store_block: six diagonal reals, then the 15 lower
  /// off-diagonal entries M[i][j] (i > j, packed_index order) as (re, im).
  /// Must not alias.
  void (*clover_lanes)(const float* blocks, std::int32_t nsites,
                       const float* in, float* out, int lanes);

  /// out[k] = x[k] + s * y[k] over n floats (the fused Schur/RHS combine
  /// loops). In-place use (out == x or out == y) is fine.
  void (*xpay_lanes)(const float* x, float s, const float* y, float* out,
                     std::int64_t n);

  /// One domain's boundary pack: the correction `z` (spinor lane vectors
  /// by local site) projected onto its faces, in face-buffer order: mu =
  /// 0..3, each the forward face (x_mu = block_mu - 1) then the backward
  /// face (x_mu = 0), face_size[mu] sites each, their local sites listed
  /// back to back in `face_sites`. Face site p at local site l writes,
  /// for every lane b < nrhs, the upper two spin rows of U_mu(l)^dagger
  /// (1 + gamma_mu) z(l) on a forward face and of (1 - gamma_mu) z(l) on
  /// a backward face: 12 floats ([spin][color][re, im]) at
  /// out + b * rhs_stride + 12 p. `links` as in dslash_lanes.
  void (*pack_faces_lanes)(const float* links, const std::int32_t* face_sites,
                           const std::int32_t* face_size, const float* z,
                           int lanes, int nrhs, float* out,
                           std::int64_t rhs_stride);

  /// Per-lane MR inner products, accumulated in double: arr = <Ar, r>,
  /// arar = <Ar, Ar>. Caller zeroes the accumulators. Layout as in
  /// solver/mr.h lane_mr_dots.
  void (*mr_dots_lanes)(const float* r, const float* ar, std::int64_t ncomplex,
                        int lanes, double* arr_re, double* arr_im,
                        double* arar);

  /// The MR update, lane-wise: z += alpha r, r -= alpha Ar with per-lane
  /// complex alphas (masked lanes carry alpha = 0).
  void (*mr_axpy_lanes)(float* z, float* r, const float* ar,
                        std::int64_t ncomplex, int lanes,
                        const float* alpha_re, const float* alpha_im);

  /// Array binary16 conversions (F16C in the wide backends, the software
  /// converter of linalg/fp16.cpp otherwise). Bit-identical everywhere.
  void (*float_to_half_n)(const float* src, Half* dst, std::int64_t n);
  void (*half_to_float_n)(const Half* src, float* dst, std::int64_t n);

  /// Lane count at which this backend's lane kernels run with no masked
  /// or scalar tail. SchwarzPreconditioner pads every lane batch of two
  /// or more right-hand sides to a multiple of it; a batch of one runs at
  /// one lane.
  int lane_width;
};

/// Canonical lower-case backend name ("scalar" | "avx2" | "avx512").
const char* to_string(Backend b) noexcept;

/// Parse a backend name; throws lqcd::Error on anything unknown.
Backend parse_backend(std::string_view name);

/// True iff the backend's translation unit was built with the required
/// instruction sets (always true for scalar).
bool backend_compiled(Backend b) noexcept;

/// True iff the backend is compiled AND this CPU can execute it.
bool backend_supported(Backend b) noexcept;

/// All backends usable on this machine, best (widest) first.
std::vector<Backend> available_backends();

/// CPUID selection: avx512 if supported, else avx2, else scalar.
Backend detect_backend() noexcept;

/// Reads LQCD_SIMD_BACKEND now. Empty/unset -> nullopt. Throws
/// lqcd::Error on an unknown name or on a backend this machine cannot run.
std::optional<Backend> backend_from_env();

/// The active kernel table. First use resolves LQCD_SIMD_BACKEND (throwing
/// on invalid values) and falls back to detect_backend(). Thread-safe.
const Kernels& kernels();

/// Backend of the active table (initializes dispatch on first use).
Backend active_backend();

/// Force the active backend (tests / benches). Throws lqcd::Error if the
/// backend is not compiled in or not supported by this CPU.
void force_backend(Backend b);

/// RAII save/force/restore of the active backend.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : saved_(active_backend()) {
    force_backend(b);
  }
  ~ScopedBackend() { force_backend(saved_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend saved_;
};

}  // namespace lqcd::simd
