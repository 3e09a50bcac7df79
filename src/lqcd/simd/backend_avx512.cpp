// AVX-512 backend: its vector traits (Zmm, 16 lanes per __m512, and the
// masked ZmmTail, so a lane tail is one masked chunk), its chunk list
// {Zmm} + ZmmTail, and its one-lane kernels. Every lane kernel at two or
// more lanes is the chunk loop of simd/dslash_lanes.h over that list,
// with the chunk bodies avx2 uses (a2::clover_site, a2::mr_dots_chunk,
// a2::mr_axpy_chunk: one pass per 16 lanes). su3_mul_nn and the one-lane
// MR kernels are the AVX2 ones. Compiled with -mavx512f -mavx512vl
// -mavx512bw -mavx512dq plus the AVX2 set and -ffp-contract=off.
//
// Numerics match the AVX2 backend kernel-for-kernel: the bit-exact
// kernels (su3 multiply, dslash, face pack, xpay) use separate
// mul+add in scalar accumulation order; clover and MR use the per-lane FMA
// sequence of the AVX2 kernels, which is width-independent, so avx512 ==
// avx2 bitwise there as well.
//
// One lane (a batch of one) runs within the site: a half spinor's 12
// floats (two spin rows x three colors x (re, im)) fill positions 0..11 of
// one __m512, and the projection, each SU(3) column and the clover's
// off-diagonal columns are two-source permutes of the loaded site, link or
// block followed by the lane kernels' per-lane arithmetic. Positions
// 12..15 are zero or ignored and never stored.
#include "lqcd/simd/avx2_kernels.h"
#include "lqcd/simd/backends.h"

#if defined(LQCD_SIMD_AVX2_COMPILED) && defined(__AVX512F__) && \
    defined(__AVX512VL__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
#define LQCD_SIMD_AVX512_COMPILED 1

#include <immintrin.h>

#include <array>
#include <cstdint>
#include <limits>

namespace lqcd::simd::a5 {

/// Vector traits of simd/dslash_lanes.h and the a2:: FMA chunk bodies:
/// 16 lanes per __m512 (as doubles, two __m512d), and a masked variant
/// for the last lanes % 16.
struct Zmm {
  using reg = __m512;
  struct dreg {
    __m512d lo, hi;
  };
  static constexpr int width = 16;
  reg load(const float* p) const noexcept { return _mm512_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm512_storeu_ps(p, x); }
  dreg load(const double* p) const noexcept {
    return {_mm512_loadu_pd(p), _mm512_loadu_pd(p + 8)};
  }
  void store(double* p, dreg x) const noexcept {
    _mm512_storeu_pd(p, x.lo);
    _mm512_storeu_pd(p + 8, x.hi);
  }
  static reg zero() noexcept { return _mm512_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm512_set1_ps(x); }
  /// (Zero-masked conversions and extracts: GCC 12 warns about the
  /// undefined pass-through operand of the unmasked cvtps_pd and of
  /// castps512_ps256.)
  static dreg widen(reg x) noexcept {
    return {_mm512_maskz_cvtps_pd(0xFF, _mm512_extractf32x8_ps(x, 0)),
            _mm512_maskz_cvtps_pd(0xFF, _mm512_extractf32x8_ps(x, 1))};
  }
  static reg add(reg a, reg b) noexcept { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_ps(a, b); }
  static reg fmadd(reg a, reg b, reg c) noexcept {
    return _mm512_fmadd_ps(a, b, c);
  }
  static reg fnmadd(reg a, reg b, reg c) noexcept {
    return _mm512_fnmadd_ps(a, b, c);
  }
  static dreg fmadd(dreg a, dreg b, dreg c) noexcept {
    return {_mm512_fmadd_pd(a.lo, b.lo, c.lo),
            _mm512_fmadd_pd(a.hi, b.hi, c.hi)};
  }
  static dreg fnmadd(dreg a, dreg b, dreg c) noexcept {
    return {_mm512_fnmadd_pd(a.lo, b.lo, c.lo),
            _mm512_fnmadd_pd(a.hi, b.hi, c.hi)};
  }
};

/// A masked Zmm for the last lanes % 16: lane l is live iff l < live.
struct ZmmTail : Zmm {
  __mmask16 m;
  explicit ZmmTail(int live) noexcept
      : m(static_cast<__mmask16>((1u << live) - 1u)) {}
  reg load(const float* p) const noexcept {
    return _mm512_maskz_loadu_ps(m, p);
  }
  void store(float* p, reg x) const noexcept { _mm512_mask_storeu_ps(p, m, x); }
  dreg load(const double* p) const noexcept {
    return {_mm512_maskz_loadu_pd(lo8(), p),
            _mm512_maskz_loadu_pd(hi8(), p + 8)};
  }
  void store(double* p, dreg x) const noexcept {
    _mm512_mask_storeu_pd(p, lo8(), x.lo);
    _mm512_mask_storeu_pd(p + 8, hi8(), x.hi);
  }
  __mmask8 lo8() const noexcept { return static_cast<__mmask8>(m); }
  __mmask8 hi8() const noexcept { return static_cast<__mmask8>(m >> 8); }
};

using Chunks = detail::ChunkList<ZmmTail, Zmm>;

// ---------------------------------------------------------------------------
// One lane, vectorized within the site. The permute indices and sign masks
// are compile-time tables; a sign flip is an xor of the sign bit, and
// a + (-b) is a - b exactly, so each component sees the lane kernels'
// operations.
// ---------------------------------------------------------------------------
namespace one {

/// The 12 live positions of a half spinor (or clover chirality block).
constexpr __mmask16 kHalf = 0x0FFF;
constexpr std::int32_t kSignBit = std::numeric_limits<std::int32_t>::min();

struct alignas(64) Idx {
  std::int32_t v[16];
};

inline __m512i ld(const Idx& i) noexcept { return _mm512_load_si512(i.v); }

inline __m512 flip(__m512 x, const Idx& sign) noexcept {
  return _mm512_xor_ps(x, _mm512_castsi512_ps(ld(sign)));
}

/// Position of (spin row s, color c, re/im ri) in a half spinor.
constexpr int pos(int s, int c, int ri) noexcept { return (s * 3 + c) * 2 + ri; }

/// Per (mu, sign) hop: the projection reads lower row col[r] of psi from
/// the register loaded at psi + 8; the reconstruction builds lower rows 2
/// and 3 from rows col[2] and col[3] of the multiplied half spinor.
struct HopTables {
  Idx proj, proj_sign, rec, rec_sign;
};

constexpr HopTables hop_tables(int mu, bool plus) noexcept {
  HopTables t{};
  const PermPhaseMatrix& g = kGamma[static_cast<std::size_t>(mu)];
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNumColors; ++c)
      for (int ri = 0; ri < 2; ++ri) {
        const int q = pos(r, c, ri);
        const auto ru = static_cast<std::size_t>(r);
        const detail::PhaseAdd P = detail::phase_add(g.phase[ru], plus);
        t.proj.v[q] = pos(g.col[ru], c, P.swap ? 1 - ri : ri) - 8;
        t.proj_sign.v[q] = (ri == 0 ? P.neg_re : P.neg_im) ? kSignBit : 0;
        const detail::PhaseAdd Q = detail::phase_add(g.phase[ru + 2], plus);
        t.rec.v[q] = pos(g.col[ru + 2], c, Q.swap ? 1 - ri : ri);
        t.rec_sign.v[q] = (ri == 0 ? Q.neg_re : Q.neg_im) ? kSignBit : 0;
      }
  return t;
}

constexpr std::array<HopTables, 2 * kNumDims> kHop = {
    hop_tables(0, false), hop_tables(0, true), hop_tables(1, false),
    hop_tables(1, true),  hop_tables(2, false), hop_tables(2, true),
    hop_tables(3, false), hop_tables(3, true)};

/// SU(3) column j: h's color j broadcast over colors (hj) and with re/im
/// swapped (hs); the link's U_{i,j} (adj 0) or U_{j,i} (adj 1) real and
/// imaginary parts per output color, as indices into the registers loaded
/// at u and u + 2; the sign of the cross term: U h subtracts it from the
/// real part, U^dagger h (Im U^dagger_{i,j} = -Im U_{j,i}) from the
/// imaginary part.
struct MulTables {
  Idx hj[3], hs[3], ure[2][3], uim[2][3], sign[2];
};

constexpr int link_index(int f) noexcept { return f < 16 ? f : f + 14; }

constexpr MulTables mul_tables() noexcept {
  MulTables t{};
  for (int s = 0; s < 2; ++s)
    for (int i = 0; i < kNumColors; ++i)
      for (int ri = 0; ri < 2; ++ri) {
        const int q = pos(s, i, ri);
        for (int j = 0; j < kNumColors; ++j) {
          t.hj[j].v[q] = pos(s, j, ri);
          t.hs[j].v[q] = pos(s, j, 1 - ri);
          for (int adj = 0; adj < 2; ++adj) {
            const int f = adj != 0 ? (j * 3 + i) * 2 : (i * 3 + j) * 2;
            t.ure[adj][j].v[q] = link_index(f);
            t.uim[adj][j].v[q] = link_index(f + 1);
          }
        }
        t.sign[0].v[q] = ri == 0 ? kSignBit : 0;
        t.sign[1].v[q] = ri == 1 ? kSignBit : 0;
      }
  return t;
}

constexpr MulTables kMul = mul_tables();

/// Clover column j of a chirality block: the diagonal per row, the
/// off-diagonal M[i][j] real and imaginary parts per row i as indices into
/// the registers loaded at blk + 4 and blk + 20, the signs that make the
/// second FMA of each component one FMA with a signed coefficient, and x_j
/// broadcast over rows (xb) and with re/im swapped (xs).
struct CloverTables {
  Idx diag, pr[kCloverBlockDim], pi[kCloverBlockDim],
      pi_sign[kCloverBlockDim], xb[kCloverBlockDim], xs[kCloverBlockDim];
};

constexpr CloverTables clover_tables() noexcept {
  CloverTables t{};
  for (int i = 0; i < kCloverBlockDim; ++i)
    for (int ri = 0; ri < 2; ++ri) {
      const int q = 2 * i + ri;
      t.diag.v[q] = i;
      for (int j = 0; j < kCloverBlockDim; ++j) {
        t.xb[j].v[q] = 2 * j + ri;
        t.xs[j].v[q] = 2 * j + 1 - ri;
        if (j == i) continue;
        const int k = j < i ? packed_index(i, j) : packed_index(j, i);
        t.pr[j].v[q] = kCloverBlockDim + 2 * k - 4;
        t.pi[j].v[q] = kCloverBlockDim + 2 * k + 1 - 4;
        // re: acc - pi x_im, im: acc + pi x_re, with pi = Im M[i][j]
        // (j < i) or -Im M[j][i] (j > i).
        t.pi_sign[j].v[q] = (ri == 0 ? j < i : j > i) ? kSignBit : 0;
      }
    }
  return t;
}

constexpr CloverTables kClover = clover_tables();

/// Color-major upper two rows of (1 +- gamma_Mu) psi (+ iff Plus).
template <int Mu, bool Plus>
[[gnu::always_inline]] inline __m512 project(const float* psi) noexcept {
  const HopTables& t = kHop[Mu * 2 + (Plus ? 1 : 0)];
  const __m512 b =
      _mm512_maskz_permutexvar_ps(kHalf, ld(t.proj), _mm512_loadu_ps(psi + 8));
  return _mm512_add_ps(_mm512_loadu_ps(psi), flip(b, t.proj_sign));
}

/// U h, or U^dagger h with Plus: three columns, summed ((p0 + p1) + p2).
template <bool Plus>
[[gnu::always_inline]] inline __m512 su3_mul(const float* u,
                                             __m512 h) noexcept {
  constexpr int adj = Plus ? 1 : 0;
  const __m512 u0 = _mm512_loadu_ps(u);
  const __m512 u1 = _mm512_loadu_ps(u + 2);
  __m512 y = _mm512_setzero_ps();
  for (int j = 0; j < kNumColors; ++j) {
    const __m512 ur =
        _mm512_maskz_permutex2var_ps(kHalf, u0, ld(kMul.ure[adj][j]), u1);
    const __m512 ui =
        _mm512_maskz_permutex2var_ps(kHalf, u0, ld(kMul.uim[adj][j]), u1);
    const __m512 hj = _mm512_maskz_permutexvar_ps(kHalf, ld(kMul.hj[j]), h);
    const __m512 hs = _mm512_maskz_permutexvar_ps(kHalf, ld(kMul.hs[j]), h);
    const __m512 p = _mm512_add_ps(_mm512_mul_ps(ur, hj),
                                   flip(_mm512_mul_ps(ui, hs), kMul.sign[adj]));
    y = j == 0 ? p : _mm512_add_ps(y, p);
  }
  return y;
}

/// One hop into the accumulators: up = rows 0 and 1, dn = rows 2 and 3.
template <int Mu, bool Plus>
[[gnu::always_inline]] inline void hop(const float* psi, const float* u,
                                       __m512& up, __m512& dn) noexcept {
  const HopTables& t = kHop[Mu * 2 + (Plus ? 1 : 0)];
  const __m512 y = su3_mul<Plus>(u, project<Mu, Plus>(psi));
  up = _mm512_add_ps(up, y);
  dn = _mm512_add_ps(
      dn, flip(_mm512_maskz_permutexvar_ps(kHalf, ld(t.rec), y), t.rec_sign));
}

template <int Mu>
[[gnu::always_inline]] inline void dim(const float* links,
                                       const std::int32_t* nbr,
                                       std::int32_t l, std::int32_t in_off,
                                       const float* in, __m512& up,
                                       __m512& dn) noexcept {
  const std::int32_t* nb =
      nbr + static_cast<std::size_t>(l) * 2 * kNumDims + 2 * Mu;
  if (nb[0] >= 0)
    hop<Mu, false>(in + static_cast<std::ptrdiff_t>(nb[0] - in_off) *
                            kSpinorReals,
                   links + (static_cast<std::size_t>(l) * kNumDims + Mu) * 18,
                   up, dn);
  if (nb[1] >= 0)
    hop<Mu, true>(
        in + static_cast<std::ptrdiff_t>(nb[1] - in_off) * kSpinorReals,
        links + (static_cast<std::size_t>(nb[1]) * kNumDims + Mu) * 18, up,
        dn);
}

inline void dslash(const float* links, const std::int32_t* nbr,
                   std::int32_t l0, std::int32_t in_off, std::int32_t nsites,
                   const float* in, float* out) noexcept {
  for (std::int32_t i = 0; i < nsites; ++i) {
    __m512 up = _mm512_setzero_ps();
    __m512 dn = _mm512_setzero_ps();
    dim<0>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<1>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<2>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<3>(links, nbr, l0 + i, in_off, in, up, dn);
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals;
    _mm512_mask_storeu_ps(o, kHalf, up);
    _mm512_mask_storeu_ps(o + 12, kHalf, dn);
  }
}

template <int Mu, bool Forward>
[[gnu::always_inline]] inline void pack_site(const float* u, const float* z,
                                             float* o) noexcept {
  __m512 h = project<Mu, Forward>(z);
  if constexpr (Forward) h = su3_mul<true>(u, h);
  _mm512_mask_storeu_ps(o, kHalf, h);
}

/// One chirality block on one lane: the diagonal product, then column
/// j = 0..5 added to every row but row j (masked FMAs), so each row sees
/// its off-diagonal terms in a2::clover_site's order.
inline void clover_block(const float* b, const float* x, float* y) noexcept {
  const __m512 xv = _mm512_maskz_loadu_ps(kHalf, x);
  __m512 acc = _mm512_mul_ps(
      _mm512_maskz_permutexvar_ps(kHalf, ld(kClover.diag), _mm512_loadu_ps(b)),
      xv);
  const __m512 o0 = _mm512_loadu_ps(b + 4);
  const __m512 o1 = _mm512_loadu_ps(b + 20);
  for (int j = 0; j < kCloverBlockDim; ++j) {
    const auto m = static_cast<__mmask16>(kHalf & ~(3u << (2 * j)));
    const __m512 pr = _mm512_permutex2var_ps(o0, ld(kClover.pr[j]), o1);
    const __m512 pi = flip(_mm512_permutex2var_ps(o0, ld(kClover.pi[j]), o1),
                           kClover.pi_sign[j]);
    acc = _mm512_mask3_fmadd_ps(
        pr, _mm512_maskz_permutexvar_ps(kHalf, ld(kClover.xb[j]), xv), acc, m);
    acc = _mm512_mask3_fmadd_ps(
        pi, _mm512_maskz_permutexvar_ps(kHalf, ld(kClover.xs[j]), xv), acc, m);
  }
  _mm512_mask_storeu_ps(y, kHalf, acc);
}

}  // namespace one

inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  if (lanes == 1)
    one::dslash(links, nbr, l0, in_off, nsites, in, out);
  else
    detail::dslash_chunks<Chunks>(links, nbr, l0, in_off, nsites, in, out,
                                  lanes);
}

inline void pack_faces_lanes(const float* links,
                             const std::int32_t* face_sites,
                             const std::int32_t* face_size, const float* z,
                             int lanes, int nrhs, float* out,
                             std::int64_t rhs_stride) noexcept {
  if (lanes > 1) {
    detail::pack_faces_chunks<Chunks>(links, face_sites, face_size, z, lanes,
                                      nrhs, out, rhs_stride);
    return;
  }
  detail::for_each_face_site(
      links, face_sites, face_size, z, 1, out,
      []<int Mu, bool Forward>(const float* u, const float* zs, float* o) {
        one::pack_site<Mu, Forward>(u, zs, o);
      });
}

inline void clover_lanes(const float* blocks, std::int32_t nsites,
                         const float* in, float* out, int lanes) noexcept {
  const std::size_t stride =
      static_cast<std::size_t>(kSpinorReals) * static_cast<std::size_t>(lanes);
  for (std::int32_t s = 0; s < nsites; ++s) {
    const float* b =
        blocks + static_cast<std::size_t>(s) * 2 * detail::kCloverBlockFloats;
    const float* x = in + static_cast<std::size_t>(s) * stride;
    float* y = out + static_cast<std::size_t>(s) * stride;
    if (lanes == 1) {
      one::clover_block(b, x, y);
      one::clover_block(b + detail::kCloverBlockFloats, x + 12, y + 12);
      continue;
    }
    detail::for_each_chunk(Chunks{}, lanes, lanes,
                           [&](const auto& v, std::int64_t c) {
                             a2::clover_site(v, b, x + c, y + c, lanes);
                           });
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  detail::xpay_chunks<Chunks>(x, s, y, out, n);
}

inline void float_to_half_n(const float* src, Half* dst,
                            std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm512_maskz_cvtps_ph(0xFFFF, _mm512_loadu_ps(src + i),
                                            _MM_FROUND_TO_NEAREST_INT |
                                                _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = float_to_half(src[i]);
}

inline void half_to_float_n(const Half* src, float* dst,
                            std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_maskz_cvtph_ps(0xFFFF, h));
  }
  for (; i < n; ++i) dst[i] = half_to_float(src[i]);
}

}  // namespace lqcd::simd::a5

#endif  // AVX-512 set

namespace lqcd::simd::detail {

#if defined(LQCD_SIMD_AVX512_COMPILED)

namespace {
constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512,
    &a2::su3_mul_nn,
    &a5::dslash_lanes,
    &a5::clover_lanes,
    &a5::xpay_lanes,
    &a5::pack_faces_lanes,
    &a2::mr_dots_lanes<a5::Chunks>,
    &a2::mr_axpy_lanes<a5::Chunks>,
    &a5::float_to_half_n,
    &a5::half_to_float_n,
    16,  // lane_width: one unmasked __m512 per lane vector
};
}  // namespace

const Kernels* avx512_table() noexcept { return &kAvx512Kernels; }

#else

const Kernels* avx512_table() noexcept { return nullptr; }

#endif

}  // namespace lqcd::simd::detail
