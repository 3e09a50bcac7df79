// AVX2+FMA+F16C implementations of the dispatched kernels.
//
// INTERNAL to src/lqcd/simd/: included by backend_avx2.cpp, and by
// backend_avx512.cpp for su3_mul_nn, the FMA chunk bodies and the
// one-lane MR kernels. Compiles to real code only when the translation
// unit has AVX2, FMA and F16C enabled; otherwise the backend reports
// "not compiled" and dispatch never lands here.
//
// The backend is its vector traits (Ymm 8 lanes, Xmm 4, masked XmmTail),
// its chunk list {Ymm, Xmm} + XmmTail, and its one-lane kernels. Every
// lane kernel at two or more lanes is the chunk loop of
// simd/dslash_lanes.h over that list.
//
// Numerics: su3_mul_nn, xpay, the dslash and the face pack use separate
// mul+add in exactly the scalar accumulation order (j = 0, 1, 2), so they
// are bit-identical to the scalar backend. clover_lanes and the MR kernels
// use FMA: per-term rounding differs from scalar at the last bit (<= 1e-6
// relative after accumulation), which the dispatch contract allows. Their
// chunk bodies (clover_site, mr_dots_chunk, mr_axpy_chunk) are written
// once over the vector traits and serve avx2 and avx512 alike, and the
// one-lane kernels run the same per-lane FMA sequence, so a lane's result
// does not depend on its position in the batch or on the backend's chunk
// widths: avx2 and avx512 agree bitwise. This TU compiles with
// -ffp-contract=off like every other backend.
//
// One lane (a batch of one) runs kernels vectorized within the site: a
// spinor's spin pair (r0, r1) at one color is one __m128 [r0 re, r0 im,
// r1 re, r1 im], so projection, SU(3) multiply and reconstruction work on
// three such registers per half spinor with the per-lane operation
// sequence of the lane kernels.
#pragma once

#include <algorithm>
#include <cmath>

#include "lqcd/simd/scalar_kernels.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#define LQCD_SIMD_AVX2_COMPILED 1

#include <immintrin.h>

#include <cstdint>

namespace lqcd::simd::a2 {

/// Swap (re,im) pairs within each 128-bit half: [a0 a1 a2 a3] -> [a1 a0 a3 a2].
inline __m256 swap_pairs(__m256 v) noexcept {
  return _mm256_permute_ps(v, 0xB1);
}

// ---------------------------------------------------------------------------
// su3_mul_nn: row-wise complex 3x3 products on interleaved (re,im) rows.
// A matrix row is 6 floats; the 8-float vector ops deliberately overread /
// overwrite 2 floats into the following row (rows are processed in
// ascending order, so every overlap is rewritten before it is consumed).
// The LAST matrix of the array is handled by the scalar reference kernel
// so no vector access ever leaves the arrays. a, b and c must not alias.
// ---------------------------------------------------------------------------
inline void su3_mul_nn(const float* a, const float* b, float* c,
                       std::int64_t n) noexcept {
  for (std::int64_t m = 0; m + 1 < n; ++m) {
    const float* am = a + m * 18;
    const float* bm = b + m * 18;
    float* cm = c + m * 18;
    __m256 brow[3];
    for (int k = 0; k < 3; ++k) brow[k] = _mm256_loadu_ps(bm + 6 * k);
    for (int i = 0; i < 3; ++i) {
      __m256 acc = _mm256_setzero_ps();
      for (int k = 0; k < 3; ++k) {
        const __m256 ar = _mm256_broadcast_ss(am + (i * 3 + k) * 2);
        const __m256 ai = _mm256_broadcast_ss(am + (i * 3 + k) * 2 + 1);
        // addsub: even lanes t1 - t2 = ar*br - ai*bi (re), odd lanes
        // t1 + t2 = ar*bi + ai*br (im) — the scalar formulas exactly.
        const __m256 t1 = _mm256_mul_ps(ar, brow[k]);
        const __m256 t2 = _mm256_mul_ps(ai, swap_pairs(brow[k]));
        const __m256 p = _mm256_addsub_ps(t1, t2);
        acc = k == 0 ? p : _mm256_add_ps(acc, p);
      }
      _mm256_storeu_ps(cm + 6 * i, acc);
    }
  }
  if (n > 0)
    ref::su3_mul_nn_one(a + (n - 1) * 18, b + (n - 1) * 18, c + (n - 1) * 18);
}

/// Vector traits of simd/dslash_lanes.h and the FMA chunk bodies below:
/// 8 lanes per __m256, 4 per __m128, and a masked __m128 for the last
/// lanes % 4. fmadd(a, b, c) = a * b + c and fnmadd(a, b, c) = c - a * b,
/// each rounded once. dreg holds a chunk's lanes in double (the MR inner
/// products).
struct Ymm {
  using reg = __m256;
  struct dreg {
    __m256d lo, hi;
  };
  static constexpr int width = 8;
  reg load(const float* p) const noexcept { return _mm256_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm256_storeu_ps(p, x); }
  dreg load(const double* p) const noexcept {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  void store(double* p, dreg x) const noexcept {
    _mm256_storeu_pd(p, x.lo);
    _mm256_storeu_pd(p + 4, x.hi);
  }
  static reg zero() noexcept { return _mm256_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm256_set1_ps(x); }
  static dreg widen(reg x) noexcept {
    return {_mm256_cvtps_pd(_mm256_castps256_ps128(x)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))};
  }
  static reg add(reg a, reg b) noexcept { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_ps(a, b); }
  static reg fmadd(reg a, reg b, reg c) noexcept {
    return _mm256_fmadd_ps(a, b, c);
  }
  static reg fnmadd(reg a, reg b, reg c) noexcept {
    return _mm256_fnmadd_ps(a, b, c);
  }
  static dreg fmadd(dreg a, dreg b, dreg c) noexcept {
    return {_mm256_fmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fmadd_pd(a.hi, b.hi, c.hi)};
  }
  static dreg fnmadd(dreg a, dreg b, dreg c) noexcept {
    return {_mm256_fnmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fnmadd_pd(a.hi, b.hi, c.hi)};
  }
};

struct Xmm {
  using reg = __m128;
  using dreg = __m256d;
  static constexpr int width = 4;
  reg load(const float* p) const noexcept { return _mm_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm_storeu_ps(p, x); }
  dreg load(const double* p) const noexcept { return _mm256_loadu_pd(p); }
  void store(double* p, dreg x) const noexcept { _mm256_storeu_pd(p, x); }
  static reg zero() noexcept { return _mm_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm_set1_ps(x); }
  static dreg widen(reg x) noexcept { return _mm256_cvtps_pd(x); }
  static reg add(reg a, reg b) noexcept { return _mm_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm_mul_ps(a, b); }
  static reg fmadd(reg a, reg b, reg c) noexcept {
    return _mm_fmadd_ps(a, b, c);
  }
  static reg fnmadd(reg a, reg b, reg c) noexcept {
    return _mm_fnmadd_ps(a, b, c);
  }
  static dreg fmadd(dreg a, dreg b, dreg c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  static dreg fnmadd(dreg a, dreg b, dreg c) noexcept {
    return _mm256_fnmadd_pd(a, b, c);
  }
};

/// A masked Xmm for the last lanes % 4: lane l is live iff l < live.
struct XmmTail : Xmm {
  __m128i m;
  explicit XmmTail(int live) noexcept
      : m(_mm_cmpgt_epi32(_mm_set1_epi32(live), _mm_setr_epi32(0, 1, 2, 3))) {}
  reg load(const float* p) const noexcept { return _mm_maskload_ps(p, m); }
  void store(float* p, reg x) const noexcept { _mm_maskstore_ps(p, m, x); }
  dreg load(const double* p) const noexcept {
    return _mm256_maskload_pd(p, _mm256_cvtepi32_epi64(m));
  }
  void store(double* p, dreg x) const noexcept {
    _mm256_maskstore_pd(p, _mm256_cvtepi32_epi64(m), x);
  }
};

using Chunks = detail::ChunkList<XmmTail, Ymm, Xmm>;

/// One site's clover block pair (Kernels::clover_lanes) on one chunk of
/// lanes; `x` and `y` point at the chunk's first lane. Row i of each
/// chirality block starts at diag_i * x_i and adds the off-diagonal terms
/// j = 0..5 (j != i) in order, two FMAs per component each.
template <class V>
[[gnu::always_inline]] inline void clover_site(const V& v, const float* blk,
                                               const float* x, float* y,
                                               int lanes) noexcept {
  using Reg = typename V::reg;
  for (int chi = 0; chi < 2; ++chi) {
    const float* b = blk + chi * detail::kCloverBlockFloats;
    const float* x0 = x + chi * 2 * kCloverBlockDim * lanes;
    float* y0 = y + chi * 2 * kCloverBlockDim * lanes;
    for (int i = 0; i < kCloverBlockDim; ++i) {
      const Reg di = V::set1(b[i]);
      Reg acc_re = V::mul(di, v.load(x0 + 2 * i * lanes));
      Reg acc_im = V::mul(di, v.load(x0 + (2 * i + 1) * lanes));
      for (int j = 0; j < kCloverBlockDim; ++j) {
        if (j == i) continue;
        // j > i uses conj(offd[j][i]): same real part, negated imag.
        const int k = j < i ? packed_index(i, j) : packed_index(j, i);
        const float oi = b[kCloverBlockDim + 2 * k + 1];
        const Reg pr = V::set1(b[kCloverBlockDim + 2 * k]);
        const Reg pi = V::set1(j < i ? oi : -oi);
        const Reg xr = v.load(x0 + 2 * j * lanes);
        const Reg xi = v.load(x0 + (2 * j + 1) * lanes);
        acc_re = V::fmadd(pr, xr, acc_re);
        acc_re = V::fnmadd(pi, xi, acc_re);
        acc_im = V::fmadd(pr, xi, acc_im);
        acc_im = V::fmadd(pi, xr, acc_im);
      }
      v.store(y0 + 2 * i * lanes, acc_re);
      v.store(y0 + (2 * i + 1) * lanes, acc_im);
    }
  }
}

/// The MR inner products of one chunk of lanes from lane c, in double:
/// two FMAs per component and accumulator, in component order (the
/// sequence of mr_dots_one).
template <class V>
[[gnu::always_inline]] inline void mr_dots_chunk(
    const V& v, const float* r, const float* ar, std::int64_t ncomplex,
    int lanes, std::int64_t c, double* arr_re, double* arr_im,
    double* arar) noexcept {
  auto srr = v.load(arr_re + c), sri = v.load(arr_im + c),
       saa = v.load(arar + c);
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    const float* br = r + 2 * k * lanes + c;
    const float* ba = ar + 2 * k * lanes + c;
    const auto rr = V::widen(v.load(br)), ri = V::widen(v.load(br + lanes));
    const auto ad = V::widen(v.load(ba)), ai = V::widen(v.load(ba + lanes));
    srr = V::fmadd(ad, rr, srr);
    srr = V::fmadd(ai, ri, srr);
    sri = V::fmadd(ad, ri, sri);
    sri = V::fnmadd(ai, rr, sri);
    saa = V::fmadd(ad, ad, saa);
    saa = V::fmadd(ai, ai, saa);
  }
  v.store(arr_re + c, srr);
  v.store(arr_im + c, sri);
  v.store(arar + c, saa);
}

/// The MR update of one chunk of lanes from lane c: z += alpha r and
/// r -= alpha Ar, two FMAs per component (the sequence of mr_axpy_one).
template <class V>
[[gnu::always_inline]] inline void mr_axpy_chunk(
    const V& v, float* z, float* r, const float* ar, std::int64_t ncomplex,
    int lanes, std::int64_t c, const float* alpha_re,
    const float* alpha_im) noexcept {
  const auto alr = v.load(alpha_re + c), ali = v.load(alpha_im + c);
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    float* zre = z + 2 * k * lanes + c;
    float* rre = r + 2 * k * lanes + c;
    const float* are = ar + 2 * k * lanes + c;
    const auto vrr = v.load(rre), vri = v.load(rre + lanes);
    const auto var = v.load(are), vai = v.load(are + lanes);
    v.store(zre, V::fnmadd(ali, vri, V::fmadd(alr, vrr, v.load(zre))));
    v.store(zre + lanes,
            V::fmadd(ali, vrr, V::fmadd(alr, vri, v.load(zre + lanes))));
    v.store(rre, V::fmadd(ali, vai, V::fnmadd(alr, var, vrr)));
    v.store(rre + lanes, V::fnmadd(ali, var, V::fnmadd(alr, vai, vri)));
  }
}

// ---------------------------------------------------------------------------
// One lane, vectorized within the site: spin pairs in __m128 registers.
// ---------------------------------------------------------------------------
namespace one {

constexpr int perm_imm(int e0, int e1, int e2, int e3) noexcept {
  return e0 | e1 << 2 | e2 << 4 | e3 << 6;
}

/// Sign-bit mask negating the components of [re0, im0, re1, im1] where
/// the flag is set.
inline __m128 sign_mask(bool n0, bool n1, bool n2, bool n3) noexcept {
  constexpr int kSign = static_cast<int>(0x80000000u);
  return _mm_castsi128_ps(_mm_setr_epi32(n0 ? kSign : 0, n1 ? kSign : 0,
                                         n2 ? kSign : 0, n3 ? kSign : 0));
}

/// [a[0], a[1], b[0], b[1]].
inline __m128 load2(const float* a, const float* b) noexcept {
  const __m128 lo =
      _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)));
  return _mm_loadh_pi(lo, reinterpret_cast<const __m64*>(b));
}

/// [s[r0][c], s[r1][c]] of a one-lane spinor or half spinor.
inline __m128 load_pair(const float* s, int r0, int r1, int c) noexcept {
  return load2(s + (r0 * kNumColors + c) * 2, s + (r1 * kNumColors + c) * 2);
}

inline void store_pair(float* s, int r0, int r1, int c, __m128 v) noexcept {
  _mm_storel_pi(reinterpret_cast<__m64*>(s + (r0 * kNumColors + c) * 2), v);
  _mm_storeh_pi(reinterpret_cast<__m64*>(s + (r1 * kNumColors + c) * 2), v);
}

/// Color c of the upper two rows of (1 +- gamma_Mu) psi (+ iff Plus).
template <int Mu, bool Plus>
[[gnu::always_inline]] inline __m128 project(const float* psi,
                                             int c) noexcept {
  constexpr detail::PhaseAdd P0 = detail::phase_add(kGamma[Mu].phase[0], Plus);
  constexpr detail::PhaseAdd P1 = detail::phase_add(kGamma[Mu].phase[1], Plus);
  constexpr int imm = perm_imm(P0.swap ? 1 : 0, P0.swap ? 0 : 1,
                               P1.swap ? 3 : 2, P1.swap ? 2 : 3);
  const __m128 b = _mm_permute_ps(
      load_pair(psi, kGamma[Mu].col[0], kGamma[Mu].col[1], c), imm);
  return _mm_add_ps(
      load_pair(psi, 0, 1, c),
      _mm_xor_ps(b, sign_mask(P0.neg_re, P0.neg_im, P1.neg_re, P1.neg_im)));
}

/// y[i] = color i of U h, or of U^dagger h with Plus.
template <bool Plus>
[[gnu::always_inline]] inline void su3_mul(const float* u,
                                           const __m128 (&h)[3],
                                           __m128 (&y)[3]) noexcept {
  __m128 hs[3];
  for (int j = 0; j < kNumColors; ++j) {
    hs[j] = _mm_permute_ps(h[j], perm_imm(1, 0, 3, 2));
    // U^dagger's imaginary parts are -Im U_{j,i}: (-a) b == a (-b).
    if constexpr (Plus)
      hs[j] = _mm_xor_ps(hs[j], sign_mask(true, true, true, true));
  }
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      const float* uij = Plus ? u + (j * 3 + i) * 2 : u + (i * 3 + j) * 2;
      // addsub: re = ur hr - ui hi, im = ur hi + ui hr.
      const __m128 p =
          _mm_addsub_ps(_mm_mul_ps(_mm_broadcast_ss(uij), h[j]),
                        _mm_mul_ps(_mm_broadcast_ss(uij + 1), hs[j]));
      y[i] = j == 0 ? p : _mm_add_ps(y[i], p);
    }
}

/// One hop into the accumulators: up = rows 0 and 1, dn = rows 2 and 3,
/// both by color.
template <int Mu, bool Plus>
[[gnu::always_inline]] inline void hop(const float* psi, const float* u,
                                       __m128 (&up)[3],
                                       __m128 (&dn)[3]) noexcept {
  constexpr detail::PhaseAdd P2 = detail::phase_add(kGamma[Mu].phase[2], Plus);
  constexpr detail::PhaseAdd P3 = detail::phase_add(kGamma[Mu].phase[3], Plus);
  constexpr int s2 = kGamma[Mu].col[2];
  constexpr int s3 = kGamma[Mu].col[3];
  constexpr int imm =
      perm_imm(2 * s2 + (P2.swap ? 1 : 0), 2 * s2 + (P2.swap ? 0 : 1),
               2 * s3 + (P3.swap ? 1 : 0), 2 * s3 + (P3.swap ? 0 : 1));
  __m128 h[3], y[3];
  for (int c = 0; c < kNumColors; ++c) h[c] = project<Mu, Plus>(psi, c);
  su3_mul<Plus>(u, h, y);
  const __m128 sg = sign_mask(P2.neg_re, P2.neg_im, P3.neg_re, P3.neg_im);
  for (int c = 0; c < kNumColors; ++c) {
    up[c] = _mm_add_ps(up[c], y[c]);
    dn[c] = _mm_add_ps(dn[c], _mm_xor_ps(_mm_permute_ps(y[c], imm), sg));
  }
}

template <int Mu>
[[gnu::always_inline]] inline void dim(const float* links,
                                       const std::int32_t* nbr,
                                       std::int32_t l, std::int32_t in_off,
                                       const float* in, __m128 (&up)[3],
                                       __m128 (&dn)[3]) noexcept {
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
    __m128 up[3], dn[3];
    for (int c = 0; c < kNumColors; ++c) up[c] = dn[c] = _mm_setzero_ps();
    dim<0>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<1>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<2>(links, nbr, l0 + i, in_off, in, up, dn);
    dim<3>(links, nbr, l0 + i, in_off, in, up, dn);
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals;
    for (int c = 0; c < kNumColors; ++c) {
      store_pair(o, 0, 1, c, up[c]);
      store_pair(o, 2, 3, c, dn[c]);
    }
  }
}

/// One site's clover block pair: row i of chirality 0 and of chirality 1
/// side by side in acc[i]. The columns j run outermost, so the six rows'
/// FMA chains interleave, and each row adds its terms in clover_site()'s
/// order with its FMA sequence (c - a b is computed as c + (-a) b).
inline void clover_pair(const float* b0, const float* x, float* y) noexcept {
  const float* b1 = b0 + detail::kCloverBlockFloats;
  const float* x1 = x + 2 * kCloverBlockDim;
  __m128 acc[kCloverBlockDim];
  for (int i = 0; i < kCloverBlockDim; ++i) {
    // [d0, d0, d1, d1] times row i of both chiralities.
    const __m128 d = _mm_shuffle_ps(_mm_broadcast_ss(b0 + i),
                                    _mm_broadcast_ss(b1 + i), 0);
    acc[i] = _mm_mul_ps(d, load2(x + 2 * i, x1 + 2 * i));
  }
  for (int j = 0; j < kCloverBlockDim; ++j) {
    const __m128 xj = load2(x + 2 * j, x1 + 2 * j);
    const __m128 xs = _mm_permute_ps(xj, perm_imm(1, 0, 3, 2));
    for (int i = 0; i < kCloverBlockDim; ++i) {
      if (i == j) continue;
      const int k = kCloverBlockDim +
                    2 * (j < i ? packed_index(i, j) : packed_index(j, i));
      const __m128 o = load2(b0 + k, b1 + k);  // [re0, im0, re1, im1]
      // Cross-term coefficient: -pi on the real slots, pi on the
      // imaginary ones, pi = Im M[i][j] (j < i) or -Im M[j][i] (j > i).
      const __m128 pi = _mm_xor_ps(_mm_movehdup_ps(o),
                                   j < i ? sign_mask(true, false, true, false)
                                         : sign_mask(false, true, false, true));
      acc[i] = _mm_fmadd_ps(_mm_moveldup_ps(o), xj, acc[i]);
      acc[i] = _mm_fmadd_ps(pi, xs, acc[i]);
    }
  }
  for (int i = 0; i < kCloverBlockDim; ++i) {
    _mm_storel_pi(reinterpret_cast<__m64*>(y + 2 * i), acc[i]);
    _mm_storeh_pi(reinterpret_cast<__m64*>(y + 2 * kCloverBlockDim + 2 * i),
                  acc[i]);
  }
}

template <int Mu, bool Forward>
[[gnu::always_inline]] inline void pack_site(const float* u, const float* z,
                                             float* o) noexcept {
  __m128 h[3];
  for (int c = 0; c < kNumColors; ++c) h[c] = project<Mu, Forward>(z, c);
  if constexpr (Forward) {
    __m128 y[3];
    su3_mul<true>(u, h, y);
    for (int c = 0; c < kNumColors; ++c) store_pair(o, 0, 1, c, y[c]);
  } else {
    for (int c = 0; c < kNumColors; ++c) store_pair(o, 0, 1, c, h[c]);
  }
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
      one::clover_pair(b, x, y);
      continue;
    }
    detail::for_each_chunk(Chunks{}, lanes, lanes,
                           [&](const auto& v, std::int64_t c) {
                             clover_site(v, b, x + c, y + c, lanes);
                           });
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  detail::xpay_chunks<Chunks>(x, s, y, out, n);
}

/// The MR inner products of one lane: mr_dots_chunk()'s FMA sequence.
inline void mr_dots_one(const float* r, const float* ar,
                        std::int64_t ncomplex, double* arr_re,
                        double* arr_im, double* arar) noexcept {
  double srr = *arr_re, sri = *arr_im, saa = *arar;
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    const double rr = r[2 * k], ri = r[2 * k + 1];
    const double ad = ar[2 * k], ai = ar[2 * k + 1];
    srr = std::fma(ad, rr, srr);
    srr = std::fma(ai, ri, srr);
    sri = std::fma(ad, ri, sri);
    sri = std::fma(-ai, rr, sri);
    saa = std::fma(ad, ad, saa);
    saa = std::fma(ai, ai, saa);
  }
  *arr_re = srr;
  *arr_im = sri;
  *arar = saa;
}

/// The MR update of one lane, within the site: at one lane a component's
/// real and imaginary parts are adjacent, so each __m256 holds four
/// complex numbers and a pair swap lines up the cross terms. Same FMA
/// sequence per component as mr_axpy_chunk(); the last one to three
/// complex numbers run the same step on zero-padded copies.
inline void mr_axpy_one(float* z, float* r, const float* ar,
                        std::int64_t ncomplex, float alr,
                        float ali) noexcept {
  const __m256 valr = _mm256_set1_ps(alr);
  // z_re -= ali r_im, z_im += ali r_re; r_re += ali Ar_im, r_im -= ali Ar_re.
  const __m256 z_ali = _mm256_setr_ps(-ali, ali, -ali, ali, -ali, ali, -ali,
                                      ali);
  const __m256 r_ali = _mm256_setr_ps(ali, -ali, ali, -ali, ali, -ali, ali,
                                      -ali);
  const auto step = [&](float* zk, float* rk, const float* ak) {
    const __m256 vr = _mm256_loadu_ps(rk);
    const __m256 va = _mm256_loadu_ps(ak);
    __m256 vz = _mm256_fmadd_ps(valr, vr, _mm256_loadu_ps(zk));
    vz = _mm256_fmadd_ps(z_ali, swap_pairs(vr), vz);
    _mm256_storeu_ps(zk, vz);
    __m256 nr = _mm256_fnmadd_ps(valr, va, vr);
    nr = _mm256_fmadd_ps(r_ali, swap_pairs(va), nr);
    _mm256_storeu_ps(rk, nr);
  };
  std::int64_t k = 0;
  for (; k + 4 <= ncomplex; k += 4) step(z + 2 * k, r + 2 * k, ar + 2 * k);
  if (k < ncomplex) {
    const std::int64_t n = 2 * (ncomplex - k);
    float zt[8] = {}, rt[8] = {}, at[8] = {};
    std::copy_n(z + 2 * k, n, zt);
    std::copy_n(r + 2 * k, n, rt);
    std::copy_n(ar + 2 * k, n, at);
    step(zt, rt, at);
    std::copy_n(zt, n, z + 2 * k);
    std::copy_n(rt, n, r + 2 * k);
  }
}

/// Kernels::mr_dots_lanes of a wide backend with chunk list C.
template <class C>
inline void mr_dots_lanes(const float* r, const float* ar,
                          std::int64_t ncomplex, int lanes, double* arr_re,
                          double* arr_im, double* arar) noexcept {
  if (lanes == 1) {
    mr_dots_one(r, ar, ncomplex, arr_re, arr_im, arar);
    return;
  }
  detail::for_each_chunk(C{}, lanes, lanes,
                         [&](const auto& v, std::int64_t c) {
                           mr_dots_chunk(v, r, ar, ncomplex, lanes, c, arr_re,
                                         arr_im, arar);
                         });
}

/// Kernels::mr_axpy_lanes of a wide backend with chunk list C.
template <class C>
inline void mr_axpy_lanes(float* z, float* r, const float* ar,
                          std::int64_t ncomplex, int lanes,
                          const float* alpha_re,
                          const float* alpha_im) noexcept {
  if (lanes == 1) {
    mr_axpy_one(z, r, ar, ncomplex, alpha_re[0], alpha_im[0]);
    return;
  }
  detail::for_each_chunk(C{}, lanes, lanes,
                         [&](const auto& v, std::int64_t c) {
                           mr_axpy_chunk(v, z, r, ar, ncomplex, lanes, c,
                                         alpha_re, alpha_im);
                         });
}

inline void float_to_half_n(const float* src, Half* dst,
                            std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                      _MM_FROUND_TO_NEAREST_INT |
                                          _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = float_to_half(src[i]);
}

inline void half_to_float_n(const Half* src, float* dst,
                            std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = half_to_float(src[i]);
}

}  // namespace lqcd::simd::a2

#endif  // AVX2 + FMA + F16C
