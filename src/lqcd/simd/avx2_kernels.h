// AVX2+FMA+F16C implementations of the dispatched kernels.
//
// INTERNAL to src/lqcd/simd/: included by backend_avx2.cpp (and by
// backend_avx512.cpp for the kernels it does not widen). Compiles to real
// code only when the translation unit has AVX2, FMA and F16C enabled;
// otherwise the backend reports "not compiled" and dispatch never lands
// here.
//
// Numerics: su3_mul_nn / su3_mul_lanes / phase_madd / xpay use separate
// mul+add in exactly the scalar accumulation order (j = 0, 1, 2), so they
// are bit-identical to the scalar backend. clover_pair_lanes and the MR
// kernels use FMA: per-term rounding differs from scalar at the last bit
// (<= 1e-6 relative after accumulation), which the dispatch contract
// allows. Loop tails run scalar code, which this TU compiles with
// -ffp-contract=off like every other backend; the dslash's tail is a
// masked 4-lane chunk instead (see dslash_lanes.h).
#pragma once

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

// ---------------------------------------------------------------------------
// Lane kernels: the SOA-over-RHS layout keeps re/im in separate contiguous
// lane vectors, so these are pure elementwise vertical ops — no shuffles.
// ---------------------------------------------------------------------------

inline void su3_mul_lanes(const float* u, const float* x, float* y, int lanes,
                          int adjoint) noexcept {
  for (int sp = 0; sp < 2; ++sp)
    for (int i = 0; i < kNumColors; ++i) {
      float ur[3], ui[3];
      const float* xr[3];
      for (int j = 0; j < kNumColors; ++j) {
        ur[j] = adjoint ? u[(j * 3 + i) * 2] : u[(i * 3 + j) * 2];
        ui[j] = adjoint ? -u[(j * 3 + i) * 2 + 1] : u[(i * 3 + j) * 2 + 1];
        xr[j] = x + (sp * kNumColors + j) * 2 * lanes;
      }
      float* y_re = y + (sp * kNumColors + i) * 2 * lanes;
      float* y_im = y_re + lanes;
      int l = 0;
      for (; l + 8 <= lanes; l += 8) {
        __m256 acc_re = _mm256_setzero_ps();
        __m256 acc_im = _mm256_setzero_ps();
        for (int j = 0; j < 3; ++j) {
          const __m256 vur = _mm256_set1_ps(ur[j]);
          const __m256 vui = _mm256_set1_ps(ui[j]);
          const __m256 vxr = _mm256_loadu_ps(xr[j] + l);
          const __m256 vxi = _mm256_loadu_ps(xr[j] + lanes + l);
          const __m256 re =
              _mm256_sub_ps(_mm256_mul_ps(vur, vxr), _mm256_mul_ps(vui, vxi));
          const __m256 im =
              _mm256_add_ps(_mm256_mul_ps(vur, vxi), _mm256_mul_ps(vui, vxr));
          acc_re = j == 0 ? re : _mm256_add_ps(acc_re, re);
          acc_im = j == 0 ? im : _mm256_add_ps(acc_im, im);
        }
        _mm256_storeu_ps(y_re + l, acc_re);
        _mm256_storeu_ps(y_im + l, acc_im);
      }
      for (; l + 4 <= lanes; l += 4) {
        __m128 acc_re = _mm_setzero_ps();
        __m128 acc_im = _mm_setzero_ps();
        for (int j = 0; j < 3; ++j) {
          const __m128 vur = _mm_set1_ps(ur[j]);
          const __m128 vui = _mm_set1_ps(ui[j]);
          const __m128 vxr = _mm_loadu_ps(xr[j] + l);
          const __m128 vxi = _mm_loadu_ps(xr[j] + lanes + l);
          const __m128 re =
              _mm_sub_ps(_mm_mul_ps(vur, vxr), _mm_mul_ps(vui, vxi));
          const __m128 im =
              _mm_add_ps(_mm_mul_ps(vur, vxi), _mm_mul_ps(vui, vxr));
          acc_re = j == 0 ? re : _mm_add_ps(acc_re, re);
          acc_im = j == 0 ? im : _mm_add_ps(acc_im, im);
        }
        _mm_storeu_ps(y_re + l, acc_re);
        _mm_storeu_ps(y_im + l, acc_im);
      }
      for (; l < lanes; ++l) {
        float cr = 0.0f, ci = 0.0f;
        for (int j = 0; j < 3; ++j) {
          const float pr = ur[j] * xr[j][l] - ui[j] * xr[j][lanes + l];
          const float pi = ur[j] * xr[j][lanes + l] + ui[j] * xr[j][l];
          cr = j == 0 ? pr : cr + pr;
          ci = j == 0 ? pi : ci + pi;
        }
        y_re[l] = cr;
        y_im[l] = ci;
      }
    }
}

/// out = a + s * phase*b, lane-wise (see scalar_kernels.h). mul+add only:
/// bit-identical to the scalar path.
inline void phase_madd(const float* a_re, const float* a_im,
                       const float* b_re, const float* b_im, Phase p, float s,
                       float* o_re, float* o_im, int lanes) noexcept {
  // Reduce the four phase cases to out_re = a_re + sr*br', where the
  // phase picks which of (b_re, b_im) feeds each output and the sign.
  //   +1: o_re = a + s*b_re,  o_im = a + s*b_im
  //   -1: o_re = a - s*b_re,  o_im = a - s*b_im
  //   +i: o_re = a - s*b_im,  o_im = a + s*b_re
  //   -i: o_re = a + s*b_im,  o_im = a - s*b_re
  const float* br = b_re;
  const float* bi = b_im;
  float sr = s, si = s;
  switch (p) {
    case Phase::kPlusOne:
      break;
    case Phase::kMinusOne:
      sr = -s;
      si = -s;
      break;
    case Phase::kPlusI:
      br = b_im;
      bi = b_re;
      sr = -s;
      break;
    case Phase::kMinusI:
    default:
      br = b_im;
      bi = b_re;
      si = -s;
      break;
  }
  const __m256 vsr = _mm256_set1_ps(sr);
  const __m256 vsi = _mm256_set1_ps(si);
  int l = 0;
  for (; l + 8 <= lanes; l += 8) {
    const __m256 re = _mm256_add_ps(_mm256_loadu_ps(a_re + l),
                                    _mm256_mul_ps(vsr, _mm256_loadu_ps(br + l)));
    const __m256 im = _mm256_add_ps(_mm256_loadu_ps(a_im + l),
                                    _mm256_mul_ps(vsi, _mm256_loadu_ps(bi + l)));
    _mm256_storeu_ps(o_re + l, re);
    _mm256_storeu_ps(o_im + l, im);
  }
  for (; l + 4 <= lanes; l += 4) {
    const __m128 re = _mm_add_ps(
        _mm_loadu_ps(a_re + l),
        _mm_mul_ps(_mm_set1_ps(sr), _mm_loadu_ps(br + l)));
    const __m128 im = _mm_add_ps(
        _mm_loadu_ps(a_im + l),
        _mm_mul_ps(_mm_set1_ps(si), _mm_loadu_ps(bi + l)));
    _mm_storeu_ps(o_re + l, re);
    _mm_storeu_ps(o_im + l, im);
  }
  for (; l < lanes; ++l) {
    const float re = a_re[l] + sr * br[l];
    const float im = a_im[l] + si * bi[l];
    o_re[l] = re;
    o_im[l] = im;
  }
}

inline void project_lanes(const float* in_site, int mu, int sign, float* h,
                          int lanes) noexcept {
  const PermPhaseMatrix& g = kGamma[static_cast<std::size_t>(mu)];
  const float s = sign > 0 ? 1.0f : -1.0f;
  for (int r = 0; r < 2; ++r) {
    const int col = g.col[static_cast<std::size_t>(r)];
    for (int c = 0; c < kNumColors; ++c) {
      const float* a_re = in_site + (r * kNumColors + c) * 2 * lanes;
      const float* b_re = in_site + (col * kNumColors + c) * 2 * lanes;
      float* o_re = h + (r * kNumColors + c) * 2 * lanes;
      phase_madd(a_re, a_re + lanes, b_re, b_re + lanes,
                 g.phase[static_cast<std::size_t>(r)], s, o_re, o_re + lanes,
                 lanes);
    }
  }
}

/// Vector traits of simd/dslash_lanes.h: 8 lanes per __m256, 4 per
/// __m128.
struct Ymm {
  using reg = __m256;
  static constexpr int width = 8;
  reg load(const float* p) const noexcept { return _mm256_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm256_storeu_ps(p, x); }
  static reg zero() noexcept { return _mm256_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm256_set1_ps(x); }
  static reg add(reg a, reg b) noexcept { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_ps(a, b); }
};

struct Xmm {
  using reg = __m128;
  static constexpr int width = 4;
  reg load(const float* p) const noexcept { return _mm_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm_storeu_ps(p, x); }
  static reg zero() noexcept { return _mm_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm_set1_ps(x); }
  static reg add(reg a, reg b) noexcept { return _mm_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm_mul_ps(a, b); }
};

/// A masked Xmm for the last lanes % 4: lane l is live iff l < rem.
struct XmmTail : Xmm {
  __m128i m;
  reg load(const float* p) const noexcept { return _mm_maskload_ps(p, m); }
  void store(float* p, reg x) const noexcept { _mm_maskstore_ps(p, m, x); }
};

inline __m128i tail_mask4(int rem) noexcept {
  return _mm_cmpgt_epi32(_mm_set1_epi32(rem), _mm_setr_epi32(0, 1, 2, 3));
}

/// The whole-domain lane dslash: 8-lane chunks, then 4, then a masked 4.
inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  for (std::int32_t i = 0; i < nsites; ++i) {
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals *
                         static_cast<std::size_t>(lanes);
    int c = 0;
    for (; c + Ymm::width <= lanes; c += Ymm::width)
      detail::dslash_site(Ymm{}, links, nbr, l0 + i, in_off, in + c, o + c,
                          lanes);
    for (; c + Xmm::width <= lanes; c += Xmm::width)
      detail::dslash_site(Xmm{}, links, nbr, l0 + i, in_off, in + c, o + c,
                          lanes);
    if (c < lanes)
      detail::dslash_site(XmmTail{{}, tail_mask4(lanes - c)}, links, nbr,
                          l0 + i, in_off, in + c, o + c, lanes);
  }
}

inline void clover_pair_lanes(const PackedHermitian6<float>* b0,
                              const PackedHermitian6<float>* b1,
                              const float* in_site, float* out_site,
                              int lanes) noexcept {
  const PackedHermitian6<float>* blocks[2] = {b0, b1};
  for (int chi = 0; chi < 2; ++chi) {
    const auto& blk = *blocks[chi];
    const float* x0 = in_site + chi * 2 * kCloverBlockDim * lanes;
    float* y0 = out_site + chi * 2 * kCloverBlockDim * lanes;
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
      for (int i = 0; i < kCloverBlockDim; ++i) {
        const __m256 di = _mm256_set1_ps(blk.diag[i]);
        __m256 acc_re = _mm256_mul_ps(di, _mm256_loadu_ps(x0 + 2 * i * lanes + l));
        __m256 acc_im =
            _mm256_mul_ps(di, _mm256_loadu_ps(x0 + (2 * i + 1) * lanes + l));
        for (int j = 0; j < kCloverBlockDim; ++j) {
          if (j == i) continue;
          const Complex<float> o = j < i ? blk.offd[packed_index(i, j)]
                                         : blk.offd[packed_index(j, i)];
          const __m256 pr = _mm256_set1_ps(o.real());
          // j > i uses conj(offd[j][i]): same real part, negated imag.
          const __m256 pi = _mm256_set1_ps(j < i ? o.imag() : -o.imag());
          const __m256 xr = _mm256_loadu_ps(x0 + 2 * j * lanes + l);
          const __m256 xi = _mm256_loadu_ps(x0 + (2 * j + 1) * lanes + l);
          acc_re = _mm256_fmadd_ps(pr, xr, acc_re);
          acc_re = _mm256_fnmadd_ps(pi, xi, acc_re);
          acc_im = _mm256_fmadd_ps(pr, xi, acc_im);
          acc_im = _mm256_fmadd_ps(pi, xr, acc_im);
        }
        _mm256_storeu_ps(y0 + 2 * i * lanes + l, acc_re);
        _mm256_storeu_ps(y0 + (2 * i + 1) * lanes + l, acc_im);
      }
    }
    for (; l + 4 <= lanes; l += 4) {
      for (int i = 0; i < kCloverBlockDim; ++i) {
        const __m128 di = _mm_set1_ps(blk.diag[i]);
        __m128 acc_re = _mm_mul_ps(di, _mm_loadu_ps(x0 + 2 * i * lanes + l));
        __m128 acc_im =
            _mm_mul_ps(di, _mm_loadu_ps(x0 + (2 * i + 1) * lanes + l));
        for (int j = 0; j < kCloverBlockDim; ++j) {
          if (j == i) continue;
          const Complex<float> o = j < i ? blk.offd[packed_index(i, j)]
                                         : blk.offd[packed_index(j, i)];
          const __m128 pr = _mm_set1_ps(o.real());
          const __m128 pi = _mm_set1_ps(j < i ? o.imag() : -o.imag());
          const __m128 xr = _mm_loadu_ps(x0 + 2 * j * lanes + l);
          const __m128 xi = _mm_loadu_ps(x0 + (2 * j + 1) * lanes + l);
          acc_re = _mm_fmadd_ps(pr, xr, acc_re);
          acc_re = _mm_fnmadd_ps(pi, xi, acc_re);
          acc_im = _mm_fmadd_ps(pr, xi, acc_im);
          acc_im = _mm_fmadd_ps(pi, xr, acc_im);
        }
        _mm_storeu_ps(y0 + 2 * i * lanes + l, acc_re);
        _mm_storeu_ps(y0 + (2 * i + 1) * lanes + l, acc_im);
      }
    }
    if (l < lanes) {
      // Lane tail: scalar reference on the remaining sub-range. The
      // ref kernel indexes components by `lanes`, so hand it shifted
      // bases and the remaining width.
      const int rem = lanes - l;
      for (int i = 0; i < kCloverBlockDim; ++i) {
        float* o_re = y0 + 2 * i * lanes + l;
        float* o_im = o_re + lanes;
        const float di = blk.diag[i];
        const float* x_re = x0 + 2 * i * lanes + l;
        const float* x_im = x_re + lanes;
        for (int t = 0; t < rem; ++t) {
          o_re[t] = di * x_re[t];
          o_im[t] = di * x_im[t];
        }
        for (int j = 0; j < kCloverBlockDim; ++j) {
          if (j == i) continue;
          const Complex<float> o = j < i ? blk.offd[packed_index(i, j)]
                                         : blk.offd[packed_index(j, i)];
          const float pr = o.real();
          const float pi = j < i ? o.imag() : -o.imag();
          const float* xjr = x0 + 2 * j * lanes + l;
          const float* xji = xjr + lanes;
          for (int t = 0; t < rem; ++t) {
            o_re[t] += pr * xjr[t] - pi * xji[t];
            o_im[t] += pr * xji[t] + pi * xjr[t];
          }
        }
      }
    }
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t k = 0;
  for (; k + 8 <= n; k += 8)
    _mm256_storeu_ps(out + k,
                     _mm256_add_ps(_mm256_loadu_ps(x + k),
                                   _mm256_mul_ps(vs, _mm256_loadu_ps(y + k))));
  for (; k < n; ++k) out[k] = x[k] + s * y[k];
}

inline void mr_dots_lanes(const float* r, const float* ar,
                          std::int64_t ncomplex, int lanes, double* arr_re,
                          double* arr_im, double* arar) noexcept {
  int lc = 0;
  for (; lc + 4 <= lanes; lc += 4) {
    __m256d vrr = _mm256_loadu_pd(arr_re + lc);
    __m256d vri = _mm256_loadu_pd(arr_im + lc);
    __m256d vaa = _mm256_loadu_pd(arar + lc);
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      const float* base_r = r + 2 * k * lanes + lc;
      const float* base_a = ar + 2 * k * lanes + lc;
      const __m256d rr = _mm256_cvtps_pd(_mm_loadu_ps(base_r));
      const __m256d ri = _mm256_cvtps_pd(_mm_loadu_ps(base_r + lanes));
      const __m256d ad = _mm256_cvtps_pd(_mm_loadu_ps(base_a));
      const __m256d ai = _mm256_cvtps_pd(_mm_loadu_ps(base_a + lanes));
      vrr = _mm256_fmadd_pd(ad, rr, vrr);
      vrr = _mm256_fmadd_pd(ai, ri, vrr);
      vri = _mm256_fmadd_pd(ad, ri, vri);
      vri = _mm256_fnmadd_pd(ai, rr, vri);
      vaa = _mm256_fmadd_pd(ad, ad, vaa);
      vaa = _mm256_fmadd_pd(ai, ai, vaa);
    }
    _mm256_storeu_pd(arr_re + lc, vrr);
    _mm256_storeu_pd(arr_im + lc, vri);
    _mm256_storeu_pd(arar + lc, vaa);
  }
  for (; lc < lanes; ++lc) {
    double srr = arr_re[lc], sri = arr_im[lc], saa = arar[lc];
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      const double rr = r[2 * k * lanes + lc];
      const double ri = r[(2 * k + 1) * lanes + lc];
      const double ad = ar[2 * k * lanes + lc];
      const double ai = ar[(2 * k + 1) * lanes + lc];
      srr += ad * rr + ai * ri;
      sri += ad * ri - ai * rr;
      saa += ad * ad + ai * ai;
    }
    arr_re[lc] = srr;
    arr_im[lc] = sri;
    arar[lc] = saa;
  }
}

inline void mr_axpy_lanes(float* z, float* r, const float* ar,
                          std::int64_t ncomplex, int lanes,
                          const float* alpha_re,
                          const float* alpha_im) noexcept {
  int lc = 0;
  for (; lc + 8 <= lanes; lc += 8) {
    const __m256 alr = _mm256_loadu_ps(alpha_re + lc);
    const __m256 ali = _mm256_loadu_ps(alpha_im + lc);
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      float* zre = z + 2 * k * lanes + lc;
      float* rre = r + 2 * k * lanes + lc;
      const float* are = ar + 2 * k * lanes + lc;
      const __m256 vrr = _mm256_loadu_ps(rre);
      const __m256 vri = _mm256_loadu_ps(rre + lanes);
      const __m256 var = _mm256_loadu_ps(are);
      const __m256 vai = _mm256_loadu_ps(are + lanes);
      __m256 vzr = _mm256_loadu_ps(zre);
      __m256 vzi = _mm256_loadu_ps(zre + lanes);
      vzr = _mm256_fmadd_ps(alr, vrr, vzr);
      vzr = _mm256_fnmadd_ps(ali, vri, vzr);
      vzi = _mm256_fmadd_ps(alr, vri, vzi);
      vzi = _mm256_fmadd_ps(ali, vrr, vzi);
      _mm256_storeu_ps(zre, vzr);
      _mm256_storeu_ps(zre + lanes, vzi);
      __m256 nrr = _mm256_fnmadd_ps(alr, var, vrr);
      nrr = _mm256_fmadd_ps(ali, vai, nrr);
      __m256 nri = _mm256_fnmadd_ps(alr, vai, vri);
      nri = _mm256_fnmadd_ps(ali, var, nri);
      _mm256_storeu_ps(rre, nrr);
      _mm256_storeu_ps(rre + lanes, nri);
    }
  }
  for (; lc + 4 <= lanes; lc += 4) {
    const __m128 alr = _mm_loadu_ps(alpha_re + lc);
    const __m128 ali = _mm_loadu_ps(alpha_im + lc);
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      float* zre = z + 2 * k * lanes + lc;
      float* rre = r + 2 * k * lanes + lc;
      const float* are = ar + 2 * k * lanes + lc;
      const __m128 vrr = _mm_loadu_ps(rre);
      const __m128 vri = _mm_loadu_ps(rre + lanes);
      const __m128 var = _mm_loadu_ps(are);
      const __m128 vai = _mm_loadu_ps(are + lanes);
      __m128 vzr = _mm_loadu_ps(zre);
      __m128 vzi = _mm_loadu_ps(zre + lanes);
      vzr = _mm_fmadd_ps(alr, vrr, vzr);
      vzr = _mm_fnmadd_ps(ali, vri, vzr);
      vzi = _mm_fmadd_ps(alr, vri, vzi);
      vzi = _mm_fmadd_ps(ali, vrr, vzi);
      _mm_storeu_ps(zre, vzr);
      _mm_storeu_ps(zre + lanes, vzi);
      __m128 nrr = _mm_fnmadd_ps(alr, var, vrr);
      nrr = _mm_fmadd_ps(ali, vai, nrr);
      __m128 nri = _mm_fnmadd_ps(alr, vai, vri);
      nri = _mm_fnmadd_ps(ali, var, nri);
      _mm_storeu_ps(rre, nrr);
      _mm_storeu_ps(rre + lanes, nri);
    }
  }
  for (; lc < lanes; ++lc) {
    const float alr = alpha_re[lc], ali = alpha_im[lc];
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      float* zre = z + 2 * k * lanes + lc;
      float* zim = z + (2 * k + 1) * lanes + lc;
      float* rre = r + 2 * k * lanes + lc;
      float* rim = r + (2 * k + 1) * lanes + lc;
      const float are = ar[2 * k * lanes + lc];
      const float aim = ar[(2 * k + 1) * lanes + lc];
      *zre += alr * *rre - ali * *rim;
      *zim += alr * *rim + ali * *rre;
      *rre -= alr * are - ali * aim;
      *rim -= alr * aim + ali * are;
    }
  }
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
