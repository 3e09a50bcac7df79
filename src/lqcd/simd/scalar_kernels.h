// Portable reference implementations of the dispatched kernels.
//
// INTERNAL to src/lqcd/simd/: backend_scalar.cpp exposes these as the
// scalar table, and the AVX2/AVX-512 backends reuse them for loop tails so
// every tail is bit-identical to the scalar path. All translation units
// that include this header are compiled with -ffp-contract=off, which
// (together with the fixed accumulation order below) pins the scalar
// results bit-for-bit across compilers and -march levels: without
// contraction, none of these unit-stride elementwise loops gives the
// autovectorizer any reassociation freedom.
//
// The arithmetic is lifted operation-for-operation from the original
// in-header lane kernels (schwarz/schwarz.h, solver/mr.h) so the move
// behind the dispatch table preserves the instrumented-counter contract.
#pragma once

#include <cstdint>

#include "lqcd/base/aligned.h"
#include "lqcd/linalg/fp16.h"
#include "lqcd/simd/dslash_lanes.h"
#include "lqcd/su3/clover_block.h"
#include "lqcd/su3/gamma.h"

namespace lqcd::simd::ref {

/// One 3x3 complex matrix product, row-major (re,im) interleaved. The
/// accumulator starts from the k = 0 product (not from zero) so the wide
/// backends can start from their first product term and stay bit-identical
/// even for -0.0f outputs.
inline void su3_mul_nn_one(const float* a, const float* b,
                           float* c) noexcept {
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      float cr = 0.0f, ci = 0.0f;
      for (int k = 0; k < 3; ++k) {
        const float ar = a[(i * 3 + k) * 2], ai = a[(i * 3 + k) * 2 + 1];
        const float br = b[(k * 3 + j) * 2], bi = b[(k * 3 + j) * 2 + 1];
        const float pr = ar * br - ai * bi;
        const float pi = ar * bi + ai * br;
        if (k == 0) {
          cr = pr;
          ci = pi;
        } else {
          cr += pr;
          ci += pi;
        }
      }
      c[(i * 3 + j) * 2] = cr;
      c[(i * 3 + j) * 2 + 1] = ci;
    }
}

inline void su3_mul_nn(const float* a, const float* b, float* c,
                       std::int64_t n) noexcept {
  for (std::int64_t m = 0; m < n; ++m)
    su3_mul_nn_one(a + m * 18, b + m * 18, c + m * 18);
}

/// out = a + s * phase*b, lane-wise, for one complex component pair.
/// In-place use (out == a) is fine: each lane reads before it writes.
inline void phase_madd(const float* a_re, const float* a_im,
                       const float* b_re, const float* b_im, Phase p, float s,
                       float* o_re, float* o_im, int lanes) noexcept {
  switch (p) {
    case Phase::kPlusOne:
      LQCD_PRAGMA_SIMD
      for (int l = 0; l < lanes; ++l) {
        o_re[l] = a_re[l] + s * b_re[l];
        o_im[l] = a_im[l] + s * b_im[l];
      }
      break;
    case Phase::kMinusOne:
      LQCD_PRAGMA_SIMD
      for (int l = 0; l < lanes; ++l) {
        o_re[l] = a_re[l] - s * b_re[l];
        o_im[l] = a_im[l] - s * b_im[l];
      }
      break;
    case Phase::kPlusI:
      LQCD_PRAGMA_SIMD
      for (int l = 0; l < lanes; ++l) {
        const float br = b_re[l], bi = b_im[l];
        o_re[l] = a_re[l] - s * bi;
        o_im[l] = a_im[l] + s * br;
      }
      break;
    case Phase::kMinusI:
    default:
      LQCD_PRAGMA_SIMD
      for (int l = 0; l < lanes; ++l) {
        const float br = b_re[l], bi = b_im[l];
        o_re[l] = a_re[l] + s * bi;
        o_im[l] = a_im[l] - s * br;
      }
      break;
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

inline void su3_mul_lanes(const float* u, const float* x, float* y, int lanes,
                          int adjoint) noexcept {
  for (int sp = 0; sp < 2; ++sp)
    for (int i = 0; i < kNumColors; ++i) {
      float* y_re = y + (sp * kNumColors + i) * 2 * lanes;
      float* y_im = y_re + lanes;
      for (int j = 0; j < kNumColors; ++j) {
        // u[(row*3+col)*2] is the real part of U_{row,col}; the adjoint
        // path reads U_{j,i} and conjugates.
        const float ur = adjoint ? u[(j * 3 + i) * 2] : u[(i * 3 + j) * 2];
        const float ui = adjoint ? -u[(j * 3 + i) * 2 + 1]
                                 : u[(i * 3 + j) * 2 + 1];
        const float* x_re = x + (sp * kNumColors + j) * 2 * lanes;
        const float* x_im = x_re + lanes;
        if (j == 0) {
          LQCD_PRAGMA_SIMD
          for (int l = 0; l < lanes; ++l) {
            y_re[l] = ur * x_re[l] - ui * x_im[l];
            y_im[l] = ur * x_im[l] + ui * x_re[l];
          }
        } else {
          LQCD_PRAGMA_SIMD
          for (int l = 0; l < lanes; ++l) {
            y_re[l] += ur * x_re[l] - ui * x_im[l];
            y_im[l] += ur * x_im[l] + ui * x_re[l];
          }
        }
      }
    }
}

/// The whole-domain lane dslash (simd/dslash_lanes.h): 8-lane chunks,
/// then 4, then a zero-filled 4-lane tail.
inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  using Wide = detail::LaneArray<8>;
  using Narrow = detail::LaneArray<4>;
  for (std::int32_t i = 0; i < nsites; ++i) {
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals *
                         static_cast<std::size_t>(lanes);
    int c = 0;
    for (; c + Wide::width <= lanes; c += Wide::width)
      detail::dslash_site(Wide{}, links, nbr, l0 + i, in_off, in + c, o + c,
                          lanes);
    for (; c + Narrow::width <= lanes; c += Narrow::width)
      detail::dslash_site(Narrow{}, links, nbr, l0 + i, in_off, in + c, o + c,
                          lanes);
    if (c < lanes)
      detail::dslash_site(detail::LaneArrayTail<Narrow::width>{{}, lanes - c},
                          links, nbr, l0 + i, in_off, in + c, o + c, lanes);
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
    for (int i = 0; i < kCloverBlockDim; ++i) {
      float* o_re = y0 + 2 * i * lanes;
      float* o_im = o_re + lanes;
      {
        const float di = blk.diag[i];
        const float* x_re = x0 + 2 * i * lanes;
        const float* x_im = x_re + lanes;
        LQCD_PRAGMA_SIMD
        for (int l = 0; l < lanes; ++l) {
          o_re[l] = di * x_re[l];
          o_im[l] = di * x_im[l];
        }
      }
      for (int j = 0; j < i; ++j) {
        const Complex<float> o = blk.offd[packed_index(i, j)];
        const float pr = o.real(), pi = o.imag();
        const float* x_re = x0 + 2 * j * lanes;
        const float* x_im = x_re + lanes;
        LQCD_PRAGMA_SIMD
        for (int l = 0; l < lanes; ++l) {
          o_re[l] += pr * x_re[l] - pi * x_im[l];
          o_im[l] += pr * x_im[l] + pi * x_re[l];
        }
      }
      for (int j = i + 1; j < kCloverBlockDim; ++j) {
        // acc += x[j] * conj(offd[j][i]), as in PackedHermitian6::apply.
        const Complex<float> o = blk.offd[packed_index(j, i)];
        const float pr = o.real(), pi = o.imag();
        const float* x_re = x0 + 2 * j * lanes;
        const float* x_im = x_re + lanes;
        LQCD_PRAGMA_SIMD
        for (int l = 0; l < lanes; ++l) {
          o_re[l] += x_re[l] * pr + x_im[l] * pi;
          o_im[l] += x_im[l] * pr - x_re[l] * pi;
        }
      }
    }
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  LQCD_PRAGMA_SIMD
  for (std::int64_t k = 0; k < n; ++k) out[k] = x[k] + s * y[k];
}

inline void mr_dots_lanes(const float* r, const float* ar,
                          std::int64_t ncomplex, int lanes, double* arr_re,
                          double* arr_im, double* arar) noexcept {
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    const float* rre = r + 2 * k * lanes;
    const float* rim = rre + lanes;
    const float* are = ar + 2 * k * lanes;
    const float* aim = are + lanes;
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < lanes; ++l) {
      const double ar_ = are[l], ai_ = aim[l];
      const double rr_ = rre[l], ri_ = rim[l];
      arr_re[l] += ar_ * rr_ + ai_ * ri_;
      arr_im[l] += ar_ * ri_ - ai_ * rr_;
      arar[l] += ar_ * ar_ + ai_ * ai_;
    }
  }
}

inline void mr_axpy_lanes(float* z, float* r, const float* ar,
                          std::int64_t ncomplex, int lanes,
                          const float* alpha_re,
                          const float* alpha_im) noexcept {
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    float* zre = z + 2 * k * lanes;
    float* zim = zre + lanes;
    float* rre = r + 2 * k * lanes;
    float* rim = rre + lanes;
    const float* are = ar + 2 * k * lanes;
    const float* aim = are + lanes;
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < lanes; ++l) {
      zre[l] += alpha_re[l] * rre[l] - alpha_im[l] * rim[l];
      zim[l] += alpha_re[l] * rim[l] + alpha_im[l] * rre[l];
      rre[l] -= alpha_re[l] * are[l] - alpha_im[l] * aim[l];
      rim[l] -= alpha_re[l] * aim[l] + alpha_im[l] * are[l];
    }
  }
}

inline void float_to_half_n(const float* src, Half* dst,
                            std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = float_to_half(src[i]);
}

inline void half_to_float_n(const Half* src, float* dst,
                            std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = half_to_float(src[i]);
}

}  // namespace lqcd::simd::ref
