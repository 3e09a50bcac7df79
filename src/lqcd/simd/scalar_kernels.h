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
#include "lqcd/su3/spinor.h"

namespace lqcd::simd::detail {

/// Floats of one packed clover block: six diagonal reals, then the 15
/// lower off-diagonal entries as (re, im) (schwarz/storage.h store_block).
inline constexpr int kCloverBlockFloats = kCloverBlockDim + 2 * kCloverOffDiag;

}  // namespace lqcd::simd::detail

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

/// The whole-domain lane dslash (simd/dslash_lanes.h): one lane as a
/// plain float, otherwise 8-lane chunks, then 4, then a zero-filled 4-lane
/// tail.
inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  using One = detail::LaneArray<1>;
  using Wide = detail::LaneArray<8>;
  using Narrow = detail::LaneArray<4>;
  for (std::int32_t i = 0; i < nsites; ++i) {
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals *
                         static_cast<std::size_t>(lanes);
    if (lanes == 1) {
      detail::dslash_site(One{}, links, nbr, l0 + i, in_off, in, o, 1);
      continue;
    }
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

/// The whole-domain boundary pack, chunked like dslash_lanes.
inline void pack_faces_lanes(const float* links,
                             const std::int32_t* face_sites,
                             const std::int32_t* face_size, const float* z,
                             int lanes, int nrhs, float* out,
                             std::int64_t rhs_stride) noexcept {
  using One = detail::LaneArray<1>;
  using Wide = detail::LaneArray<8>;
  using Narrow = detail::LaneArray<4>;
  detail::for_each_face_site(
      links, face_sites, face_size, z, lanes, out,
      [&]<int Mu, bool Forward>(const float* u, const float* zs, float* o) {
        if (lanes == 1) {
          detail::pack_chunk<Mu, Forward>(One{}, u, zs, 1, 0, 1, o,
                                          rhs_stride);
          return;
        }
        int c = 0;
        for (; c + Wide::width <= lanes && c < nrhs; c += Wide::width)
          detail::pack_chunk<Mu, Forward>(Wide{}, u, zs, lanes, c, nrhs, o,
                                          rhs_stride);
        for (; c + Narrow::width <= lanes && c < nrhs; c += Narrow::width)
          detail::pack_chunk<Mu, Forward>(Narrow{}, u, zs, lanes, c, nrhs, o,
                                          rhs_stride);
        if (c < lanes && c < nrhs)
          detail::pack_chunk<Mu, Forward>(
              detail::LaneArrayTail<Narrow::width>{{}, lanes - c}, u, zs,
              lanes, c, nrhs, o, rhs_stride);
      });
}

/// One site's clover block pair on all lanes, as PackedHermitian6::apply
/// orders it: row i starts at diag_i x_i, then adds offd[i][j] x_j for
/// j < i and x_j conj(offd[j][i]) for j > i.
inline void clover_site(const float* blk, const float* in_site,
                        float* out_site, int lanes) noexcept {
  for (int chi = 0; chi < 2; ++chi) {
    const float* b = blk + chi * detail::kCloverBlockFloats;
    const float* x0 = in_site + chi * 2 * kCloverBlockDim * lanes;
    float* y0 = out_site + chi * 2 * kCloverBlockDim * lanes;
    for (int i = 0; i < kCloverBlockDim; ++i) {
      float* o_re = y0 + 2 * i * lanes;
      float* o_im = o_re + lanes;
      {
        const float di = b[i];
        const float* x_re = x0 + 2 * i * lanes;
        const float* x_im = x_re + lanes;
        LQCD_PRAGMA_SIMD
        for (int l = 0; l < lanes; ++l) {
          o_re[l] = di * x_re[l];
          o_im[l] = di * x_im[l];
        }
      }
      for (int j = 0; j < i; ++j) {
        const float* o = b + kCloverBlockDim + 2 * packed_index(i, j);
        const float pr = o[0], pi = o[1];
        const float* x_re = x0 + 2 * j * lanes;
        const float* x_im = x_re + lanes;
        LQCD_PRAGMA_SIMD
        for (int l = 0; l < lanes; ++l) {
          o_re[l] += pr * x_re[l] - pi * x_im[l];
          o_im[l] += pr * x_im[l] + pi * x_re[l];
        }
      }
      for (int j = i + 1; j < kCloverBlockDim; ++j) {
        const float* o = b + kCloverBlockDim + 2 * packed_index(j, i);
        const float pr = o[0], pi = o[1];
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

/// clover_site() on one lane with the columns j outermost: each row still
/// adds its terms in the order j = 0..5, and the twelve rows' chains of
/// adds interleave instead of running one after another.
inline void clover_site_one(const float* blk, const float* x,
                            float* y) noexcept {
  for (int chi = 0; chi < 2; ++chi) {
    const float* b = blk + chi * detail::kCloverBlockFloats;
    const float* x0 = x + chi * 2 * kCloverBlockDim;
    float acc[2 * kCloverBlockDim];
    for (int i = 0; i < kCloverBlockDim; ++i) {
      acc[2 * i] = b[i] * x0[2 * i];
      acc[2 * i + 1] = b[i] * x0[2 * i + 1];
    }
    for (int j = 0; j < kCloverBlockDim; ++j) {
      const float xr = x0[2 * j], xi = x0[2 * j + 1];
      for (int i = 0; i < kCloverBlockDim; ++i) {
        if (i == j) continue;
        const float* o =
            b + kCloverBlockDim +
            2 * (j < i ? packed_index(i, j) : packed_index(j, i));
        const float pr = o[0], pi = o[1];
        if (j < i) {
          acc[2 * i] += pr * xr - pi * xi;
          acc[2 * i + 1] += pr * xi + pi * xr;
        } else {
          acc[2 * i] += xr * pr + xi * pi;
          acc[2 * i + 1] += xi * pr - xr * pi;
        }
      }
    }
    for (int k = 0; k < 2 * kCloverBlockDim; ++k)
      y[chi * 2 * kCloverBlockDim + k] = acc[k];
  }
}

inline void clover_lanes(const float* blocks, std::int32_t nsites,
                         const float* in, float* out, int lanes) noexcept {
  const std::size_t stride =
      static_cast<std::size_t>(kSpinorReals) * static_cast<std::size_t>(lanes);
  for (std::int32_t s = 0; s < nsites; ++s) {
    const float* b =
        blocks + static_cast<std::size_t>(s) * 2 * detail::kCloverBlockFloats;
    if (lanes == 1)
      clover_site_one(b, in + s * stride, out + s * stride);
    else
      clover_site(b, in + s * stride, out + s * stride, lanes);
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
  if (lanes == 1) {  // the same sums with the accumulators in registers
    double srr = *arr_re, sri = *arr_im, saa = *arar;
    for (std::int64_t k = 0; k < ncomplex; ++k) {
      const double ar_ = ar[2 * k], ai_ = ar[2 * k + 1];
      const double rr_ = r[2 * k], ri_ = r[2 * k + 1];
      srr += ar_ * rr_ + ai_ * ri_;
      sri += ar_ * ri_ - ai_ * rr_;
      saa += ar_ * ar_ + ai_ * ai_;
    }
    *arr_re = srr;
    *arr_im = sri;
    *arar = saa;
    return;
  }
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
  if (lanes == 1) {
    // The same update with alpha in registers, one component per loop: at
    // one lane a real part and its imaginary part are adjacent, and GCC
    // 12's SLP vectorizer fuses such a statement pair into vfmaddsub even
    // under -ffp-contract=off.
    const float alr = *alpha_re, ali = *alpha_im;
    const std::int64_t n = 2 * ncomplex;
    for (std::int64_t k = 0; k < n; k += 2)
      z[k] += alr * r[k] - ali * r[k + 1];
    for (std::int64_t k = 0; k < n; k += 2)
      z[k + 1] += alr * r[k + 1] + ali * r[k];
    for (std::int64_t k = 0; k < n; k += 2)
      r[k] -= alr * ar[k] - ali * ar[k + 1];
    for (std::int64_t k = 0; k < n; k += 2)
      r[k + 1] -= alr * ar[k + 1] + ali * ar[k];
    return;
  }
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
