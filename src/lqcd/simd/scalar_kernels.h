// Portable reference implementations of the dispatched kernels.
//
// INTERNAL to src/lqcd/simd/: backend_scalar.cpp exposes these as the
// scalar table. At two or more lanes every lane kernel is the chunk
// loop of simd/dslash_lanes.h over the chunk list {LaneArray<8>,
// LaneArray<4>} + LaneArrayTail<4>; the clover and MR chunk bodies below
// are the FMA-free reference the wide backends' FMA bodies are held to
// (<= 1e-6 relative). One lane runs the LaneArray<1> dslash and pack and
// the register-resident one-lane clover and MR loops. All translation
// units that include this header are compiled with -ffp-contract=off,
// which (together with the fixed accumulation order below) pins the
// scalar results bit-for-bit across compilers and -march levels: without
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

using Chunks = detail::ChunkList<detail::LaneArrayTail<4>,
                                 detail::LaneArray<8>, detail::LaneArray<4>>;

/// The whole-domain lane dslash (simd/dslash_lanes.h): one lane as a
/// LaneArray<1>, otherwise the chunk list.
inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  if (lanes > 1) {
    detail::dslash_chunks<Chunks>(links, nbr, l0, in_off, nsites, in, out,
                                  lanes);
    return;
  }
  for (std::int32_t i = 0; i < nsites; ++i)
    detail::dslash_site(detail::LaneArray<1>{}, links, nbr, l0 + i, in_off,
                        in, out + static_cast<std::size_t>(i) * kSpinorReals,
                        1);
}

/// The whole-domain boundary pack, chunked like dslash_lanes.
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
      [&]<int Mu, bool Forward>(const float* u, const float* zs, float* o) {
        detail::pack_chunk<Mu, Forward>(detail::LaneArray<1>{}, u, zs, 1, 0,
                                        1, o, rhs_stride);
      });
}

/// One site's clover block pair on one chunk of lanes, as
/// PackedHermitian6::apply orders it: row i starts at diag_i x_i, then
/// adds offd[i][j] x_j for j < i and x_j conj(offd[j][i]) for j > i, each
/// term a complex product by separate multiplies (conj(p) x as p x with
/// Im p negated, which is exact). `x` and `y` point at the chunk's first
/// lane.
template <class V>
inline void clover_chunk(const V& v, const float* blk, const float* x,
                         float* y, int lanes) noexcept {
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
        const int k = j < i ? packed_index(i, j) : packed_index(j, i);
        const float oi = b[kCloverBlockDim + 2 * k + 1];
        const Reg pr = V::set1(b[kCloverBlockDim + 2 * k]);
        const Reg pi = V::set1(j < i ? oi : -oi);
        const Reg xr = v.load(x0 + 2 * j * lanes);
        const Reg xi = v.load(x0 + (2 * j + 1) * lanes);
        acc_re = V::add(acc_re, V::sub(V::mul(pr, xr), V::mul(pi, xi)));
        acc_im = V::add(acc_im, V::add(V::mul(pr, xi), V::mul(pi, xr)));
      }
      v.store(y0 + 2 * i * lanes, acc_re);
      v.store(y0 + (2 * i + 1) * lanes, acc_im);
    }
  }
}

/// clover_chunk() on one lane with the columns j outermost: each row still
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
    const float* x = in + s * stride;
    float* y = out + s * stride;
    if (lanes == 1) {
      clover_site_one(b, x, y);
      continue;
    }
    detail::for_each_chunk(Chunks{}, lanes, lanes,
                           [&](const auto& v, std::int64_t c) {
                             clover_chunk(v, b, x + c, y + c, lanes);
                           });
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  detail::xpay_chunks<Chunks>(x, s, y, out, n);
}

/// The MR inner products of one chunk of lanes from lane c, in double:
/// arr += Ar_re r_re + Ar_im r_im (and so on) per component, by separate
/// multiplies and adds, in component order.
template <class V>
inline void mr_dots_chunk(const V& v, const float* r, const float* ar,
                          std::int64_t ncomplex, int lanes, std::int64_t c,
                          double* arr_re, double* arr_im,
                          double* arar) noexcept {
  auto srr = v.load(arr_re + c), sri = v.load(arr_im + c),
       saa = v.load(arar + c);
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    const float* br = r + 2 * k * lanes + c;
    const float* ba = ar + 2 * k * lanes + c;
    const auto rr = V::widen(v.load(br)), ri = V::widen(v.load(br + lanes));
    const auto ad = V::widen(v.load(ba)), ai = V::widen(v.load(ba + lanes));
    srr = V::add(srr, V::add(V::mul(ad, rr), V::mul(ai, ri)));
    sri = V::add(sri, V::sub(V::mul(ad, ri), V::mul(ai, rr)));
    saa = V::add(saa, V::add(V::mul(ad, ad), V::mul(ai, ai)));
  }
  v.store(arr_re + c, srr);
  v.store(arr_im + c, sri);
  v.store(arar + c, saa);
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
  detail::for_each_chunk(Chunks{}, lanes, lanes,
                         [&](const auto& v, std::int64_t c) {
                           mr_dots_chunk(v, r, ar, ncomplex, lanes, c, arr_re,
                                         arr_im, arar);
                         });
}

/// The MR update of one chunk of lanes from lane c: z += alpha r and
/// r -= alpha Ar, each complex product by separate multiplies and one
/// subtract or add before the update.
template <class V>
inline void mr_axpy_chunk(const V& v, float* z, float* r, const float* ar,
                          std::int64_t ncomplex, int lanes, std::int64_t c,
                          const float* alpha_re,
                          const float* alpha_im) noexcept {
  const auto alr = v.load(alpha_re + c), ali = v.load(alpha_im + c);
  for (std::int64_t k = 0; k < ncomplex; ++k) {
    float* zre = z + 2 * k * lanes + c;
    float* rre = r + 2 * k * lanes + c;
    const float* are = ar + 2 * k * lanes + c;
    const auto vrr = v.load(rre), vri = v.load(rre + lanes);
    const auto var = v.load(are), vai = v.load(are + lanes);
    v.store(zre, V::add(v.load(zre),
                        V::sub(V::mul(alr, vrr), V::mul(ali, vri))));
    v.store(zre + lanes, V::add(v.load(zre + lanes),
                                V::add(V::mul(alr, vri), V::mul(ali, vrr))));
    v.store(rre, V::sub(vrr, V::sub(V::mul(alr, var), V::mul(ali, vai))));
    v.store(rre + lanes,
            V::sub(vri, V::add(V::mul(alr, vai), V::mul(ali, var))));
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
  detail::for_each_chunk(Chunks{}, lanes, lanes,
                         [&](const auto& v, std::int64_t c) {
                           mr_axpy_chunk(v, z, r, ar, ncomplex, lanes, c,
                                         alpha_re, alpha_im);
                         });
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
