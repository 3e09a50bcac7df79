// AVX-512 backend: 16-lane masked versions of the hot lane kernels (the
// mask makes the lane tail free — no scalar remainder), reusing the AVX2
// implementations for su3_mul_nn and the MR reductions where 512-bit
// vectors buy nothing over the small lane counts. Compiled with
// -mavx512f -mavx512vl -mavx512bw -mavx512dq plus the AVX2 set and
// -ffp-contract=off.
//
// Numerics match the AVX2 backend kernel-for-kernel: the bit-identical
// kernels (su3 multiply, projection, dslash, xpay) use separate mul+add
// in scalar accumulation order; clover uses per-lane FMA, which is
// width-independent, so avx512 == avx2 bitwise there as well.
#include "lqcd/simd/avx2_kernels.h"
#include "lqcd/simd/backends.h"

#if defined(LQCD_SIMD_AVX2_COMPILED) && defined(__AVX512F__) && \
    defined(__AVX512VL__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
#define LQCD_SIMD_AVX512_COMPILED 1

#include <immintrin.h>

#include <cstdint>

namespace lqcd::simd::a5 {

inline __mmask16 tail_mask(int rem) noexcept {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

/// out = a + s * phase*b, lane-wise, 16 lanes per op with a masked tail.
/// Same mul+add reduction as the scalar path: bit-identical.
inline void phase_madd(const float* a_re, const float* a_im,
                       const float* b_re, const float* b_im, Phase p, float s,
                       float* o_re, float* o_im, int lanes) noexcept {
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
  const __m512 vsr = _mm512_set1_ps(sr);
  const __m512 vsi = _mm512_set1_ps(si);
  int l = 0;
  for (; l + 16 <= lanes; l += 16) {
    _mm512_storeu_ps(
        o_re + l, _mm512_add_ps(_mm512_loadu_ps(a_re + l),
                                _mm512_mul_ps(vsr, _mm512_loadu_ps(br + l))));
    _mm512_storeu_ps(
        o_im + l, _mm512_add_ps(_mm512_loadu_ps(a_im + l),
                                _mm512_mul_ps(vsi, _mm512_loadu_ps(bi + l))));
  }
  if (l < lanes) {
    const __mmask16 m = tail_mask(lanes - l);
    _mm512_mask_storeu_ps(
        o_re + l, m,
        _mm512_add_ps(_mm512_maskz_loadu_ps(m, a_re + l),
                      _mm512_mul_ps(vsr, _mm512_maskz_loadu_ps(m, br + l))));
    _mm512_mask_storeu_ps(
        o_im + l, m,
        _mm512_add_ps(_mm512_maskz_loadu_ps(m, a_im + l),
                      _mm512_mul_ps(vsi, _mm512_maskz_loadu_ps(m, bi + l))));
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

/// Vector traits of simd/dslash_lanes.h: 16 lanes per __m512, and a
/// masked variant for the last lanes % 16.
struct Zmm {
  using reg = __m512;
  static constexpr int width = 16;
  reg load(const float* p) const noexcept { return _mm512_loadu_ps(p); }
  void store(float* p, reg x) const noexcept { _mm512_storeu_ps(p, x); }
  static reg zero() noexcept { return _mm512_setzero_ps(); }
  static reg set1(float x) noexcept { return _mm512_set1_ps(x); }
  static reg add(reg a, reg b) noexcept { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_ps(a, b); }
};

struct ZmmTail : Zmm {
  __mmask16 m;
  reg load(const float* p) const noexcept {
    return _mm512_maskz_loadu_ps(m, p);
  }
  void store(float* p, reg x) const noexcept { _mm512_mask_storeu_ps(p, m, x); }
};

/// The whole-domain lane dslash: 16-lane chunks and a masked tail.
inline void dslash_lanes(const float* links, const std::int32_t* nbr,
                         std::int32_t l0, std::int32_t in_off,
                         std::int32_t nsites, const float* in, float* out,
                         int lanes) noexcept {
  for (std::int32_t i = 0; i < nsites; ++i) {
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals *
                         static_cast<std::size_t>(lanes);
    int c = 0;
    for (; c + Zmm::width <= lanes; c += Zmm::width)
      detail::dslash_site(Zmm{}, links, nbr, l0 + i, in_off, in + c, o + c,
                          lanes);
    if (c < lanes)
      detail::dslash_site(ZmmTail{{}, tail_mask(lanes - c)}, links, nbr,
                          l0 + i, in_off, in + c, o + c, lanes);
  }
}

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
      for (int l = 0; l < lanes; l += 16) {
        const __mmask16 m =
            lanes - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                            : tail_mask(lanes - l);
        __m512 acc_re = _mm512_setzero_ps();
        __m512 acc_im = _mm512_setzero_ps();
        for (int j = 0; j < 3; ++j) {
          const __m512 vur = _mm512_set1_ps(ur[j]);
          const __m512 vui = _mm512_set1_ps(ui[j]);
          const __m512 vxr = _mm512_maskz_loadu_ps(m, xr[j] + l);
          const __m512 vxi = _mm512_maskz_loadu_ps(m, xr[j] + lanes + l);
          const __m512 re =
              _mm512_sub_ps(_mm512_mul_ps(vur, vxr), _mm512_mul_ps(vui, vxi));
          const __m512 im =
              _mm512_add_ps(_mm512_mul_ps(vur, vxi), _mm512_mul_ps(vui, vxr));
          acc_re = j == 0 ? re : _mm512_add_ps(acc_re, re);
          acc_im = j == 0 ? im : _mm512_add_ps(acc_im, im);
        }
        _mm512_mask_storeu_ps(y_re + l, m, acc_re);
        _mm512_mask_storeu_ps(y_im + l, m, acc_im);
      }
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
    for (int l = 0; l < lanes; l += 16) {
      const __mmask16 m = lanes - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                                          : tail_mask(lanes - l);
      for (int i = 0; i < kCloverBlockDim; ++i) {
        const __m512 di = _mm512_set1_ps(blk.diag[i]);
        __m512 acc_re =
            _mm512_mul_ps(di, _mm512_maskz_loadu_ps(m, x0 + 2 * i * lanes + l));
        __m512 acc_im = _mm512_mul_ps(
            di, _mm512_maskz_loadu_ps(m, x0 + (2 * i + 1) * lanes + l));
        for (int j = 0; j < kCloverBlockDim; ++j) {
          if (j == i) continue;
          const Complex<float> o = j < i ? blk.offd[packed_index(i, j)]
                                         : blk.offd[packed_index(j, i)];
          const __m512 pr = _mm512_set1_ps(o.real());
          const __m512 pi = _mm512_set1_ps(j < i ? o.imag() : -o.imag());
          const __m512 xr = _mm512_maskz_loadu_ps(m, x0 + 2 * j * lanes + l);
          const __m512 xi =
              _mm512_maskz_loadu_ps(m, x0 + (2 * j + 1) * lanes + l);
          acc_re = _mm512_fmadd_ps(pr, xr, acc_re);
          acc_re = _mm512_fnmadd_ps(pi, xi, acc_re);
          acc_im = _mm512_fmadd_ps(pr, xi, acc_im);
          acc_im = _mm512_fmadd_ps(pi, xr, acc_im);
        }
        _mm512_mask_storeu_ps(y0 + 2 * i * lanes + l, m, acc_re);
        _mm512_mask_storeu_ps(y0 + (2 * i + 1) * lanes + l, m, acc_im);
      }
    }
  }
}

inline void xpay_lanes(const float* x, float s, const float* y, float* out,
                       std::int64_t n) noexcept {
  const __m512 vs = _mm512_set1_ps(s);
  std::int64_t k = 0;
  for (; k + 16 <= n; k += 16)
    _mm512_storeu_ps(
        out + k, _mm512_add_ps(_mm512_loadu_ps(x + k),
                               _mm512_mul_ps(vs, _mm512_loadu_ps(y + k))));
  if (k < n) {
    const __mmask16 m = tail_mask(static_cast<int>(n - k));
    _mm512_mask_storeu_ps(
        out + k, m,
        _mm512_add_ps(_mm512_maskz_loadu_ps(m, x + k),
                      _mm512_mul_ps(vs, _mm512_maskz_loadu_ps(m, y + k))));
  }
}

inline void float_to_half_n(const float* src, Half* dst,
                            std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm512_cvtps_ph(_mm512_loadu_ps(src + i),
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
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
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
    "avx512",
    &a2::su3_mul_nn,
    &a5::su3_mul_lanes,
    &a5::project_lanes,
    &a5::dslash_lanes,
    &a5::clover_pair_lanes,
    &a5::xpay_lanes,
    &a2::mr_dots_lanes,
    &a2::mr_axpy_lanes,
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
