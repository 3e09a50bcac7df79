// Runtime SIMD dispatch (simd/dispatch.h): CPUID/env backend selection,
// the cross-backend numerical contract — bit-identical SU(3) multiply,
// whole-domain dslash and face pack, xpay and binary16 conversion, the
// dslash and face pack also checked against double-precision Spinor
// arithmetic (su3/gamma.h); <= 1e-6 for the FMA-carrying clover and MR
// kernels, which avx2 and avx512 evaluate bitwise alike — lane
// independence at every lane count (lane b of a call equals a one-lane
// call), and the lane-width contract: every backend's width divides
// kCommonLaneWidth. The same contracts one layer up, on whole Schwarz
// applies, are the backend and lanes rows of test_contracts.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "lqcd/base/error.h"
#include "lqcd/base/rng.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/linalg/fp16.h"
#include "lqcd/simd/dispatch.h"
#include "lqcd/solver/even_odd.h"
#include "lqcd/solver/mr.h"

namespace lqcd {
namespace {

using simd::Backend;
using simd::ScopedBackend;

std::vector<Backend> wide_backends() {
  std::vector<Backend> out;
  for (const Backend b : simd::available_backends())
    if (b != Backend::kScalar) out.push_back(b);
  return out;
}

std::vector<float> random_floats(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double max_rel_diff(const std::vector<float>& ref,
                    const std::vector<float>& got) {
  double scale = 0;
  for (const float x : ref) scale = std::max(scale, std::abs(double(x)));
  if (scale == 0) scale = 1;
  double m = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    m = std::max(m, std::abs(double(ref[i]) - double(got[i])) / scale);
  return m;
}

/// Lane b of a site-major lane field with `reals` floats per site.
std::vector<float> lane_of(const std::vector<float>& v, int reals, int lanes,
                           int b) {
  const std::size_t sites =
      v.size() / (static_cast<std::size_t>(reals) * lanes);
  std::vector<float> o(sites * static_cast<std::size_t>(reals));
  for (std::size_t k = 0; k < o.size(); ++k)
    o[k] = v[k * static_cast<std::size_t>(lanes) +
             static_cast<std::size_t>(b)];
  return o;
}

/// U_mu(l) in double from a [local site][mu][18 floats] link array
/// (row-major, (re, im) interleaved).
SU3<double> link_of(const std::vector<float>& links, std::int32_t l, int mu) {
  const float* p = links.data() + (static_cast<std::size_t>(l) * kNumDims +
                                   static_cast<std::size_t>(mu)) * 18;
  SU3<double> u;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j)
      u.m[i][j] = Complex<double>(p[(i * 3 + j) * 2], p[(i * 3 + j) * 2 + 1]);
  return u;
}

/// A spinor from its 24 floats, [spin][color][re, im].
Spinor<double> spinor_of(const float* p) {
  Spinor<double> s;
  for (int sp = 0; sp < kNumSpins; ++sp)
    for (int c = 0; c < kNumColors; ++c)
      s.s[sp].c[c] = Complex<double>(p[(sp * kNumColors + c) * 2],
                                     p[(sp * kNumColors + c) * 2 + 1]);
  return s;
}

// ---------------------------------------------------------------------------
// Selection: CPUID detection, name parsing, env override, force/restore.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysUsableAndDetectionPicksSupported) {
  EXPECT_TRUE(simd::backend_compiled(Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(simd::detect_backend()));

  const auto avail = simd::available_backends();
  ASSERT_FALSE(avail.empty());
  // Widest first, scalar always present, detection returns the head.
  EXPECT_EQ(avail.back(), Backend::kScalar);
  EXPECT_EQ(simd::detect_backend(), avail.front());
  for (const Backend b : avail) EXPECT_TRUE(simd::backend_supported(b));
}

TEST(SimdDispatch, ParseRoundTripsCanonicalNamesAndRejectsUnknown) {
  for (const Backend b :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512})
    EXPECT_EQ(simd::parse_backend(simd::to_string(b)), b);
  EXPECT_THROW(simd::parse_backend("neon"), Error);
  EXPECT_THROW(simd::parse_backend(""), Error);
  EXPECT_THROW(simd::parse_backend("AVX2"), Error);  // names are lower-case
  EXPECT_THROW(simd::parse_backend("avx2 "), Error);
}

TEST(SimdDispatch, EnvOverrideIsValidatedOnRead) {
  const char* saved = std::getenv("LQCD_SIMD_BACKEND");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("LQCD_SIMD_BACKEND");
  EXPECT_FALSE(simd::backend_from_env().has_value());

  ::setenv("LQCD_SIMD_BACKEND", "scalar", 1);
  const auto forced = simd::backend_from_env();
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(*forced, Backend::kScalar);

  ::setenv("LQCD_SIMD_BACKEND", "neon", 1);
  EXPECT_THROW(simd::backend_from_env(), Error);

  // A known backend the machine cannot run must be rejected too (only
  // checkable on hosts without AVX-512).
  if (!simd::backend_supported(Backend::kAvx512)) {
    ::setenv("LQCD_SIMD_BACKEND", "avx512", 1);
    EXPECT_THROW(simd::backend_from_env(), Error);
  }

  if (saved != nullptr)
    ::setenv("LQCD_SIMD_BACKEND", saved_value.c_str(), 1);
  else
    ::unsetenv("LQCD_SIMD_BACKEND");
}

TEST(SimdDispatch, ForceBackendSwitchesAndScopedBackendRestores) {
  const Backend before = simd::active_backend();
  for (const Backend b : simd::available_backends()) {
    ScopedBackend scope(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_EQ(simd::kernels().backend, b);
  }
  EXPECT_EQ(simd::active_backend(), before);

  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (!simd::backend_supported(b)) {
      EXPECT_THROW(simd::force_backend(b), Error);
    }
  }
}

TEST(SimdDispatch, EveryLaneWidthDividesTheCommonLaneWidth) {
  for (const Backend b : simd::available_backends()) {
    ScopedBackend scope(b);
    const int w = simd::kernels().lane_width;
    ASSERT_GE(w, 1) << simd::to_string(b);
    EXPECT_EQ(simd::kCommonLaneWidth % w, 0) << simd::to_string(b);
    // avx512 runs one unmasked 16-float vector per lane vector; avx2 and
    // scalar keep the 4-lane padding they measured fastest at.
    EXPECT_EQ(w, b == Backend::kAvx512 ? 16 : 4) << simd::to_string(b);
  }
}

// ---------------------------------------------------------------------------
// Bit-identical kernels: SU(3) multiply, dslash, face pack, xpay, fp16.
// ---------------------------------------------------------------------------

TEST(SimdParity, Su3MulNnIsBitIdenticalAcrossBackends) {
  // Odd count exercises the wide path's scalar-handled last matrix.
  for (const std::int64_t n : {1, 2, 7, 17}) {
    const auto a = random_floats(n * 18, 11);
    const auto b = random_floats(n * 18, 12);
    std::vector<float> ref(static_cast<std::size_t>(n) * 18);
    {
      ScopedBackend scope(Backend::kScalar);
      simd::kernels().su3_mul_nn(a.data(), b.data(), ref.data(), n);
    }
    for (const Backend w : wide_backends()) {
      ScopedBackend scope(w);
      std::vector<float> got(ref.size(), -1.0f);
      simd::kernels().su3_mul_nn(a.data(), b.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(ref, got))
          << "backend " << simd::to_string(w) << " n " << n;
    }
  }
}

// The whole-domain lane dslash on a real 4^4 domain, both parities (so
// both index offsets and every Dirichlet-cut hop pattern): every backend
// is bitwise equal to scalar, lane b of an L-lane call is bitwise equal to
// a one-lane call on lane b's input, and every lane matches a
// double-precision Spinor reference built from project / mul / mul_adj /
// reconstruct_add.
TEST(SimdParity, DslashLanesIsBitIdenticalAcrossBackends) {
  Geometry geom({8, 8, 8, 8});
  DomainPartition part(geom, {4, 4, 4, 4});
  const std::int32_t hv = part.domain_half_volume();
  const auto links = random_floats(
      static_cast<std::int64_t>(part.domain_volume()) * kNumDims * 18, 51);
  auto dslash = [&](Backend b, int parity, const std::vector<float>& in,
                    int lanes) {
    ScopedBackend scope(b);
    std::vector<float> out(in.size(), -1.0f);
    simd::kernels().dslash_lanes(links.data(), part.local_neighbors(),
                                 parity == 0 ? 0 : hv, parity == 0 ? hv : 0,
                                 hv, in.data(), out.data(), lanes);
    return out;
  };

  for (const int lanes : {1, 3, 4, 8, 12, 16, 17, 31, 32})
    for (const int parity : {0, 1}) {
      const std::int32_t l0 = parity == 0 ? 0 : hv;
      const std::int32_t in_off = parity == 0 ? hv : 0;
      const auto in = random_floats(
          static_cast<std::int64_t>(hv) * kSpinorReals * lanes, 52 + lanes);
      const auto ref = dslash(Backend::kScalar, parity, in, lanes);
      for (const Backend w : wide_backends())
        EXPECT_TRUE(bitwise_equal(ref, dslash(w, parity, in, lanes)))
            << simd::to_string(w) << " parity " << parity << " lanes "
            << lanes;

      for (int b = 0; b < lanes; ++b) {
        const auto in_b = lane_of(in, kSpinorReals, lanes, b);
        const auto got = lane_of(ref, kSpinorReals, lanes, b);
        for (const Backend w : simd::available_backends())
          EXPECT_TRUE(bitwise_equal(got, dslash(w, parity, in_b, 1)))
              << simd::to_string(w) << " parity " << parity << " lanes "
              << lanes << " lane " << b;

        double diff2 = 0, ref2 = 0;
        for (std::int32_t i = 0; i < hv; ++i) {
          const std::int32_t l = l0 + i;
          Spinor<double> acc;
          acc.zero();
          for (int mu = 0; mu < kNumDims; ++mu) {
            const std::int32_t lf = part.local_neighbor(l, mu, Dir::kForward);
            if (lf >= 0) {
              const auto h = project(
                  spinor_of(&in_b[std::size_t(lf - in_off) * kSpinorReals]),
                  mu, -1);
              reconstruct_add(acc, mul(link_of(links, l, mu), h), mu, -1);
            }
            const std::int32_t lb =
                part.local_neighbor(l, mu, Dir::kBackward);
            if (lb >= 0) {
              const auto h = project(
                  spinor_of(&in_b[std::size_t(lb - in_off) * kSpinorReals]),
                  mu, +1);
              reconstruct_add(acc, mul_adj(link_of(links, lb, mu), h), mu, +1);
            }
          }
          const Spinor<double> d =
              acc - spinor_of(&got[std::size_t(i) * kSpinorReals]);
          diff2 += norm2(d);
          ref2 += norm2(acc);
        }
        EXPECT_LE(std::sqrt(diff2 / ref2), 1e-6)
            << "parity " << parity << " lanes " << lanes << " lane " << b;
      }
    }
}

TEST(SimdParity, XpayIsBitIdenticalAndSupportsInPlace) {
  for (const std::int64_t n : {1, 8, 57}) {
    const auto x = random_floats(n, 41);
    const auto y = random_floats(n, 42);
    std::vector<float> ref(static_cast<std::size_t>(n));
    {
      ScopedBackend scope(Backend::kScalar);
      simd::kernels().xpay_lanes(x.data(), -0.25f, y.data(), ref.data(), n);
    }
    for (const Backend w : wide_backends()) {
      ScopedBackend scope(w);
      std::vector<float> got(ref.size(), -1.0f);
      simd::kernels().xpay_lanes(x.data(), -0.25f, y.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(ref, got)) << simd::to_string(w);
      // In-place on y, as the Schur combine loops use it.
      std::vector<float> inplace = y;
      simd::kernels().xpay_lanes(x.data(), -0.25f, inplace.data(),
                                 inplace.data(), n);
      EXPECT_TRUE(bitwise_equal(ref, inplace)) << simd::to_string(w);
    }
  }
}

TEST(SimdParity, HalfConversionIsBitIdenticalIncludingEdgeCases) {
  // Edge values: zeros, subnormal boundaries, the saturate-to-inf
  // threshold (values just below round to 65504, at/above to inf), inf,
  // and NaNs with payloads.
  std::vector<float> edge = {
      0.0f, -0.0f, 1.0f, -2.5f, 65504.0f, -65504.0f, 65519.996f, 65520.0f,
      65536.0f, -70000.0f, 5.96046448e-8f /* 2^-24, smallest subnormal */,
      2.98023224e-8f /* 2^-25: ties to even -> 0 */, 6.0e-8f, 1.0e-7f,
      6.1035156e-5f /* 2^-14, smallest normal */, 6.1e-5f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min()};
  auto src = random_floats(997, 51);  // odd length exercises the tails
  src.insert(src.end(), edge.begin(), edge.end());
  const auto n = static_cast<std::int64_t>(src.size());

  std::vector<Half> ref(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) ref[i] = float_to_half(src[i]);

  for (const Backend b : simd::available_backends()) {
    ScopedBackend scope(b);
    std::vector<Half> got(src.size(), 0xffffu);
    simd::kernels().float_to_half_n(src.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(Half)),
              0)
        << simd::to_string(b);
  }

  // Up-conversion: every one of the 65536 binary16 patterns.
  std::vector<Half> all(65536);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<Half>(i);
  std::vector<float> up_ref(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    up_ref[i] = half_to_float(all[i]);
  for (const Backend b : simd::available_backends()) {
    ScopedBackend scope(b);
    std::vector<float> up(all.size(), -1.0f);
    simd::kernels().half_to_float_n(all.data(), up.data(),
                                    static_cast<std::int64_t>(all.size()));
    EXPECT_EQ(
        std::memcmp(up_ref.data(), up.data(), up.size() * sizeof(float)), 0)
        << simd::to_string(b);
  }
}

// ---------------------------------------------------------------------------
// FMA-carrying kernels: clover and the MR recurrence (<= 1e-6 vs scalar).
// ---------------------------------------------------------------------------

/// `nsites` sites' clover block pairs in the packed float layout of
/// clover_lanes: diagonals near 1, off-diagonals ~0.1.
std::vector<float> random_clover_blocks(std::int32_t nsites,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> blocks(static_cast<std::size_t>(nsites) * 2 *
                            kCloverBlockReals);
  for (std::size_t b = 0; b < blocks.size(); b += kCloverBlockReals)
    for (int k = 0; k < kCloverBlockReals; ++k)
      blocks[b + static_cast<std::size_t>(k)] = static_cast<float>(
          (k < kCloverBlockDim ? 1 : 0) + 0.1 * rng.gaussian());
  return blocks;
}

TEST(SimdParity, CloverPairMatchesScalarToFmaTolerance) {
  // One site through the whole-domain kernel, checked against the
  // PackedHermitian6::apply definition in double.
  const auto blocks = random_clover_blocks(1, 61);
  for (const int lanes : {1, 4, 8, 19}) {
    const auto in = random_floats(24 * lanes, 62);
    std::vector<float> ref(static_cast<std::size_t>(24 * lanes));
    {
      ScopedBackend scope(Backend::kScalar);
      simd::kernels().clover_lanes(blocks.data(), 1, in.data(), ref.data(),
                                   lanes);
    }
    for (int chi = 0; chi < 2; ++chi) {
      PackedHermitian6<double> blk;
      const float* bf = blocks.data() + chi * kCloverBlockReals;
      for (int i = 0; i < kCloverBlockDim; ++i) blk.diag[i] = bf[i];
      for (int k = 0; k < kCloverOffDiag; ++k)
        blk.offd[k] = Complex<double>(bf[kCloverBlockDim + 2 * k],
                                      bf[kCloverBlockDim + 2 * k + 1]);
      for (int b = 0; b < lanes; ++b) {
        Complex<double> x[kCloverBlockDim], y[kCloverBlockDim];
        for (int i = 0; i < kCloverBlockDim; ++i)
          x[i] = Complex<double>(
              in[std::size_t((chi * 12 + 2 * i) * lanes + b)],
              in[std::size_t((chi * 12 + 2 * i + 1) * lanes + b)]);
        blk.apply(x, y);
        for (int i = 0; i < kCloverBlockDim; ++i) {
          EXPECT_NEAR(ref[std::size_t((chi * 12 + 2 * i) * lanes + b)],
                      y[i].real(), 1e-5)
              << "lanes " << lanes;
          EXPECT_NEAR(ref[std::size_t((chi * 12 + 2 * i + 1) * lanes + b)],
                      y[i].imag(), 1e-5)
              << "lanes " << lanes;
        }
      }
    }
    for (const Backend w : wide_backends()) {
      ScopedBackend scope(w);
      std::vector<float> got(ref.size(), -1.0f);
      simd::kernels().clover_lanes(blocks.data(), 1, in.data(), got.data(),
                                   lanes);
      EXPECT_LT(max_rel_diff(ref, got), 1e-6)
          << simd::to_string(w) << " lanes " << lanes;
    }
  }
}

// The lane-count rows of the whole-domain block-solve kernels: at every
// lane count, one included, lane b of a call equals a one-lane call on
// lane b's data in every backend; avx2 equals avx512 bitwise (the same
// per-lane FMA sequence, vectorized differently); scalar agrees to the
// FMA tolerance.
constexpr int kLaneRows[] = {1, 3, 4, 8, 16, 17, 31};

TEST(SimdParity, CloverLanesIsLaneIndependentAndWideBackendsAgreeBitwise) {
  const std::int32_t nsites = 5;
  const auto blocks = random_clover_blocks(nsites, 63);
  auto clover = [&](Backend b, const std::vector<float>& in, int lanes) {
    ScopedBackend scope(b);
    std::vector<float> out(in.size(), -1.0f);
    simd::kernels().clover_lanes(blocks.data(), nsites, in.data(), out.data(),
                                 lanes);
    return out;
  };
  for (const int lanes : kLaneRows) {
    const auto in = random_floats(
        static_cast<std::int64_t>(nsites) * kSpinorReals * lanes, 64 + lanes);
    const auto ref = clover(Backend::kScalar, in, lanes);
    std::vector<std::vector<float>> wide;
    for (const Backend w : wide_backends()) {
      wide.push_back(clover(w, in, lanes));
      EXPECT_LT(max_rel_diff(ref, wide.back()), 1e-6)
          << simd::to_string(w) << " lanes " << lanes;
    }
    if (wide.size() == 2) {
      EXPECT_TRUE(bitwise_equal(wide[0], wide[1])) << "lanes " << lanes;
    }
    for (const Backend w : simd::available_backends()) {
      const auto all = clover(w, in, lanes);
      for (int b = 0; b < lanes; ++b)
        EXPECT_TRUE(bitwise_equal(
            lane_of(all, kSpinorReals, lanes, b),
            clover(w, lane_of(in, kSpinorReals, lanes, b), 1)))
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
    }
  }
}

// The whole-domain boundary pack on a real 4^4 domain: every backend is
// bitwise equal to scalar at every lane count, lane b is bitwise equal to
// a one-lane call, and every lane matches a double-precision reference
// built from project / mul_adj. Lanes >= nrhs are padding: their buffers
// are never written, nor is the gap between one lane's faces and the
// next lane's buffer.
TEST(SimdParity, PackFacesLanesIsBitIdenticalAcrossBackends) {
  Geometry geom({8, 8, 8, 8});
  DomainPartition part(geom, {4, 4, 4, 4});
  const std::int32_t vd = part.domain_volume();
  const auto links = random_floats(
      static_cast<std::int64_t>(vd) * kNumDims * 18, 55);
  const std::span<const std::int32_t> face_sites = part.face_sites();
  const std::int32_t* face_size = part.face_sizes();
  const auto nface = static_cast<std::int64_t>(face_sites.size());
  const std::int64_t stride = 12 * nface + 7;  // per-lane buffer stride
  auto pack = [&](Backend b, const std::vector<float>& z, int lanes,
                  int nrhs) {
    ScopedBackend scope(b);
    std::vector<float> out(static_cast<std::size_t>(stride * lanes), -1.0f);
    simd::kernels().pack_faces_lanes(links.data(), face_sites.data(),
                                     face_size, z.data(), lanes, nrhs,
                                     out.data(), stride);
    return out;
  };
  // Relative 2-norm distance of one lane's packed faces `got` from their
  // definition in double: U_mu(l)^dagger times the upper two rows of
  // (1 + gamma_mu) z(l) on a forward face, the upper two rows of
  // (1 - gamma_mu) z(l) on a backward face. `z_b` is the lane's spinors.
  auto reference_diff = [&](const std::vector<float>& z_b, const float* got) {
    double diff2 = 0, ref2 = 0;
    std::size_t p = 0;
    for (int mu = 0; mu < kNumDims; ++mu)
      for (const bool fwd : {true, false})
        for (std::int32_t i = 0; i < face_size[mu]; ++i, ++p) {
          const std::int32_t l = face_sites[p];
          HalfSpinor<double> h =
              project(spinor_of(&z_b[std::size_t(l) * kSpinorReals]), mu,
                      fwd ? +1 : -1);
          if (fwd) h = mul_adj(link_of(links, l, mu), h);
          for (int sp = 0; sp < 2; ++sp)
            for (int c = 0; c < kNumColors; ++c) {
              const float* g = got + 12 * p + std::size_t(sp * 3 + c) * 2;
              diff2 += std::norm(h.s[sp].c[c] - Complex<double>(g[0], g[1]));
              ref2 += std::norm(h.s[sp].c[c]);
            }
        }
    return std::sqrt(diff2 / ref2);
  };
  for (const int lanes : kLaneRows)
    for (const int nrhs : {lanes, lanes > 1 ? lanes - 1 : 1}) {
      const auto z = random_floats(
          static_cast<std::int64_t>(vd) * kSpinorReals * lanes, 56 + lanes);
      const auto ref = pack(Backend::kScalar, z, lanes, nrhs);
      for (int b = 0; b < lanes; ++b) {
        const std::size_t written = b < nrhs ? std::size_t(12 * nface) : 0;
        for (std::size_t k = written; k < std::size_t(stride); ++k)
          ASSERT_EQ(ref[std::size_t(b * stride) + k], -1.0f)
              << "lanes " << lanes << " nrhs " << nrhs << " lane " << b;
        if (b < nrhs) {
          EXPECT_LE(reference_diff(lane_of(z, kSpinorReals, lanes, b),
                                   &ref[std::size_t(b * stride)]),
                    1e-6)
              << "lanes " << lanes << " nrhs " << nrhs << " lane " << b;
        }
      }
      for (const Backend w : wide_backends())
        EXPECT_TRUE(bitwise_equal(ref, pack(w, z, lanes, nrhs)))
            << simd::to_string(w) << " lanes " << lanes << " nrhs " << nrhs;
      for (const Backend w : simd::available_backends())
        for (int b = 0; b < nrhs; ++b) {
          const auto one = pack(w, lane_of(z, kSpinorReals, lanes, b), 1, 1);
          EXPECT_EQ(std::memcmp(one.data(), &ref[std::size_t(b * stride)],
                                sizeof(float) * std::size_t(12 * nface)),
                    0)
              << simd::to_string(w) << " lanes " << lanes << " lane " << b;
        }
    }
}

TEST(SimdParity, MrKernelsMatchScalarAndPreserveExactZeroLanes) {
  const int lanes = 8;
  const std::int64_t ncplx = 97;
  auto r = random_floats(2 * ncplx * lanes, 71);
  const auto ar0 = random_floats(2 * ncplx * lanes, 72);
  // Lane 5 exactly zero in Ar: its arar must come out exactly 0.0 in
  // every backend — that is what keeps SchwarzStats backend-invariant.
  auto ar = ar0;
  for (std::int64_t k = 0; k < 2 * ncplx; ++k)
    ar[static_cast<std::size_t>(k * lanes + 5)] = 0.0f;

  LaneMRState ref_st(lanes, lanes);
  std::vector<float> ref_z(r.size(), 0.0f), ref_r = r;
  {
    ScopedBackend scope(Backend::kScalar);
    lane_mr_dots(ref_r.data(), ar.data(), ncplx, lanes, ref_st);
    lane_mr_alphas(ref_st);
    lane_mr_axpy(ref_z.data(), ref_r.data(), ar.data(), ncplx, lanes,
                 ref_st);
  }
  EXPECT_EQ(ref_st.arar[5], 0.0);
  EXPECT_EQ(ref_st.active[5], 0);

  for (const Backend w : wide_backends()) {
    ScopedBackend scope(w);
    LaneMRState st(lanes, lanes);
    std::vector<float> z(r.size(), 0.0f), rr = r;
    lane_mr_dots(rr.data(), ar.data(), ncplx, lanes, st);
    EXPECT_EQ(st.arar[5], 0.0) << simd::to_string(w);
    for (int l = 0; l < lanes; ++l) {
      const auto ls = static_cast<std::size_t>(l);
      EXPECT_NEAR(st.arr_re[ls], ref_st.arr_re[ls],
                  1e-10 * std::abs(ref_st.arar[0]))
          << simd::to_string(w) << " lane " << l;
      EXPECT_NEAR(st.arar[ls], ref_st.arar[ls],
                  1e-10 * std::abs(ref_st.arar[0]))
          << simd::to_string(w) << " lane " << l;
    }
    EXPECT_EQ(lane_mr_alphas(st), ref_st.num_active()) << simd::to_string(w);
    lane_mr_axpy(z.data(), rr.data(), ar.data(), ncplx, lanes, st);
    EXPECT_LT(max_rel_diff(ref_z, z), 1e-6) << simd::to_string(w);
    EXPECT_LT(max_rel_diff(ref_r, rr), 1e-6) << simd::to_string(w);
    // The masked lane's z stays exactly zero and its r exactly frozen.
    for (std::int64_t k = 0; k < 2 * ncplx; ++k) {
      const auto i = static_cast<std::size_t>(k * lanes + 5);
      EXPECT_EQ(z[i], 0.0f) << simd::to_string(w);
      EXPECT_EQ(rr[i], r[i]) << simd::to_string(w);
    }
  }
}

TEST(SimdParity, MrKernelsAreLaneIndependentAndWideBackendsAgreeBitwise) {
  const std::int64_t ncplx = 97;
  struct Out {
    LaneMRState st;
    std::vector<float> z, r;
  };
  // Dots, alphas and the update on `lanes` lanes under backend b.
  auto run = [&](Backend b, const std::vector<float>& r0,
                 const std::vector<float>& ar, int lanes) {
    ScopedBackend scope(b);
    Out o{LaneMRState(lanes, lanes), std::vector<float>(r0.size(), 0.5f), r0};
    lane_mr_dots(o.r.data(), ar.data(), ncplx, lanes, o.st);
    lane_mr_alphas(o.st);
    lane_mr_axpy(o.z.data(), o.r.data(), ar.data(), ncplx, lanes, o.st);
    return o;
  };
  for (const int lanes : kLaneRows) {
    const auto r0 = random_floats(2 * ncplx * lanes, 73 + lanes);
    const auto ar = random_floats(2 * ncplx * lanes, 74 + lanes);
    const Out ref = run(Backend::kScalar, r0, ar, lanes);
    std::vector<Out> wide;
    for (const Backend w : wide_backends()) {
      wide.push_back(run(w, r0, ar, lanes));
      EXPECT_LT(max_rel_diff(ref.z, wide.back().z), 1e-6)
          << simd::to_string(w) << " lanes " << lanes;
      EXPECT_LT(max_rel_diff(ref.r, wide.back().r), 1e-6)
          << simd::to_string(w) << " lanes " << lanes;
    }
    if (wide.size() == 2) {
      EXPECT_EQ(wide[0].st.arr_re, wide[1].st.arr_re) << "lanes " << lanes;
      EXPECT_EQ(wide[0].st.arr_im, wide[1].st.arr_im) << "lanes " << lanes;
      EXPECT_EQ(wide[0].st.arar, wide[1].st.arar) << "lanes " << lanes;
      EXPECT_TRUE(bitwise_equal(wide[0].z, wide[1].z)) << "lanes " << lanes;
      EXPECT_TRUE(bitwise_equal(wide[0].r, wide[1].r)) << "lanes " << lanes;
    }
    for (const Backend w : simd::available_backends()) {
      const Out all = run(w, r0, ar, lanes);
      for (int b = 0; b < lanes; ++b) {
        const auto bs = static_cast<std::size_t>(b);
        const Out one = run(w, lane_of(r0, 2, lanes, b),
                            lane_of(ar, 2, lanes, b), 1);
        EXPECT_EQ(one.st.arr_re[0], all.st.arr_re[bs])
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
        EXPECT_EQ(one.st.arr_im[0], all.st.arr_im[bs])
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
        EXPECT_EQ(one.st.arar[0], all.st.arar[bs])
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
        EXPECT_TRUE(bitwise_equal(one.z, lane_of(all.z, 2, lanes, b)))
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
        EXPECT_TRUE(bitwise_equal(one.r, lane_of(all.r, 2, lanes, b)))
            << simd::to_string(w) << " lanes " << lanes << " lane " << b;
      }
    }
  }
}

}  // namespace
}  // namespace lqcd
