// IEEE binary16 conversion: exactness, rounding mode, special values.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lqcd/base/rng.h"
#include "lqcd/linalg/fp16.h"
#include "lqcd/simd/dispatch.h"

namespace lqcd {
namespace {

TEST(Fp16, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(half_round_trip(static_cast<float>(i)), static_cast<float>(i));
  }
}

TEST(Fp16, ExactPowersOfTwo) {
  for (int e = -14; e <= 15; ++e) {
    const float f = std::ldexp(1.0f, e);
    EXPECT_EQ(half_round_trip(f), f) << "2^" << e;
    EXPECT_EQ(half_round_trip(-f), -f);
  }
}

TEST(Fp16, KnownEncodings) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half(1.0f), 0x3c00);
  EXPECT_EQ(float_to_half(-1.0f), 0xbc00);
  EXPECT_EQ(float_to_half(2.0f), 0x4000);
  EXPECT_EQ(float_to_half(0.5f), 0x3800);
  EXPECT_EQ(float_to_half(65504.0f), 0x7bff);  // max finite half
  // Smallest positive normal and subnormal.
  EXPECT_EQ(float_to_half(std::ldexp(1.0f, -14)), 0x0400);
  EXPECT_EQ(float_to_half(std::ldexp(1.0f, -24)), 0x0001);
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
  // must round to even mantissa, i.e. down to 1.0.
  EXPECT_EQ(half_round_trip(1.0f + std::ldexp(1.0f, -11)), 1.0f);
  // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: rounds to even -> up.
  EXPECT_EQ(half_round_trip(1.0f + 3 * std::ldexp(1.0f, -11)),
            1.0f + std::ldexp(1.0f, -9));
  // Anything past the midpoint rounds up.
  EXPECT_EQ(half_round_trip(1.0f + std::ldexp(1.1f, -11)),
            1.0f + std::ldexp(1.0f, -10));
}

TEST(Fp16, OverflowSaturatesToInfinity) {
  EXPECT_TRUE(std::isinf(half_round_trip(1.0e6f)));
  EXPECT_TRUE(std::isinf(half_round_trip(-1.0e6f)));
  EXPECT_GT(half_round_trip(1.0e6f), 0.0f);
  EXPECT_LT(half_round_trip(-1.0e6f), 0.0f);
  // 65520 is the smallest float rounding to > max half: rounds to inf.
  EXPECT_TRUE(std::isinf(half_round_trip(65520.0f)));
  // 65519 rounds down to 65504.
  EXPECT_EQ(half_round_trip(65519.0f), 65504.0f);
}

TEST(Fp16, UnderflowFlushesToZeroBelowHalfSubnormal) {
  const float tiny = std::ldexp(1.0f, -26);  // below half of min subnormal
  EXPECT_EQ(half_round_trip(tiny), 0.0f);
  EXPECT_EQ(half_round_trip(-tiny), -0.0f);
  // Just above half of the min subnormal rounds up to it.
  EXPECT_EQ(half_round_trip(std::ldexp(1.2f, -25)), std::ldexp(1.0f, -24));
}

TEST(Fp16, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(half_round_trip(inf)));
  EXPECT_TRUE(std::isinf(half_round_trip(-inf)));
  EXPECT_TRUE(std::isnan(
      half_round_trip(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Fp16, RelativeErrorBoundForNormals) {
  // For values in the normal half range, relative error <= 2^-11.
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float mag = static_cast<float>(std::exp(rng.uniform(-8.0, 8.0)));
    const float f = (rng.uniform() < 0.5 ? -1.0f : 1.0f) * mag;
    const float r = half_round_trip(f);
    EXPECT_LE(std::abs(r - f), std::ldexp(std::abs(f), -11) * 1.0000001f)
        << "f=" << f;
  }
}

TEST(Fp16, HalfToFloatIsExactOnAllBitPatterns) {
  // Every finite half value must round-trip half->float->half exactly.
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const Half hh = static_cast<Half>(h);
    const float f = half_to_float(hh);
    if (std::isnan(f)) continue;  // NaN payloads may differ; skip
    EXPECT_EQ(float_to_half(f), hh) << "pattern 0x" << std::hex << h;
  }
}

TEST(Fp16, NanRoundTripStaysNan) {
  // Any NaN input must survive the half round-trip as a NaN (never become
  // a finite value or an infinity).
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float snan = std::numeric_limits<float>::signaling_NaN();
  EXPECT_TRUE(std::isnan(half_round_trip(qnan)));
  EXPECT_TRUE(std::isnan(half_round_trip(snan)));
  EXPECT_TRUE(std::isnan(half_round_trip(-qnan)));
  // The half encoding itself must be a half NaN (exponent all ones,
  // nonzero mantissa), not the infinity pattern.
  const Half h = float_to_half(qnan);
  EXPECT_EQ(h & 0x7c00, 0x7c00);
  EXPECT_NE(h & 0x03ff, 0);
}

TEST(Fp16, SubnormalRoundTripIsExact) {
  // Every half subnormal k * 2^-24, k = 1..1023, is exactly representable
  // in float and must round-trip unchanged through binary16 storage.
  for (int k = 1; k < 1024; ++k) {
    const float f = static_cast<float>(k) * std::ldexp(1.0f, -24);
    EXPECT_EQ(half_round_trip(f), f) << "k=" << k;
    EXPECT_EQ(half_round_trip(-f), -f) << "k=" << k;
  }
}

// The array conversions of the active dispatch backend.
TEST(Fp16, VectorConversion) {
  Rng rng(7);
  constexpr std::int64_t n = 1000;
  std::vector<float> src(n), back(n);
  std::vector<Half> mid(n);
  for (auto& v : src) v = static_cast<float>(rng.gaussian());
  simd::kernels().float_to_half_n(src.data(), mid.data(), n);
  simd::kernels().half_to_float_n(mid.data(), back.data(), n);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_EQ(back[static_cast<size_t>(i)],
              half_round_trip(src[static_cast<size_t>(i)]));
}

}  // namespace
}  // namespace lqcd
