// Field-level BLAS: axpy/dot/norm semantics and double accumulation.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "lqcd/linalg/blas.h"

namespace lqcd {
namespace {

template <class T>
class BlasTest : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BlasTest, Precisions);

TYPED_TEST(BlasTest, DotOfGaussianWithItselfIsNorm2) {
  using T = TypeParam;
  FermionField<T> x(64);
  gaussian(x, 123);
  const auto d = dot(x, x);
  EXPECT_NEAR(d.real(), norm2(x), 1e-6 * d.real());
  EXPECT_NEAR(d.imag(), 0.0, 1e-6 * d.real());
}

TYPED_TEST(BlasTest, DotConjugateSymmetry) {
  using T = TypeParam;
  FermionField<T> x(32), y(32);
  gaussian(x, 1);
  gaussian(y, 2);
  const auto a = dot(x, y);
  const auto b = dot(y, x);
  EXPECT_NEAR(a.real(), b.real(), 1e-5);
  EXPECT_NEAR(a.imag(), -b.imag(), 1e-5);
}

TYPED_TEST(BlasTest, AxpyLinearity) {
  using T = TypeParam;
  FermionField<T> x(48), y(48), expect(48);
  gaussian(x, 3);
  gaussian(y, 4);
  copy(y, expect);
  const Complex<T> a(T(0.5), T(-1.25));
  axpy(a, x, y);
  for (std::int64_t i = 0; i < x.size(); ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        EXPECT_LT(std::abs(y[i].s[sp].c[c] -
                           (expect[i].s[sp].c[c] + a * x[i].s[sp].c[c])),
                  1e-5);
}

TYPED_TEST(BlasTest, ScalThenNorm) {
  using T = TypeParam;
  FermionField<T> x(40);
  gaussian(x, 5);
  const double n0 = norm2(x);
  scal(T(2), x);
  EXPECT_NEAR(norm2(x), 4.0 * n0, 1e-5 * n0);
}

TYPED_TEST(BlasTest, SubThenZero) {
  using T = TypeParam;
  FermionField<T> x(16), z(16);
  gaussian(x, 6);
  sub(x, x, z);
  EXPECT_EQ(norm2(z), 0.0);
}

TYPED_TEST(BlasTest, MultiAxpyMatchesSequentialAxpy) {
  // multi_axpy is one axpy pass per term in order, so it equals the
  // sequence of axpy calls bit for bit. Term 1 has a zero coefficient on
  // a field holding a NaN: skipped only with skip_zero, otherwise the
  // NaN reaches y as it would through axpy.
  using T = TypeParam;
  const std::int64_t n = 24;
  std::vector<FermionField<T>> x(4, FermionField<T>(n));
  for (std::size_t i = 0; i < x.size(); ++i) gaussian(x[i], 10 + i);
  x[1][3].s[2].c[1] = Complex<T>(std::numeric_limits<T>::quiet_NaN(), 0);
  const std::vector<std::complex<double>> a = {
      {-0.75, 0.3}, {0, 0}, {1.0 / 3.0, -2.5}};  // x[3] is not a term
  FermionField<T> y0(n);
  gaussian(y0, 9);
  for (const bool skip_zero : {false, true}) {
    SCOPED_TRACE(skip_zero ? "skip_zero" : "every term");
    FermionField<T> y(n), expect(n);
    copy(y0, y);
    copy(y0, expect);
    multi_axpy(a, x, y, skip_zero);
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!skip_zero || a[i] != std::complex<double>(0, 0))
        axpy(Complex<T>(a[i]), x[i], expect);
    EXPECT_EQ(std::memcmp(y.data(), expect.data(),
                          static_cast<std::size_t>(n) * sizeof(Spinor<T>)),
              0);
    EXPECT_EQ(all_finite(y), skip_zero);
  }
}

TEST(Blas, ConvertDoubleToFloatAndBack) {
  FermionField<double> x(20);
  gaussian(x, 9);
  FermionField<float> f(20);
  convert(x, f);
  FermionField<double> back(20);
  convert(f, back);
  for (std::int64_t i = 0; i < x.size(); ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        EXPECT_NEAR(std::abs(back[i].s[sp].c[c] - x[i].s[sp].c[c]), 0.0,
                    1e-6);
}

TEST(Blas, SizeMismatchThrows) {
  FermionField<float> x(8), y(9);
  EXPECT_THROW(axpy(1.0f, x, y), Error);
  EXPECT_THROW(dot(x, y), Error);
  FermionField<float> z(8);
  EXPECT_THROW(sub(x, y, z), Error);
}

TEST(Blas, GaussianIsDeterministicInSeed) {
  FermionField<double> a(32), b(32), c(32);
  gaussian(a, 1234);
  gaussian(b, 1234);
  gaussian(c, 1235);
  double same = 0, diff = 0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    same += norm2(a[i] - b[i]);
    diff += norm2(a[i] - c[i]);
  }
  EXPECT_EQ(same, 0.0);
  EXPECT_GT(diff, 1.0);
}

}  // namespace
}  // namespace lqcd
