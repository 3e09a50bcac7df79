// BLAS-level-1 operations on fermion fields.
//
// These are the "BLAS-type linear algebra" lines of the paper's algorithm
// listing (Table I): axpy-like updates in the MR block solve and
// dot-products / Gram–Schmidt in the outer solver. Reductions accumulate
// in double regardless of the field precision — the outer solver relies
// on accurate residual norms.
#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "lqcd/base/per_thread.h"
#include "lqcd/linalg/fermion_field.h"

namespace lqcd {

template <class T>
void copy(const FermionField<T>& x, FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, x, y)
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i];
}

/// Precision-converting copy (e.g. double outer vector -> float
/// preconditioner input).
template <class TSrc, class TDst>
void convert(const FermionField<TSrc>& x, FermionField<TDst>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, x, y)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        y[i].s[sp].c[c] =
            Complex<TDst>(static_cast<TDst>(x[i].s[sp].c[c].real()),
                          static_cast<TDst>(x[i].s[sp].c[c].imag()));
}

/// y += a x.
template <class T>
void axpy(const Complex<T>& a, const FermionField<T>& x, FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, a, x, y)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        y[i].s[sp].c[c] += a * x[i].s[sp].c[c];
}

template <class T>
void axpy(T a, const FermionField<T>& x, FermionField<T>& y) {
  axpy(Complex<T>(a, 0), x, y);
}

/// y += sum_i a[i] x[i] over the a.size() leading fields of x: one axpy
/// pass per term, in index order, each coefficient narrowed to T, so y is
/// bit-identical to the sequence of axpy calls. With `skip_zero` a term
/// whose coefficient is exactly zero is left out; otherwise it still runs
/// and a NaN or Inf in its field reaches y.
template <class T>
void multi_axpy(const std::vector<std::complex<double>>& a,
                const std::vector<FermionField<T>>& x, FermionField<T>& y,
                bool skip_zero = false) {
  LQCD_CHECK(a.size() <= x.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!skip_zero || a[i] != std::complex<double>(0, 0))
      axpy(Complex<T>(a[i]), x[i], y);
}

/// x *= a.
template <class T>
void scal(const Complex<T>& a, FermionField<T>& x) {
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, a, x)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) x[i].s[sp].c[c] *= a;
}

template <class T>
void scal(T a, FermionField<T>& x) {
  scal(Complex<T>(a, 0), x);
}

// Global sums are deterministic: each thread sums its contiguous static
// block of sites into its own partial, and the partials are added in
// thread-index order. An OpenMP reduction clause would combine them in
// thread-arrival order, so two identical solves could differ in the last
// bits. At one thread this is the plain sequential sum.

/// <x|y> = sum_i conj(x_i) y_i, accumulated in double.
template <class T>
std::complex<double> dot(const FermionField<T>& x, const FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
  PerThread<std::complex<double>> partial;
#pragma omp parallel default(none) shared(n, x, y, partial)
  {
    double re = 0, im = 0;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c) {
          const auto& a = x[i].s[sp].c[c];
          const auto& b = y[i].s[sp].c[c];
          re += static_cast<double>(a.real()) * b.real() +
                static_cast<double>(a.imag()) * b.imag();
          im += static_cast<double>(a.real()) * b.imag() -
                static_cast<double>(a.imag()) * b.real();
        }
    }
    partial.local() = {re, im};
  }
  return partial.merged(std::complex<double>{});
}

/// ||x||^2, accumulated in double.
template <class T>
double norm2(const FermionField<T>& x) {
  const std::int64_t n = x.size();
  PerThread<double> partial;
#pragma omp parallel default(none) shared(n, x, partial)
  {
    double acc = 0;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) acc += norm2(x[i]);
    partial.local() = acc;
  }
  return partial.merged(0.0);
}

template <class T>
double norm(const FermionField<T>& x) {
  return std::sqrt(norm2(x));
}

/// True iff every component of x is finite (no NaN/Inf). The guard the
/// resilience layer runs on preconditioner outputs and residuals; one
/// streaming pass, cheap next to any operator application.
template <class T>
bool all_finite(const FermionField<T>& x) {
  const std::int64_t n = x.size();
  int bad = 0;
#pragma omp parallel for schedule(static) default(none) shared(n, x) \
    reduction(+ : bad)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        if (!std::isfinite(x[i].s[sp].c[c].real()) ||
            !std::isfinite(x[i].s[sp].c[c].imag()))
          ++bad;
      }
  return bad == 0;
}

/// z = x - y.
template <class T>
void sub(const FermionField<T>& x, const FermionField<T>& y,
         FermionField<T>& z) {
  LQCD_CHECK(x.size() == y.size() && y.size() == z.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) \
    shared(n, x, y, z)
  for (std::int64_t i = 0; i < n; ++i) z[i] = x[i] - y[i];
}

/// Fill with site-independent Gaussian noise (unit variance per real
/// component), deterministic in `seed`.
template <class T>
void gaussian(FermionField<T>& x, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        x[i].s[sp].c[c] = Complex<T>(static_cast<T>(rng.gaussian()),
                                     static_cast<T>(rng.gaussian()));
}

}  // namespace lqcd
