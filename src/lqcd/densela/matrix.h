// Small dense complex matrices for the outer solver's projected problems.
//
// GMRES with deflated restarts needs QR least-squares on the (m+1)×m
// Hessenberg matrix and harmonic-Ritz eigenpairs of an m×m dense complex
// matrix, with m <= a few tens. Everything here is sized for that regime:
// straightforward O(n^3) algorithms, double-complex throughout, no
// blocking, no external dependencies.
#pragma once

#include <complex>
#include <vector>

#include "lqcd/base/error.h"

namespace lqcd::densela {

using Cplx = std::complex<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        a_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    LQCD_CHECK(rows >= 0 && cols >= 0);
  }

  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = Cplx(1, 0);
    return m;
  }

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }

  Cplx& operator()(int r, int c) noexcept {
    return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }
  const Cplx& operator()(int r, int c) const noexcept {
    return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }

  /// A copy of the leading rows x cols block.
  Matrix top_left(int rows, int cols) const {
    LQCD_CHECK(rows <= rows_ && cols <= cols_);
    Matrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) m(r, c) = (*this)(r, c);
    return m;
  }

  /// A copy of column c.
  std::vector<Cplx> column(int c) const {
    std::vector<Cplx> v(static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r)
      v[static_cast<std::size_t>(r)] = (*this)(r, c);
    return v;
  }

  Matrix transpose_conj() const {
    Matrix m(cols_, rows_);
    for (int r = 0; r < rows_; ++r)
      for (int c = 0; c < cols_; ++c) m(c, r) = std::conj((*this)(r, c));
    return m;
  }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<Cplx> a_;
};

// analyze-safe(parallel-reachability): the shape check asserts dimensions
// fixed at setup construction, never data computed inside a sweep.
inline Matrix mul(const Matrix& a, const Matrix& b) {
  LQCD_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      const Cplx aik = a(i, k);
      if (aik == Cplx(0, 0)) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  return c;
}

// analyze-safe(parallel-reachability): shape check on setup-time
// dimensions, as above.
inline std::vector<Cplx> mul(const Matrix& a, const std::vector<Cplx>& x) {
  LQCD_CHECK(a.cols() == static_cast<int>(x.size()));
  std::vector<Cplx> y(static_cast<std::size_t>(a.rows()));
  for (int i = 0; i < a.rows(); ++i) {
    Cplx acc(0, 0);
    for (int j = 0; j < a.cols(); ++j)
      acc += a(i, j) * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// Least squares: minimize ||b - A y|| for tall A (rows >= cols) via
/// Householder QR. Returns y of length A.cols(). A and b are copied.
std::vector<Cplx> least_squares(Matrix a, std::vector<Cplx> b);

/// Solve the square system A y = b via LU with partial pivoting.
std::vector<Cplx> solve(Matrix a, std::vector<Cplx> b);

/// Thin QR of a tall matrix: A (rows×cols) = Q (rows×cols) R (cols×cols),
/// Q with orthonormal columns. Rank deficiency tolerated (R may have tiny
/// diagonal entries; corresponding Q columns completed arbitrarily but
/// orthonormally).
void thin_qr(const Matrix& a, Matrix& q, Matrix& r);

/// Eigenpairs of a small dense complex matrix via Hessenberg reduction and
/// shifted QR with accumulated transforms. Returns eigenvalues and the
/// matching (right) eigenvectors as the columns of `vectors`.
struct EigResult {
  std::vector<Cplx> values;
  Matrix vectors;
};
EigResult eig(const Matrix& a);

}  // namespace lqcd::densela
