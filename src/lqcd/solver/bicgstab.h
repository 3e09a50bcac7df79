// BiCGstab [van der Vorst 1992] — the workhorse of the paper's non-DD
// baseline solver (Table III lower blocks). Two operator applications and
// ~4 reduction events per iteration; no restart, no orthogonalization
// storage, but frequent global sums, which is exactly the strong-scaling
// weakness the DD method removes.
//
// One body serves every vector type. It is written over a vector space
// passed as a template parameter: a type with a `Vector` member type and
//   Vector vector()                         a new vector of the space
//   void apply(const Vector& in, Vector& out)         out = A in
//   std::complex<double> dot(const Vector&, const Vector&)   global sum
//   double norm2(const Vector&)                              global sum
//   void axpy(std::complex<double> a, const Vector& x, Vector& y)
//   void copy(const Vector& x, Vector& y)
//   void scal(std::complex<double> a, Vector& x)
//   void sub(const Vector& x, const Vector& y, Vector& z)    z = x - y
//   void zero(Vector& x)
// Each space rounds the double scalars to its own precision. The
// single-node space below holds a LinearOperator's fields; the
// distributed one (vnode/distributed_solver.h) loops over the ranks and
// sums over the proxy tree.
#pragma once

#include <cmath>
#include <complex>

#include "lqcd/solver/linear_operator.h"

namespace lqcd {

struct BiCGstabParams {
  int max_iterations = 5000;
  double tolerance = 1e-10;  ///< relative residual target
};

/// BiCGstab in `space`. `per_iteration(it, r)` runs once per iteration,
/// after the convergence test and before the first matvec, and may change
/// the recursive residual r; it returns true when it did, and the residual
/// norm is then recomputed.
template <class Space, class Hook>
SolverStats bicgstab_solve(Space& space, const typename Space::Vector& b,
                           typename Space::Vector& x,
                           const BiCGstabParams& params, Hook&& per_iteration) {
  SolverStats stats;
  auto r = space.vector(), r0 = space.vector(), p = space.vector(),
       v = space.vector(), s = space.vector(), t = space.vector();
  space.apply(x, r);
  ++stats.matvecs;
  space.sub(b, r, r);
  space.copy(r, r0);
  space.copy(r, p);

  const double bnorm = std::sqrt(space.norm2(b));
  ++stats.global_sum_events;
  if (bnorm == 0.0) {
    space.zero(x);
    stats.converged = true;
    return stats;
  }

  std::complex<double> rho = space.dot(r0, r);
  ++stats.global_sum_events;
  double rnorm = std::sqrt(std::abs(rho.real())) /* = ||r|| since r0=r */;

  for (int it = 0; it < params.max_iterations; ++it) {
    const double rel = rnorm / bnorm;
    stats.residual_history.push_back(rel);
    if (rel <= params.tolerance) {
      stats.converged = true;
      break;
    }
    if (per_iteration(it, r)) {
      rnorm = std::sqrt(space.norm2(r));
      ++stats.global_sum_events;
    }
    space.apply(p, v);
    ++stats.matvecs;
    const auto r0v = space.dot(r0, v);
    ++stats.global_sum_events;
    if (!std::isfinite(r0v.real()) || !std::isfinite(r0v.imag())) {
      ++stats.nonfinite_events;
      stats.breakdown = Breakdown::kNanDetected;
      break;
    }
    if (std::abs(r0v) == 0.0) {
      // <r0, A p> = 0: alpha undefined. The classic BiCG rho-breakdown;
      // report it instead of silently falling through to the tail check.
      stats.breakdown = Breakdown::kRhoBreakdown;
      break;
    }
    const std::complex<double> alpha = rho / r0v;
    // s = r - alpha v.
    space.copy(r, s);
    space.axpy(-alpha, v, s);
    space.apply(s, t);
    ++stats.matvecs;
    // omega = <t,s>/<t,t>; batched into one reduction.
    const auto ts = space.dot(t, s);
    const double tt = space.norm2(t);
    ++stats.global_sum_events;
    if (tt == 0.0) {
      // s is the exact correction direction's residual; finish with it.
      space.axpy(alpha, p, x);
      space.copy(s, r);
      rnorm = std::sqrt(space.norm2(r));
      ++stats.global_sum_events;
      ++stats.iterations;
      continue;
    }
    const std::complex<double> omega = ts / tt;
    // x += alpha p + omega s.
    space.axpy(alpha, p, x);
    space.axpy(omega, s, x);
    // r = s - omega t.
    space.copy(s, r);
    space.axpy(-omega, t, r);
    // rho_new = <r0, r>, plus ||r|| for convergence — one reduction.
    const auto rho_new = space.dot(r0, r);
    rnorm = std::sqrt(space.norm2(r));
    ++stats.global_sum_events;
    if (!std::isfinite(rnorm)) {
      ++stats.nonfinite_events;
      stats.breakdown = Breakdown::kNanDetected;
      break;
    }
    if (std::abs(rho_new) == 0.0 || std::abs(omega) == 0.0) {
      stats.breakdown = Breakdown::kRhoBreakdown;
      break;
    }
    const std::complex<double> beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    // p = r + beta (p - omega v).
    space.axpy(-omega, v, p);
    space.scal(beta, p);
    space.axpy(1.0, r, p);
    ++stats.iterations;
  }
  stats.final_relative_residual = rnorm / bnorm;
  if (stats.final_relative_residual <= params.tolerance)
    stats.converged = true;
  if (stats.converged)
    stats.breakdown = Breakdown::kNone;
  else if (stats.breakdown == Breakdown::kNone)
    stats.breakdown = Breakdown::kMaxIterations;
  return stats;
}

namespace detail {

/// The single-node space: the FermionFields of one LinearOperator.
template <class T>
class OperatorSpace {
 public:
  using Vector = FermionField<T>;

  explicit OperatorSpace(const LinearOperator<T>& op) : op_(&op) {}

  Vector vector() const { return Vector(op_->vector_size()); }
  void apply(const Vector& in, Vector& out) const { op_->apply(in, out); }
  std::complex<double> dot(const Vector& x, const Vector& y) const {
    return lqcd::dot(x, y);
  }
  double norm2(const Vector& x) const { return lqcd::norm2(x); }
  void axpy(std::complex<double> a, const Vector& x, Vector& y) const {
    lqcd::axpy(Complex<T>(a), x, y);
  }
  void copy(const Vector& x, Vector& y) const { lqcd::copy(x, y); }
  void scal(std::complex<double> a, Vector& x) const {
    lqcd::scal(Complex<T>(a), x);
  }
  void sub(const Vector& x, const Vector& y, Vector& z) const {
    lqcd::sub(x, y, z);
  }
  void zero(Vector& x) const { x.zero(); }

 private:
  const LinearOperator<T>* op_;
};

}  // namespace detail

template <class T>
SolverStats bicgstab_solve(const LinearOperator<T>& op,
                           const FermionField<T>& b, FermionField<T>& x,
                           const BiCGstabParams& params) {
  const std::int64_t n = op.vector_size();
  LQCD_CHECK(b.size() == n && x.size() == n);
  detail::OperatorSpace<T> space(op);
  return bicgstab_solve(space, b, x, params,
                        [](int, FermionField<T>&) { return false; });
}

}  // namespace lqcd
