// A complete Krylov solve across the virtual rank grid: distributed
// BiCGstab where every operator application performs the real halo
// exchange and every inner product performs a (counted) allreduce.
//
// This closes the functional multi-node loop: the distributed solve must
// produce the same iterates as the single-node solve, and its CommStats
// give the per-solve message/byte/reduction totals that Table III reports
// — measured, not modeled.
#pragma once

#include <cmath>

#include "lqcd/solver/bicgstab.h"
#include "lqcd/vnode/distributed.h"

namespace lqcd {

template <class T>
struct DistributedSolveResult {
  SolverStats stats;
  CommStats comm;  ///< halo traffic + allreduce count of the whole solve
};

/// BiCGstab on the distributed operator. Mirrors bicgstab_solve()
/// step for step, including how it reports why it stopped: a zero
/// <r0, v>, rho or omega is kRhoBreakdown, a non-finite <r0, v> or
/// residual norm kNanDetected, an exhausted budget kMaxIterations. Inner
/// products go through the counted distributed dot, and every global
/// reduction — the dots, the norms, and the BiCGstab `tt = |t|^2` sum —
/// runs over the fault-tolerant proxy tree
/// (bit-identical to the trivial sums when no faults fire; a collective
/// that cannot complete throws a structured Error for the
/// checkpoint/rollback path). `iterate_injector` optionally corrupts the
/// recursive residual once per its schedule
/// (FaultSite::kDistributedSolver), modelling SDC inside the distributed
/// solve.
template <class T>
DistributedSolveResult<T> distributed_bicgstab(
    const VirtualGrid& grid, DistributedWilsonClover<T>& op,
    const DistributedField<T>& b, DistributedField<T>& x,
    const BiCGstabParams& params, const CollectiveConfig& collectives = {},
    FaultInjector* iterate_injector = nullptr) {
  DistributedSolveResult<T> res;
  SolverStats& stats = res.stats;
  CommStats& comm = res.comm;
  op.reset_comm();

  const int nr = grid.num_ranks();
  DistributedField<T> r(grid), r0(grid), p(grid), v(grid), s(grid),
      t(grid);

  auto dist_axpy = [&](const std::complex<double>& a,
                       const DistributedField<T>& xx,
                       DistributedField<T>& yy) {
    const Complex<T> ac(static_cast<T>(a.real()), static_cast<T>(a.imag()));
    for (int rr = 0; rr < nr; ++rr) axpy(ac, xx.rank(rr), yy.rank(rr));
  };
  auto dist_copy = [&](const DistributedField<T>& src,
                       DistributedField<T>& dst) {
    for (int rr = 0; rr < nr; ++rr) copy(src.rank(rr), dst.rank(rr));
  };
  auto dist_sum = [&](const std::vector<double>& parts) {
    const auto red = tree_allreduce(parts, comm, collectives);
    LQCD_CHECK_MSG(red.status == CollectiveStatus::kOk,
                   "distributed bicgstab: collective failed ("
                       << to_string(red.status)
                       << "); escalate to checkpoint/rollback");
    return red.value;
  };
  std::vector<double> parts(static_cast<std::size_t>(nr));
  auto dist_norm = [&](const DistributedField<T>& f) {
    for (int rr = 0; rr < nr; ++rr)
      parts[static_cast<std::size_t>(rr)] = norm2(f.rank(rr));
    return std::sqrt(dist_sum(parts));
  };

  op.apply(x, r);
  ++stats.matvecs;
  for (int rr = 0; rr < nr; ++rr) sub(b.rank(rr), r.rank(rr), r.rank(rr));
  dist_copy(r, r0);
  dist_copy(r, p);

  const double bnorm = dist_norm(b);
  if (bnorm == 0.0) {
    for (int rr = 0; rr < nr; ++rr) x.rank(rr).zero();
    stats.converged = true;
    return res;
  }
  std::complex<double> rho = dot(grid, r0, r, comm, collectives);
  double rnorm = dist_norm(r);

  for (int it = 0; it < params.max_iterations; ++it) {
    stats.residual_history.push_back(rnorm / bnorm);
    if (rnorm / bnorm <= params.tolerance) {
      stats.converged = true;
      break;
    }
    if (iterate_injector != nullptr &&
        iterate_injector->maybe_corrupt(r.rank(it % nr),
                                        FaultSite::kDistributedSolver))
      rnorm = dist_norm(r);
    op.apply(p, v);
    ++stats.matvecs;
    const auto r0v = dot(grid, r0, v, comm, collectives);
    if (!std::isfinite(r0v.real()) || !std::isfinite(r0v.imag())) {
      ++stats.nonfinite_events;
      stats.breakdown = Breakdown::kNanDetected;
      break;
    }
    if (std::abs(r0v) == 0.0) {
      stats.breakdown = Breakdown::kRhoBreakdown;
      break;
    }
    const std::complex<double> alpha = rho / r0v;
    dist_copy(r, s);
    dist_axpy(-alpha, v, s);
    op.apply(s, t);
    ++stats.matvecs;
    const auto ts = dot(grid, t, s, comm, collectives);
    for (int rr = 0; rr < nr; ++rr)
      parts[static_cast<std::size_t>(rr)] = norm2(t.rank(rr));
    const double tt = dist_sum(parts);
    if (tt == 0.0) {
      dist_axpy(alpha, p, x);
      dist_copy(s, r);
      rnorm = dist_norm(r);
      ++stats.iterations;
      continue;
    }
    const std::complex<double> omega = ts / tt;
    dist_axpy(alpha, p, x);
    dist_axpy(omega, s, x);
    dist_copy(s, r);
    dist_axpy(-omega, t, r);
    const auto rho_new = dot(grid, r0, r, comm, collectives);
    rnorm = dist_norm(r);
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
    dist_axpy(-omega, v, p);
    for (int rr = 0; rr < nr; ++rr)
      scal(Complex<T>(static_cast<T>(beta.real()),
                      static_cast<T>(beta.imag())),
           p.rank(rr));
    dist_axpy(std::complex<double>(1, 0), r, p);
    ++stats.iterations;
  }
  stats.final_relative_residual = rnorm / bnorm;
  if (stats.final_relative_residual <= params.tolerance)
    stats.converged = true;
  if (stats.converged)
    stats.breakdown = Breakdown::kNone;
  else if (stats.breakdown == Breakdown::kNone)
    stats.breakdown = Breakdown::kMaxIterations;
  comm.messages += op.comm().messages;
  comm.bytes += op.comm().bytes;
  return res;
}

}  // namespace lqcd
