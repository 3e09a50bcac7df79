// A complete Krylov solve across the virtual rank grid: distributed
// BiCGstab where every operator application performs the real halo
// exchange and every inner product performs a (counted) allreduce.
//
// This closes the functional multi-node loop: the distributed solve must
// produce the same iterates as the single-node solve, and its CommStats
// give the per-solve message/byte/reduction totals that Table III reports
// — measured, not modeled.
#pragma once

#include <complex>
#include <vector>

#include "lqcd/solver/bicgstab.h"
#include "lqcd/vnode/distributed.h"

namespace lqcd {

template <class T>
struct DistributedSolveResult {
  SolverStats stats;
  CommStats comm;  ///< halo traffic + allreduce count of the whole solve
};

/// The vector space of a distributed solve, for bicgstab_solve(): the
/// vector operations run rank by rank, and every global sum — dots and
/// norms — runs over the fault-tolerant proxy tree (bit-identical to the
/// trivial sums when no faults fire; a collective that cannot complete
/// throws a structured Error for the checkpoint/rollback path).
template <class T>
class DistributedSpace {
 public:
  using Vector = DistributedField<T>;

  DistributedSpace(const VirtualGrid& grid, DistributedWilsonClover<T>& op,
                   CommStats& comm, const CollectiveConfig& collectives)
      : grid_(&grid),
        op_(&op),
        comm_(&comm),
        collectives_(collectives),
        parts_(static_cast<std::size_t>(grid.num_ranks())) {}

  Vector vector() const { return Vector(*grid_); }
  void apply(const Vector& in, Vector& out) { op_->apply(in, out); }
  std::complex<double> dot(const Vector& x, const Vector& y) {
    return lqcd::dot(*grid_, x, y, *comm_, collectives_);
  }
  double norm2(const Vector& x) {
    for (int r = 0; r < ranks(); ++r)
      parts_[static_cast<std::size_t>(r)] = lqcd::norm2(x.rank(r));
    const auto red = tree_allreduce(parts_, *comm_, collectives_);
    LQCD_CHECK_MSG(red.status == CollectiveStatus::kOk,
                   "distributed bicgstab: collective failed ("
                       << to_string(red.status)
                       << "); escalate to checkpoint/rollback");
    return red.value;
  }
  void axpy(std::complex<double> a, const Vector& x, Vector& y) const {
    for (int r = 0; r < ranks(); ++r)
      lqcd::axpy(Complex<T>(a), x.rank(r), y.rank(r));
  }
  void copy(const Vector& x, Vector& y) const {
    for (int r = 0; r < ranks(); ++r) lqcd::copy(x.rank(r), y.rank(r));
  }
  void scal(std::complex<double> a, Vector& x) const {
    for (int r = 0; r < ranks(); ++r) lqcd::scal(Complex<T>(a), x.rank(r));
  }
  void sub(const Vector& x, const Vector& y, Vector& z) const {
    for (int r = 0; r < ranks(); ++r)
      lqcd::sub(x.rank(r), y.rank(r), z.rank(r));
  }
  void zero(Vector& x) const {
    for (int r = 0; r < ranks(); ++r) x.rank(r).zero();
  }

 private:
  int ranks() const noexcept { return grid_->num_ranks(); }

  const VirtualGrid* grid_;
  DistributedWilsonClover<T>* op_;
  CommStats* comm_;
  CollectiveConfig collectives_;
  std::vector<double> parts_;
};

/// bicgstab_solve() on the distributed operator: the same iterates, stop
/// reasons and SolverStats as the single-node solve. `iterate_injector`
/// optionally corrupts the recursive residual once per its schedule
/// (FaultSite::kDistributedSolver, on rank it % num_ranks), modelling SDC
/// inside the distributed solve.
template <class T>
DistributedSolveResult<T> distributed_bicgstab(
    const VirtualGrid& grid, DistributedWilsonClover<T>& op,
    const DistributedField<T>& b, DistributedField<T>& x,
    const BiCGstabParams& params, const CollectiveConfig& collectives = {},
    FaultInjector* iterate_injector = nullptr) {
  DistributedSolveResult<T> res;
  op.reset_comm();
  DistributedSpace<T> space(grid, op, res.comm, collectives);
  res.stats = bicgstab_solve(
      space, b, x, params, [&](int it, DistributedField<T>& r) {
        return iterate_injector != nullptr &&
               iterate_injector->maybe_corrupt(
                   r.rank(it % grid.num_ranks()),
                   FaultSite::kDistributedSolver);
      });
  res.comm += op.comm();
  return res;
}

}  // namespace lqcd
