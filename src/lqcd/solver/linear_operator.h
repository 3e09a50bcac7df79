// Solver-facing abstractions: linear operators, preconditioners, stats.
//
// Solvers are written against the abstract LinearOperator so the same
// Krylov code serves the full Wilson–Clover operator, the even–odd Schur
// operator, per-domain block operators, and synthetic test operators.
//
// SolverStats tracks what the paper's Table III reports: iteration counts,
// operator applications, and the number of *global reduction events* (a
// batched Gram–Schmidt of j inner products is ONE reduction on the
// network, which is how the paper arrives at ~2 global sums per outer
// iteration).
#pragma once

#include <cstdint>
#include <vector>

#include "lqcd/linalg/blas.h"
#include "lqcd/linalg/fermion_field.h"

namespace lqcd {

template <class T>
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// out = Op(in). `out` must be distinct from `in`.
  virtual void apply(const FermionField<T>& in, FermionField<T>& out) const = 0;

  /// Number of sites in the operator's vector space.
  virtual std::int64_t vector_size() const = 0;
};

/// Flexible preconditioner interface: apply() may be approximate and may
/// differ from call to call (iterative preconditioners), which is exactly
/// what flexible outer solvers tolerate. apply_batch() applies it to a
/// whole batch of vectors in one call (multi-RHS, paper Sec. VI); the
/// default runs one apply() per RHS, and implementations override it to
/// amortize matrix streaming over the batch.
template <class T>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const FermionField<T>& in, FermionField<T>& out) = 0;
  virtual void apply_batch(const std::vector<const FermionField<T>*>& in,
                           const std::vector<FermionField<T>*>& out) {
    for (std::size_t i = 0; i < in.size(); ++i) apply(*in[i], *out[i]);
  }
};

/// Why a solve terminated without reaching its tolerance. kNone for a
/// converged (or intentionally fixed-count) solve; anything else is a
/// structured replacement for the silent `break`s the Krylov kernels used
/// to take on numerical breakdown.
enum class Breakdown {
  kNone = 0,
  kRhoBreakdown,   ///< Lanczos/BiCG scalar hit exact zero (rho, omega, r0·v)
  kNanDetected,    ///< NaN/Inf in a residual norm or inner product
  kStagnation,      ///< no usable search direction / no residual decrease
  kMaxIterations,   ///< iteration budget exhausted
  kDataCorruption,  ///< ABFT: corrupt data with no verified repair source
  kStaleSetup,      ///< gauge field mutated after setup was packed; no solve ran
};

inline const char* to_string(Breakdown b) noexcept {
  switch (b) {
    case Breakdown::kNone: return "none";
    case Breakdown::kRhoBreakdown: return "rho_breakdown";
    case Breakdown::kNanDetected: return "nan_detected";
    case Breakdown::kStagnation: return "stagnation";
    case Breakdown::kMaxIterations: return "max_iterations";
    case Breakdown::kDataCorruption: return "data_corruption";
    case Breakdown::kStaleSetup: return "stale_setup";
  }
  return "?";
}

struct SolverStats {
  bool converged = false;
  int iterations = 0;          ///< outer/Krylov iterations
  std::int64_t matvecs = 0;    ///< operator applications
  std::int64_t precond_applications = 0;
  std::int64_t global_sum_events = 0;  ///< batched reductions
  double final_relative_residual = 0.0;
  std::vector<double> residual_history;  ///< relative residual per iteration
  Breakdown breakdown = Breakdown::kNone;  ///< why the solve ended, if failed
  int stagnation_restarts = 0;  ///< forced plain restarts (residual replaced)
  int rollback_restarts = 0;    ///< monitor-driven checkpoint rollbacks
  std::int64_t nonfinite_events = 0;  ///< NaN/Inf detections survived
  int recycle_projections = 0;  ///< initial residual projected onto a
                                ///< recycled deflation subspace (multi-RHS)

  bool operator==(const SolverStats&) const = default;
};

/// Cycle-granularity observer for restarted outer solvers. on_cycle() is
/// invoked each time the solver has just recomputed the TRUE residual of
/// the current iterate x, alongside the recursively maintained (projected)
/// estimate. The monitor may mutate x — e.g. roll it back to a checkpoint
/// when the two residuals diverge (silent data corruption) — and must then
/// return true, which forces the solver to recompute the residual and
/// restart from the modified iterate.
template <class T>
class SolveMonitor {
 public:
  virtual ~SolveMonitor() = default;
  virtual bool on_cycle(int iterations, double estimated_rel_residual,
                        double true_rel_residual, FermionField<T>& x) = 0;
};

/// Diagonal operator with a prescribed per-site spectrum — used by solver
/// unit tests to control conditioning and eigenvalue placement exactly.
template <class T>
class DiagonalOperator final : public LinearOperator<T> {
 public:
  explicit DiagonalOperator(std::vector<Complex<T>> site_eigenvalues)
      : diag_(std::move(site_eigenvalues)) {}

  void apply(const FermionField<T>& in, FermionField<T>& out) const override {
    LQCD_CHECK(in.size() == vector_size() && out.size() == vector_size());
    for (std::int64_t i = 0; i < in.size(); ++i) {
      const Complex<T> d = diag_[static_cast<std::size_t>(i)];
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          out[i].s[sp].c[c] = d * in[i].s[sp].c[c];
    }
  }

  std::int64_t vector_size() const override {
    return static_cast<std::int64_t>(diag_.size());
  }

 private:
  std::vector<Complex<T>> diag_;
};

}  // namespace lqcd
