// Flexible GMRES with deflated restarts (FGMRES-DR).
//
// This is the paper's outer solver [Frommer, Nobile, Zingler,
// arXiv:1204.5463; Morgan's GMRES-DR]. Two properties matter here:
//
//  * FLEXIBLE: the preconditioner M may be approximate and vary between
//    iterations (the Schwarz preconditioner is an iterative process run in
//    reduced precision), so the preconditioned vectors Z_j = M(v_j) are
//    stored alongside the Krylov basis V.
//  * DEFLATED RESTARTS: at each restart the k harmonic Ritz vectors of
//    smallest magnitude are carried over, which recovers the convergence
//    lost by restarting for spectra with small eigenvalues (the low modes
//    of the Dirac operator near the physical point).
//
// With deflation_size = 0 this degenerates to plain restarted FGMRES,
// which doubles as the baseline in tests.
//
// The solve is implemented as a resumable per-right-hand-side engine
// (FgmresDrEngine): everything except the preconditioner application —
// matvecs, Gram–Schmidt, projected solves, restarts, harmonic Ritz
// extraction — runs inside advance(), and the engine pauses exactly at
// the points where it needs z_j = M(v_j). A driver that holds several
// engines can therefore batch the preconditioner applications of many
// right-hand sides into one multi-RHS Schwarz sweep (paper Sec. VI),
// while fgmres_dr_solve() below drives a single engine and reproduces
// the classic one-RHS solve bit for bit.
//
// The engine and fgmres_dr_solve() are compiled once, in fgmres_dr.cpp,
// for float and double.
#pragma once

#include "lqcd/densela/matrix.h"
#include "lqcd/solver/linear_operator.h"

namespace lqcd {

struct FGMRESDRParams {
  int basis_size = 16;      ///< m: maximum Krylov basis per cycle
  int deflation_size = 0;   ///< k: harmonic Ritz vectors kept at restart
  int max_iterations = 2000;  ///< total Arnoldi steps across cycles
  double tolerance = 1e-10;   ///< relative residual target
};

/// A cycle whose true residual fails to drop below kStagnationThreshold x
/// the previous cycle's counts as stagnant; after kMaxStagnantCycles
/// consecutive stagnant cycles the deflation subspace is discarded and the
/// solve restarts plain from the freshly recomputed true residual
/// (residual replacement). A healthy deflated solve reduces the residual
/// every cycle, so this never fires on the fault-free path.
/// kMaxStagnantCycles consecutive cycles whose every preconditioned
/// direction was NaN/Inf or zero end the solve with kNanDetected or
/// kStagnation.
inline constexpr double kStagnationThreshold = 0.999;
inline constexpr int kMaxStagnantCycles = 3;

/// Harmonic-Ritz deflation subspace harvested from a completed solve, for
/// recycling into subsequent solves against the SAME operator (e.g. the
/// 12 spin-color solves of a propagator). The stored relation is
/// A z_j = sum_i v_i h(i, j) with orthonormal v — exactly the carried
/// block of a deflated restart — so a new right-hand side can project its
/// initial residual onto the subspace (Galerkin correction through the
/// least-squares problem min ||V^H r - h y||) without any extra operator
/// applications.
template <class T>
struct DeflationSpace {
  std::vector<FermionField<T>> v;  ///< k+1 orthonormal basis vectors
  std::vector<FermionField<T>> z;  ///< k preconditioned directions
  densela::Matrix h;               ///< (k+1) x k projected Hessenberg

  bool valid() const noexcept {
    return !z.empty() && v.size() == z.size() + 1;
  }
  void clear() {
    v.clear();
    z.clear();
    h = densela::Matrix();
  }
};

/// One right-hand side's FGMRES-DR solve as an explicit state machine.
/// Usage:
///   FgmresDrEngine<T> e(op, b, x, params, monitor, recycle);
///   while (!e.done()) {
///     /* z = M v: */ precond.apply(e.precond_input(), e.precond_output());
///     e.note_precond_application();   // if a preconditioner ran
///     e.advance();
///   }
///   SolverStats stats = e.finish();
template <class T>
class FgmresDrEngine {
  using Cplx = densela::Cplx;
  using Matrix = densela::Matrix;

 public:
  /// Performs the initial residual computation (one matvec) and, when
  /// `recycle` holds a valid subspace, the recycled-deflation projection
  /// of the initial residual. `b`, `x`, `monitor` and `recycle` must
  /// outlive the engine.
  FgmresDrEngine(const LinearOperator<T>& op, const FermionField<T>& b,
                 FermionField<T>& x, const FGMRESDRParams& params,
                 SolveMonitor<T>* monitor = nullptr,
                 DeflationSpace<T>* recycle = nullptr);

  bool done() const noexcept { return done_; }

  /// The vector awaiting preconditioning (v_j). Only valid while !done().
  const FermionField<T>& precond_input() const noexcept {
    return v_[static_cast<std::size_t>(j_)];
  }
  /// Where M v_j must be written (z_j). Only valid while !done().
  FermionField<T>& precond_output() noexcept {
    return z_[static_cast<std::size_t>(j_)];
  }
  void note_precond_application() noexcept { ++stats_.precond_applications; }

  /// Consume z_j and run to the next preconditioner request (or to
  /// completion): matvec, orthogonalization, and — at cycle boundaries —
  /// the projected solve, true-residual check, and restart logic.
  void advance();

  /// Finalize: converged flag, breakdown classification, and — when a
  /// recycle space was supplied and a deflated subspace is live — the
  /// harvest of v[0..k], z[0..k-1] and the projected Hessenberg block.
  SolverStats finish();

 private:
  /// r = b - A x and its norm: one matvec and one global sum.
  void recompute_residual();
  /// True, with the solve ended as kNanDetected, when ||r|| is not finite.
  bool stop_on_nonfinite_residual();

  /// Galerkin-project the initial residual onto the recycled deflation
  /// subspace: y = argmin ||V^H r - H y||, x += Z y, r -= V H y. Since the
  /// recycled V is orthonormal and A Z = V H, this minimizes the true
  /// residual over x + span(Z); the update is only committed when the
  /// residual norm actually drops (floating-point guard).
  void project_recycled_subspace();

  /// After the first deflated restart, v[0..k], z[0..k-1] and the top-left
  /// (k+1) x k block of h stay the carried harmonic-Ritz space for the
  /// rest of the solve (Arnoldi only appends columns >= k), so the live
  /// subspace can be copied out at any termination point.
  void harvest_recycled_subspace();
  void restart_plain();
  /// Re-check the outer loop condition and, if another cycle runs, reset
  /// the per-cycle Arnoldi state. Pauses at the first preconditioner
  /// application of the cycle.
  void begin_cycle();
  void end_cycle();
  /// Deflated restart: harmonic Ritz vectors of the m x m Hessenberg.
  void deflated_restart(const std::vector<Cplx>& c_hat);

  const LinearOperator<T>* op_;
  const FermionField<T>* b_;
  FermionField<T>* x_;
  FGMRESDRParams params_;
  SolveMonitor<T>* monitor_;
  DeflationSpace<T>* recycle_;

  std::int64_t n_;
  int m_, k_;
  std::vector<FermionField<T>> v_, z_;
  FermionField<T> w_, r_;
  Matrix h_;
  std::vector<Cplx> c_;

  SolverStats stats_;
  double bnorm_ = 0, rnorm_ = 0, prev_cycle_rnorm_ = 0;
  int stagnant_cycles_ = 0;
  int degenerate_cycles_ = 0;  ///< consecutive cycles with no basis vector
  int j0_ = 0, j_ = 0, mcur_ = 0;
  bool defective_ = false;
  Breakdown defect_ = Breakdown::kNone;  ///< last degenerate column's cause
  bool deflation_live_ = false;
  bool done_ = false;
};

/// `monitor` (optional) is called at every cycle boundary with the
/// projected and true relative residuals; see SolveMonitor. Passing
/// nullptr reproduces the unmonitored solve bit-for-bit. `recycle`
/// (optional) supplies a deflation subspace from a previous solve against
/// the same operator (projected into the initial guess) and receives this
/// solve's harvested subspace on completion.
template <class T>
SolverStats fgmres_dr_solve(const LinearOperator<T>& op,
                            Preconditioner<T>* precond,
                            const FermionField<T>& b, FermionField<T>& x,
                            const FGMRESDRParams& params,
                            SolveMonitor<T>* monitor = nullptr,
                            DeflationSpace<T>* recycle = nullptr);

}  // namespace lqcd
