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
#pragma once

#include <algorithm>
#include <numeric>

#include "lqcd/densela/matrix.h"
#include "lqcd/solver/linear_operator.h"

namespace lqcd {

struct FGMRESDRParams {
  int basis_size = 16;      ///< m: maximum Krylov basis per cycle
  int deflation_size = 0;   ///< k: harmonic Ritz vectors kept at restart
  int max_iterations = 2000;  ///< total Arnoldi steps across cycles
  double tolerance = 1e-10;   ///< relative residual target
  /// A cycle whose true residual fails to drop below
  /// stagnation_threshold x the previous cycle's counts as stagnant;
  /// after max_stagnant_cycles consecutive stagnant cycles the deflation
  /// subspace is discarded and the solve restarts plain from the freshly
  /// recomputed true residual (residual replacement). A healthy deflated
  /// solve reduces the residual every cycle, so this never fires on the
  /// fault-free path. max_stagnant_cycles consecutive cycles whose every
  /// preconditioned direction was NaN/Inf or zero end the solve with
  /// kNanDetected or kStagnation.
  double stagnation_threshold = 0.999;
  int max_stagnant_cycles = 3;
};

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
                 DeflationSpace<T>* recycle = nullptr)
      : op_(&op),
        b_(&b),
        x_(&x),
        params_(params),
        monitor_(monitor),
        recycle_(recycle),
        n_(op.vector_size()),
        m_(params.basis_size),
        k_(params.deflation_size) {
    LQCD_CHECK(b.size() == n_ && x.size() == n_);
    LQCD_CHECK_MSG(m_ >= 1, "basis size must be positive");
    LQCD_CHECK_MSG(k_ >= 0 && k_ < m_,
                   "need 0 <= deflation_size < basis_size");

    v_.resize(static_cast<std::size_t>(m_ + 1));
    z_.resize(static_cast<std::size_t>(m_));
    for (auto& f : v_) f = FermionField<T>(n_);
    for (auto& f : z_) f = FermionField<T>(n_);
    w_ = FermionField<T>(n_);
    r_ = FermionField<T>(n_);
    h_ = Matrix(m_ + 1, m_);
    c_.resize(static_cast<std::size_t>(m_ + 1));

    bnorm_ = norm(b);
    ++stats_.global_sum_events;
    if (bnorm_ == 0.0) {
      x.zero();
      stats_.converged = true;
      early_exit_ = true;
      done_ = true;
      return;
    }

    op.apply(x, r_);
    ++stats_.matvecs;
    sub(b, r_, r_);
    rnorm_ = norm(r_);
    ++stats_.global_sum_events;
    if (!std::isfinite(rnorm_)) {
      ++stats_.nonfinite_events;
      stats_.breakdown = Breakdown::kNanDetected;
      stats_.final_relative_residual = rnorm_ / bnorm_;
      early_exit_ = true;
      done_ = true;
      return;
    }

    project_recycled_subspace();

    restart_plain();
    prev_cycle_rnorm_ = rnorm_;
    begin_cycle();
  }

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

  const SolverStats& stats() const noexcept { return stats_; }

  /// Consume z_j and run to the next preconditioner request (or to
  /// completion): matvec, orthogonalization, and — at cycle boundaries —
  /// the projected solve, true-residual check, and restart logic.
  void advance() {
    LQCD_CHECK_MSG(!done_, "advance() called on a finished solve");
    auto& w = w_;
    const int j = j_;
    op_->apply(z_[static_cast<std::size_t>(j)], w);
    ++stats_.matvecs;
    // Classical Gram-Schmidt: all j+1 inner products batch into a single
    // global reduction.
    for (int i = 0; i <= j; ++i) {
      const auto d = dot(v_[static_cast<std::size_t>(i)], w);
      h_(i, j) = d;
    }
    ++stats_.global_sum_events;
    for (int i = 0; i <= j; ++i) {
      const Cplx hij = h_(i, j);
      axpy(Complex<T>(static_cast<T>(-hij.real()),
                      static_cast<T>(-hij.imag())),
           v_[static_cast<std::size_t>(i)], w);
    }
    const double wnorm = norm(w);
    ++stats_.global_sum_events;
    mcur_ = j + 1;
    ++stats_.iterations;
    if (!std::isfinite(wnorm)) {
      // NaN/Inf entered the basis (corrupted operator or preconditioner
      // output). x is only updated at cycle end, so it is still clean:
      // drop the poisoned column and rebuild from the true residual.
      ++stats_.nonfinite_events;
      mcur_ = j;
      defective_ = true;
      defect_ = Breakdown::kNanDetected;
      end_cycle();
      return;
    }
    if (wnorm < 1e-300) {
      // Either the Krylov space is exhausted at the solution (happy
      // breakdown: w collapsed under orthogonalization, the h column is
      // nonzero) or the preconditioner returned a degenerate direction
      // (w was ~0 to begin with, the h column is exactly zero and the
      // projected least-squares would be rank-deficient). Only the
      // latter needs the column excluded and a restart.
      bool zero_column = true;
      for (int i = 0; i <= j; ++i)
        if (h_(i, j) != Cplx(0, 0)) {
          zero_column = false;
          break;
        }
      if (zero_column) {
        mcur_ = j;
        defective_ = true;
        defect_ = Breakdown::kStagnation;
      }
      end_cycle();
      return;
    }
    h_(j + 1, j) = Cplx(wnorm, 0);
    copy(w, v_[static_cast<std::size_t>(j + 1)]);
    scal(static_cast<T>(1.0 / wnorm), v_[static_cast<std::size_t>(j + 1)]);

    // Cheap residual estimate from the projected least-squares problem.
    Matrix hj(j + 2, j + 1);
    for (int rr2 = 0; rr2 < j + 2; ++rr2)
      for (int cc = 0; cc < j + 1; ++cc) hj(rr2, cc) = h_(rr2, cc);
    std::vector<Cplx> cj(c_.begin(), c_.begin() + j + 2);
    const auto y = densela::least_squares(hj, cj);
    const auto hy = densela::mul(hj, y);
    double est2 = 0;
    for (int i2 = 0; i2 < j + 2; ++i2)
      est2 += std::norm(cj[static_cast<std::size_t>(i2)] -
                        hy[static_cast<std::size_t>(i2)]);
    const double est = std::sqrt(est2);
    stats_.residual_history.push_back(est / bnorm_);
    if (est / bnorm_ <= params_.tolerance) {
      end_cycle();
      return;
    }
    ++j_;
    if (j_ < m_ && stats_.iterations < params_.max_iterations)
      return;  // pause for the next preconditioner application
    end_cycle();
  }

  /// Finalize: converged flag, breakdown classification, and — when a
  /// recycle space was supplied and a deflated subspace is live — the
  /// harvest of v[0..k], z[0..k-1] and the projected Hessenberg block.
  SolverStats finish() {
    if (early_exit_) return stats_;
    stats_.final_relative_residual = rnorm_ / bnorm_;
    stats_.converged = stats_.final_relative_residual <= params_.tolerance;
    if (stats_.converged)
      stats_.breakdown = Breakdown::kNone;
    else if (stats_.breakdown == Breakdown::kNone)
      stats_.breakdown = Breakdown::kMaxIterations;
    harvest_recycled_subspace();
    return stats_;
  }

 private:
  /// Galerkin-project the initial residual onto the recycled deflation
  /// subspace: y = argmin ||V^H r - H y||, x += Z y, r -= V H y. Since the
  /// recycled V is orthonormal and A Z = V H, this minimizes the true
  /// residual over x + span(Z); the update is only committed when the
  /// residual norm actually drops (floating-point guard).
  void project_recycled_subspace() {
    if (recycle_ == nullptr || !recycle_->valid()) return;
    if (recycle_->v.front().size() != n_) return;
    const int kr = static_cast<int>(recycle_->z.size());
    if (recycle_->h.rows() != kr + 1 || recycle_->h.cols() != kr) return;

    std::vector<Cplx> cr(static_cast<std::size_t>(kr + 1));
    for (int i = 0; i <= kr; ++i)
      cr[static_cast<std::size_t>(i)] =
          dot(recycle_->v[static_cast<std::size_t>(i)], r_);
    ++stats_.global_sum_events;
    const auto y = densela::least_squares(recycle_->h, cr);
    const auto hy = densela::mul(recycle_->h, y);
    FermionField<T> rc(n_);
    copy(r_, rc);
    for (int i = 0; i <= kr; ++i) {
      const Cplx hyi = hy[static_cast<std::size_t>(i)];
      if (hyi == Cplx(0, 0)) continue;
      axpy(Complex<T>(static_cast<T>(-hyi.real()),
                      static_cast<T>(-hyi.imag())),
           recycle_->v[static_cast<std::size_t>(i)], rc);
    }
    const double rn = norm(rc);
    ++stats_.global_sum_events;
    if (!std::isfinite(rn) || rn >= rnorm_) return;  // projection not useful
    for (int jj = 0; jj < kr; ++jj) {
      const Cplx yj = y[static_cast<std::size_t>(jj)];
      axpy(Complex<T>(static_cast<T>(yj.real()),
                      static_cast<T>(yj.imag())),
           recycle_->z[static_cast<std::size_t>(jj)], *x_);
    }
    std::swap(r_, rc);
    rnorm_ = rn;
    ++stats_.recycle_projections;
  }

  /// After the first deflated restart, v[0..k], z[0..k-1] and the top-left
  /// (k+1) x k block of h stay the carried harmonic-Ritz space for the
  /// rest of the solve (Arnoldi only appends columns >= k), so the live
  /// subspace can be copied out at any termination point.
  void harvest_recycled_subspace() {
    if (recycle_ == nullptr || !deflation_live_ || k_ <= 0) return;
    recycle_->v.resize(static_cast<std::size_t>(k_ + 1));
    recycle_->z.resize(static_cast<std::size_t>(k_));
    for (int i = 0; i <= k_; ++i)
      recycle_->v[static_cast<std::size_t>(i)] =
          v_[static_cast<std::size_t>(i)];
    for (int jj = 0; jj < k_; ++jj)
      recycle_->z[static_cast<std::size_t>(jj)] =
          z_[static_cast<std::size_t>(jj)];
    recycle_->h = Matrix(k_ + 1, k_);
    for (int i = 0; i <= k_; ++i)
      for (int jj = 0; jj < k_; ++jj) recycle_->h(i, jj) = h_(i, jj);
  }

  void restart_plain() {
    h_ = Matrix(m_ + 1, m_);
    std::fill(c_.begin(), c_.end(), Cplx(0, 0));
    c_[0] = Cplx(rnorm_, 0);
    copy(r_, v_[0]);
    scal(static_cast<T>(1.0 / rnorm_), v_[0]);
    j0_ = 0;
    deflation_live_ = false;
  }

  /// Re-check the outer loop condition and, if another cycle runs, reset
  /// the per-cycle Arnoldi state. Pauses at the first preconditioner
  /// application of the cycle.
  void begin_cycle() {
    if (stats_.iterations >= params_.max_iterations ||
        rnorm_ / bnorm_ <= params_.tolerance) {
      done_ = true;
      return;
    }
    j_ = j0_;
    mcur_ = j0_;
    defective_ = false;
  }

  void end_cycle() {
    if (mcur_ == 0) {
      if (!defective_) {  // could not build any basis vector
        done_ = true;
        return;
      }
      // Every direction this cycle was degenerate. After
      // max_stagnant_cycles such cycles in a row the preconditioner is
      // taken to never return a usable direction: end the solve, naming
      // the last column's defect. Until then, residual replacement:
      // discard the subspace and restart plain from the current true
      // residual (x is unchanged, r/rnorm are still current).
      if (++degenerate_cycles_ >= params_.max_stagnant_cycles) {
        stats_.breakdown = defect_;
        done_ = true;
        return;
      }
      ++stats_.stagnation_restarts;
      restart_plain();
      begin_cycle();
      return;
    }
    degenerate_cycles_ = 0;

    // ---- Projected solve and solution update ------------------------
    const int mcur = mcur_;
    Matrix hj(mcur + 1, mcur);
    for (int rr2 = 0; rr2 < mcur + 1; ++rr2)
      for (int cc = 0; cc < mcur; ++cc) hj(rr2, cc) = h_(rr2, cc);
    std::vector<Cplx> cj(c_.begin(), c_.begin() + mcur + 1);
    const auto y = densela::least_squares(hj, cj);
    for (int j = 0; j < mcur; ++j)
      axpy(Complex<T>(static_cast<T>(y[static_cast<std::size_t>(j)].real()),
                      static_cast<T>(y[static_cast<std::size_t>(j)].imag())),
           z_[static_cast<std::size_t>(j)], *x_);
    // Residual coordinates c_hat = c - H y in the V basis.
    const auto hy = densela::mul(hj, y);
    std::vector<Cplx> c_hat(static_cast<std::size_t>(mcur + 1));
    for (int i = 0; i < mcur + 1; ++i)
      c_hat[static_cast<std::size_t>(i)] =
          cj[static_cast<std::size_t>(i)] - hy[static_cast<std::size_t>(i)];

    // Projected (recursive) residual estimate at the cycle boundary —
    // what the Arnoldi recursion believes ||b - A x|| is.
    double chat2 = 0;
    for (int i = 0; i < mcur + 1; ++i)
      chat2 += std::norm(c_hat[static_cast<std::size_t>(i)]);
    const double est_rel = std::sqrt(chat2) / bnorm_;

    // True residual (recomputed; also what a production code does each
    // cycle to guard against drift of the projected estimate).
    op_->apply(*x_, r_);
    ++stats_.matvecs;
    sub(*b_, r_, r_);
    rnorm_ = norm(r_);
    ++stats_.global_sum_events;
    if (monitor_ != nullptr &&
        monitor_->on_cycle(stats_.iterations, est_rel, rnorm_ / bnorm_,
                           *x_)) {
      // The monitor changed x (checkpoint rollback after detecting that
      // the recursive and true residuals diverged): recompute the
      // residual of the restored iterate and restart clean from it.
      ++stats_.rollback_restarts;
      op_->apply(*x_, r_);
      ++stats_.matvecs;
      sub(*b_, r_, r_);
      rnorm_ = norm(r_);
      ++stats_.global_sum_events;
      if (!std::isfinite(rnorm_)) {
        ++stats_.nonfinite_events;
        stats_.breakdown = Breakdown::kNanDetected;
        done_ = true;
        return;
      }
      restart_plain();
      prev_cycle_rnorm_ = rnorm_;
      stagnant_cycles_ = 0;
      begin_cycle();
      return;
    }
    if (!std::isfinite(rnorm_)) {
      ++stats_.nonfinite_events;
      stats_.breakdown = Breakdown::kNanDetected;
      done_ = true;
      return;
    }
    if (rnorm_ / bnorm_ <= params_.tolerance) {
      done_ = true;
      return;
    }

    // Restart-on-stagnation: consecutive cycles without real progress
    // mean the carried subspace is poisoned (or useless); fall back to a
    // plain restart, replacing the recursive residual with the true one.
    bool force_plain = defective_;
    if (rnorm_ > params_.stagnation_threshold * prev_cycle_rnorm_) {
      if (++stagnant_cycles_ >= params_.max_stagnant_cycles)
        force_plain = true;
    } else {
      stagnant_cycles_ = 0;
    }
    prev_cycle_rnorm_ = rnorm_;

    // ---- Restart ------------------------------------------------------
    if (force_plain) {
      ++stats_.stagnation_restarts;
      stagnant_cycles_ = 0;
      restart_plain();
      begin_cycle();
      return;
    }
    if (k_ == 0 || mcur < m_) {
      restart_plain();
      begin_cycle();
      return;
    }

    deflated_restart(c_hat);
    begin_cycle();
  }

  /// Deflated restart: harmonic Ritz vectors of the m x m Hessenberg.
  void deflated_restart(const std::vector<Cplx>& c_hat) {
    const int m = m_;
    const int k = k_;
    Matrix hm(m, m);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < m; ++j) hm(i, j) = h_(i, j);
    const Cplx h_last = h_(m, m - 1);
    // f = H_m^{-H} e_m.
    std::vector<Cplx> em(static_cast<std::size_t>(m), Cplx(0, 0));
    em[static_cast<std::size_t>(m - 1)] = Cplx(1, 0);
    const auto f = densela::solve(hm.transpose_conj(), em);
    Matrix bmat = hm;
    const double hl2 = std::norm(h_last);
    for (int i = 0; i < m; ++i)
      bmat(i, m - 1) += hl2 * f[static_cast<std::size_t>(i)];
    auto eres = densela::eig(bmat);
    // Indices of the k smallest |theta| (the low modes to deflate).
    std::vector<int> idx(static_cast<std::size_t>(m));
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](int a2, int b2) {
      return std::abs(eres.values[static_cast<std::size_t>(a2)]) <
             std::abs(eres.values[static_cast<std::size_t>(b2)]);
    });

    // P = [g_1 .. g_k, c_hat] in the (m+1)-dimensional V coordinates.
    Matrix p(m + 1, k + 1);
    for (int j = 0; j < k; ++j)
      for (int i = 0; i < m; ++i)
        p(i, j) = eres.vectors(i, idx[static_cast<std::size_t>(j)]);
    for (int i = 0; i < m + 1; ++i)
      p(i, k) = c_hat[static_cast<std::size_t>(i)];
    Matrix phat, rdummy;
    densela::thin_qr(p, phat, rdummy);

    // Transform the bases: V_new = V * Phat, Z_new = Z * Phat(0:m, 0:k).
    std::vector<FermionField<T>> vnew(static_cast<std::size_t>(k + 1)),
        znew(static_cast<std::size_t>(k));
    for (int j = 0; j <= k; ++j) {
      vnew[static_cast<std::size_t>(j)] = FermionField<T>(n_);
      for (int i = 0; i <= m; ++i) {
        const Cplx pij = phat(i, j);
        if (pij == Cplx(0, 0)) continue;
        axpy(Complex<T>(static_cast<T>(pij.real()),
                        static_cast<T>(pij.imag())),
             v_[static_cast<std::size_t>(i)],
             vnew[static_cast<std::size_t>(j)]);
      }
    }
    for (int j = 0; j < k; ++j) {
      znew[static_cast<std::size_t>(j)] = FermionField<T>(n_);
      for (int i = 0; i < m; ++i) {
        const Cplx pij = phat(i, j);
        if (pij == Cplx(0, 0)) continue;
        axpy(Complex<T>(static_cast<T>(pij.real()),
                        static_cast<T>(pij.imag())),
             z_[static_cast<std::size_t>(i)],
             znew[static_cast<std::size_t>(j)]);
      }
    }
    // H_new = Phat^H Hbar Phat(0:m, 0:k),   c_new = Phat^H c_hat.
    Matrix hbar(m + 1, m);
    for (int i = 0; i < m + 1; ++i)
      for (int j = 0; j < m; ++j) hbar(i, j) = h_(i, j);
    Matrix pk(m, k);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < k; ++j) pk(i, j) = phat(i, j);
    const Matrix hnew = densela::mul(phat.transpose_conj(),
                                     densela::mul(hbar, pk));
    std::vector<Cplx> cnew =
        densela::mul(phat.transpose_conj(), c_hat);

    h_ = Matrix(m + 1, m);
    for (int i = 0; i <= k; ++i)
      for (int j = 0; j < k; ++j) h_(i, j) = hnew(i, j);
    std::fill(c_.begin(), c_.end(), Cplx(0, 0));
    for (int i = 0; i <= k; ++i)
      c_[static_cast<std::size_t>(i)] = cnew[static_cast<std::size_t>(i)];
    for (int j = 0; j <= k; ++j)
      std::swap(v_[static_cast<std::size_t>(j)],
                vnew[static_cast<std::size_t>(j)]);
    for (int j = 0; j < k; ++j)
      std::swap(z_[static_cast<std::size_t>(j)],
                znew[static_cast<std::size_t>(j)]);
    j0_ = k;
    deflation_live_ = true;
  }

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
  bool early_exit_ = false;
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
                            DeflationSpace<T>* recycle = nullptr) {
  FgmresDrEngine<T> engine(op, b, x, params, monitor, recycle);
  while (!engine.done()) {
    if (precond != nullptr) {
      precond->apply(engine.precond_input(), engine.precond_output());
      engine.note_precond_application();
    } else {
      copy(engine.precond_input(), engine.precond_output());
    }
    engine.advance();
  }
  return engine.finish();
}

}  // namespace lqcd
