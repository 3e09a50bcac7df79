// The FGMRES-DR engine and its one-engine driver, compiled in this one
// translation unit for float and double, so that every binary runs the
// same outer solver bit for bit: how the compiler contracts this
// arithmetic into FMAs sets its last bits, and a header copy would let
// each translation unit that instantiates it choose again.
#include "lqcd/solver/fgmres_dr.h"

#include <algorithm>
#include <numeric>

namespace lqcd {

namespace {

using densela::Cplx;
using densela::Matrix;

/// A solved projected least-squares problem min_y ||c - H y||.
struct Projection {
  std::vector<Cplx> y;      ///< the minimizer
  std::vector<Cplx> hy;     ///< H y
  std::vector<Cplx> c_hat;  ///< residual coordinates c - H y

  /// ||c - H y||: what the projected problem believes ||b - A x|| is.
  double residual_norm() const {
    double sum = 0;
    for (const Cplx& e : c_hat) sum += std::norm(e);
    return std::sqrt(sum);
  }
};

/// The outer solver's one least-squares solve, for the Arnoldi relation
/// and the recycled subspace alike: the leading `cols` columns of H, the
/// (cols+1) x cols block, against the first cols+1 coordinates of c.
Projection solve_projected(const Matrix& h, const std::vector<Cplx>& c,
                           int cols) {
  const Matrix hj = h.top_left(cols + 1, cols);
  const std::vector<Cplx> cj(c.begin(), c.begin() + cols + 1);
  Projection p;
  p.y = densela::least_squares(hj, cj);
  p.hy = densela::mul(hj, p.y);
  p.c_hat.resize(cj.size());
  for (std::size_t i = 0; i < cj.size(); ++i) p.c_hat[i] = cj[i] - p.hy[i];
  return p;
}

}  // namespace

template <class T>
FgmresDrEngine<T>::FgmresDrEngine(const LinearOperator<T>& op,
                                  const FermionField<T>& b, FermionField<T>& x,
                                  const FGMRESDRParams& params,
                                  SolveMonitor<T>* monitor,
                                  DeflationSpace<T>* recycle)
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
    done_ = true;
    return;
  }

  recompute_residual();
  if (stop_on_nonfinite_residual()) return;

  project_recycled_subspace();

  restart_plain();
  prev_cycle_rnorm_ = rnorm_;
  begin_cycle();
}

template <class T>
void FgmresDrEngine<T>::advance() {
  LQCD_CHECK_MSG(!done_, "advance() called on a finished solve");
  const int j = j_;
  op_->apply(z_[static_cast<std::size_t>(j)], w_);
  ++stats_.matvecs;
  // Classical Gram-Schmidt: all j+1 inner products batch into a single
  // global reduction.
  std::vector<Cplx> minus_h(static_cast<std::size_t>(j + 1));
  for (int i = 0; i <= j; ++i) {
    h_(i, j) = dot(v_[static_cast<std::size_t>(i)], w_);
    minus_h[static_cast<std::size_t>(i)] = -h_(i, j);
  }
  ++stats_.global_sum_events;
  multi_axpy(minus_h, v_, w_);
  const double wnorm = norm(w_);
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
  copy(w_, v_[static_cast<std::size_t>(j + 1)]);
  scal(static_cast<T>(1.0 / wnorm), v_[static_cast<std::size_t>(j + 1)]);

  // Cheap residual estimate from the projected least-squares problem.
  const double est = solve_projected(h_, c_, j + 1).residual_norm();
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

template <class T>
SolverStats FgmresDrEngine<T>::finish() {
  if (bnorm_ == 0.0) return stats_;
  stats_.final_relative_residual = rnorm_ / bnorm_;
  stats_.converged = stats_.final_relative_residual <= params_.tolerance;
  if (stats_.converged)
    stats_.breakdown = Breakdown::kNone;
  else if (stats_.breakdown == Breakdown::kNone)
    stats_.breakdown = Breakdown::kMaxIterations;
  harvest_recycled_subspace();
  return stats_;
}

template <class T>
void FgmresDrEngine<T>::recompute_residual() {
  op_->apply(*x_, r_);
  ++stats_.matvecs;
  sub(*b_, r_, r_);
  rnorm_ = norm(r_);
  ++stats_.global_sum_events;
}

template <class T>
bool FgmresDrEngine<T>::stop_on_nonfinite_residual() {
  if (std::isfinite(rnorm_)) return false;
  ++stats_.nonfinite_events;
  stats_.breakdown = Breakdown::kNanDetected;
  done_ = true;
  return true;
}

template <class T>
void FgmresDrEngine<T>::project_recycled_subspace() {
  if (recycle_ == nullptr || !recycle_->valid()) return;
  if (recycle_->v.front().size() != n_) return;
  const int kr = static_cast<int>(recycle_->z.size());
  if (recycle_->h.rows() != kr + 1 || recycle_->h.cols() != kr) return;

  std::vector<Cplx> cr(static_cast<std::size_t>(kr + 1));
  for (int i = 0; i <= kr; ++i)
    cr[static_cast<std::size_t>(i)] =
        dot(recycle_->v[static_cast<std::size_t>(i)], r_);
  ++stats_.global_sum_events;
  const Projection p = solve_projected(recycle_->h, cr, kr);
  std::vector<Cplx> minus_hy(p.hy.size());
  std::transform(p.hy.begin(), p.hy.end(), minus_hy.begin(),
                 [](const Cplx& e) { return -e; });
  FermionField<T> rc(n_);
  copy(r_, rc);
  multi_axpy(minus_hy, recycle_->v, rc, /*skip_zero=*/true);
  const double rn = norm(rc);
  ++stats_.global_sum_events;
  if (!std::isfinite(rn) || rn >= rnorm_) return;  // projection not useful
  multi_axpy(p.y, recycle_->z, *x_);
  std::swap(r_, rc);
  rnorm_ = rn;
  ++stats_.recycle_projections;
}

template <class T>
void FgmresDrEngine<T>::harvest_recycled_subspace() {
  if (recycle_ == nullptr || !deflation_live_ || k_ <= 0) return;
  recycle_->v.assign(v_.begin(), v_.begin() + k_ + 1);
  recycle_->z.assign(z_.begin(), z_.begin() + k_);
  recycle_->h = h_.top_left(k_ + 1, k_);
}

template <class T>
void FgmresDrEngine<T>::restart_plain() {
  h_ = Matrix(m_ + 1, m_);
  std::fill(c_.begin(), c_.end(), Cplx(0, 0));
  c_[0] = Cplx(rnorm_, 0);
  copy(r_, v_[0]);
  scal(static_cast<T>(1.0 / rnorm_), v_[0]);
  j0_ = 0;
  deflation_live_ = false;
}

template <class T>
void FgmresDrEngine<T>::begin_cycle() {
  if (stats_.iterations >= params_.max_iterations ||
      rnorm_ / bnorm_ <= params_.tolerance) {
    done_ = true;
    return;
  }
  j_ = j0_;
  mcur_ = j0_;
  defective_ = false;
}

template <class T>
void FgmresDrEngine<T>::end_cycle() {
  if (mcur_ == 0) {
    if (!defective_) {  // could not build any basis vector
      done_ = true;
      return;
    }
    // Every direction this cycle was degenerate. After
    // kMaxStagnantCycles such cycles in a row the preconditioner is
    // taken to never return a usable direction: end the solve, naming
    // the last column's defect. Until then, residual replacement:
    // discard the subspace and restart plain from the current true
    // residual (x is unchanged, r/rnorm are still current).
    if (++degenerate_cycles_ >= kMaxStagnantCycles) {
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
  const Projection p = solve_projected(h_, c_, mcur_);
  multi_axpy(p.y, z_, *x_);
  // Projected (recursive) residual estimate at the cycle boundary.
  const double est_rel = p.residual_norm() / bnorm_;

  // True residual (recomputed; also what a production code does each
  // cycle to guard against drift of the projected estimate).
  recompute_residual();
  if (monitor_ != nullptr &&
      monitor_->on_cycle(stats_.iterations, est_rel, rnorm_ / bnorm_,
                         *x_)) {
    // The monitor changed x (checkpoint rollback after detecting that
    // the recursive and true residuals diverged): recompute the
    // residual of the restored iterate and restart clean from it.
    ++stats_.rollback_restarts;
    recompute_residual();
    if (stop_on_nonfinite_residual()) return;
    restart_plain();
    prev_cycle_rnorm_ = rnorm_;
    stagnant_cycles_ = 0;
    begin_cycle();
    return;
  }
  if (stop_on_nonfinite_residual()) return;
  if (rnorm_ / bnorm_ <= params_.tolerance) {
    done_ = true;
    return;
  }

  // Restart-on-stagnation: consecutive cycles without real progress
  // mean the carried subspace is poisoned (or useless); fall back to a
  // plain restart, replacing the recursive residual with the true one.
  bool force_plain = defective_;
  if (rnorm_ > kStagnationThreshold * prev_cycle_rnorm_) {
    if (++stagnant_cycles_ >= kMaxStagnantCycles) force_plain = true;
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
  if (k_ == 0 || mcur_ < m_) {
    restart_plain();
    begin_cycle();
    return;
  }

  deflated_restart(p.c_hat);
  begin_cycle();
}

template <class T>
void FgmresDrEngine<T>::deflated_restart(const std::vector<Cplx>& c_hat) {
  const int m = m_;
  const int k = k_;
  const Matrix hm = h_.top_left(m, m);
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
  const Matrix pk = phat.top_left(m, k);

  // Transform the bases: V_new = V * Phat, Z_new = Z * Phat(0:m, 0:k).
  std::vector<FermionField<T>> vnew(static_cast<std::size_t>(k + 1)),
      znew(static_cast<std::size_t>(k));
  for (int j = 0; j <= k; ++j) {
    vnew[static_cast<std::size_t>(j)] = FermionField<T>(n_);
    multi_axpy(phat.column(j), v_, vnew[static_cast<std::size_t>(j)],
               /*skip_zero=*/true);
  }
  for (int j = 0; j < k; ++j) {
    znew[static_cast<std::size_t>(j)] = FermionField<T>(n_);
    multi_axpy(pk.column(j), z_, znew[static_cast<std::size_t>(j)],
               /*skip_zero=*/true);
  }
  // H_new = Phat^H Hbar Phat(0:m, 0:k),   c_new = Phat^H c_hat.
  const Matrix hnew =
      densela::mul(phat.transpose_conj(), densela::mul(h_, pk));
  const std::vector<Cplx> cnew = densela::mul(phat.transpose_conj(), c_hat);

  h_ = Matrix(m + 1, m);
  for (int i = 0; i <= k; ++i)
    for (int j = 0; j < k; ++j) h_(i, j) = hnew(i, j);
  std::fill(c_.begin(), c_.end(), Cplx(0, 0));
  std::copy(cnew.begin(), cnew.end(), c_.begin());
  std::swap_ranges(vnew.begin(), vnew.end(), v_.begin());
  std::swap_ranges(znew.begin(), znew.end(), z_.begin());
  j0_ = k;
  deflation_live_ = true;
}

template <class T>
SolverStats fgmres_dr_solve(const LinearOperator<T>& op,
                            Preconditioner<T>* precond,
                            const FermionField<T>& b, FermionField<T>& x,
                            const FGMRESDRParams& params,
                            SolveMonitor<T>* monitor,
                            DeflationSpace<T>* recycle) {
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

template class FgmresDrEngine<float>;
template class FgmresDrEngine<double>;
template SolverStats fgmres_dr_solve(
    const LinearOperator<float>&, Preconditioner<float>*,
    const FermionField<float>&, FermionField<float>&, const FGMRESDRParams&,
    SolveMonitor<float>*, DeflationSpace<float>*);
template SolverStats fgmres_dr_solve(
    const LinearOperator<double>&, Preconditioner<double>*,
    const FermionField<double>&, FermionField<double>&, const FGMRESDRParams&,
    SolveMonitor<double>*, DeflationSpace<double>*);

}  // namespace lqcd
