// Krylov solvers: BiCGstab, FGMRES(-DR), mixed-precision Richardson, and
// the even-odd Schur operator — on synthetic operators with controlled
// spectra and on real Wilson-Clover systems.
#include <gtest/gtest.h>

#include "lqcd/gauge/gauge_field.h"
#include "lqcd/solver/bicgstab.h"
#include "lqcd/solver/even_odd.h"
#include "lqcd/solver/fgmres_dr.h"
#include "lqcd/solver/richardson.h"

namespace lqcd {
namespace {

/// Relative true residual ||b - A x|| / ||b||.
template <class T>
double true_residual(const LinearOperator<T>& op, const FermionField<T>& b,
                     const FermionField<T>& x) {
  FermionField<T> r(op.vector_size());
  op.apply(x, r);
  sub(b, r, r);
  return norm(r) / norm(b);
}

TEST(BiCGstab, ConvergesOnComplexDiagonal) {
  Rng rng(12);
  std::vector<Complex<double>> d(128);
  for (auto& z : d)
    z = Complex<double>(1.0 + 3.0 * rng.uniform(), 0.5 * rng.gaussian());
  DiagonalOperator<double> op(d);
  FermionField<double> b(128), x(128);
  gaussian(b, 13);
  BiCGstabParams p;
  p.tolerance = 1e-10;
  const auto stats = bicgstab_solve(op, b, x, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(op, b, x), 1e-9);
}

struct WilsonFixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<double> gauge;
  WilsonCloverOperator<double> op;

  WilsonFixture(const Coord& dims, double disorder, double mass, double csw,
                std::uint64_t seed)
      : geom(dims),
        cb(geom),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        op(geom, cb, gauge, mass, csw) {}
};

TEST(BiCGstab, SolvesWilsonCloverSystem) {
  WilsonFixture f({4, 4, 4, 8}, 0.6, 0.2, 1.0, 21);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 22);
  BiCGstabParams p;
  p.tolerance = 1e-10;
  p.max_iterations = 2000;
  const auto stats = bicgstab_solve(a, b, x, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(a, b, x), 2e-10);
  EXPECT_GT(stats.iterations, 5);  // nontrivial problem
}

TEST(FGMRES, PlainRestartedConvergesOnWilsonClover) {
  WilsonFixture f({4, 4, 4, 8}, 0.6, 0.2, 1.0, 21);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 22);
  FGMRESDRParams p;
  p.basis_size = 16;
  p.deflation_size = 0;
  p.tolerance = 1e-10;
  p.max_iterations = 2000;
  const auto stats = fgmres_dr_solve<double>(a, nullptr, b, x, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(a, b, x), 2e-10);
}

TEST(FGMRES, AgreesWithBiCGstabSolution) {
  WilsonFixture f({4, 4, 4, 4}, 0.5, 0.3, 1.2, 31);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x1(f.geom.volume()),
      x2(f.geom.volume());
  gaussian(b, 32);
  BiCGstabParams pb;
  pb.tolerance = 1e-12;
  bicgstab_solve(a, b, x1, pb);
  FGMRESDRParams pg;
  pg.basis_size = 20;
  pg.tolerance = 1e-12;
  fgmres_dr_solve<double>(a, nullptr, b, x2, pg);
  sub(x1, x2, x2);
  EXPECT_LT(norm(x2), 1e-8 * norm(x1));
}

TEST(FGMRESDR, DeflationAcceleratesSmallEigenvalueSystems) {
  // Spectrum with a cluster near zero: restarted GMRES without deflation
  // stalls; GMRES-DR carries the low modes across restarts.
  Rng rng(41);
  const std::int64_t n = 256;
  std::vector<Complex<double>> d(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] =
        Complex<double>(1.0 + rng.uniform(), 0.1 * rng.gaussian());
  // Plant 6 small eigenvalues.
  for (int i = 0; i < 6; ++i)
    d[static_cast<std::size_t>(i)] = Complex<double>(0.005 * (i + 1), 0.0);
  DiagonalOperator<double> op(d);
  FermionField<double> b(n), x0(n), x1(n);
  gaussian(b, 42);

  FGMRESDRParams plain;
  plain.basis_size = 10;
  plain.deflation_size = 0;
  plain.tolerance = 1e-8;
  plain.max_iterations = 600;
  const auto s0 = fgmres_dr_solve<double>(op, nullptr, b, x0, plain);

  FGMRESDRParams defl = plain;
  defl.deflation_size = 6;
  const auto s1 = fgmres_dr_solve<double>(op, nullptr, b, x1, defl);

  EXPECT_TRUE(s1.converged);
  EXPECT_LT(true_residual(op, b, x1), 1e-7);
  // Deflation must be substantially faster (paper: "converges faster for
  // problems with low modes").
  if (s0.converged) {
    EXPECT_LT(s1.iterations, s0.iterations * 3 / 4)
        << "plain=" << s0.iterations << " deflated=" << s1.iterations;
  } else {
    SUCCEED();  // plain stalled entirely; deflated converged
  }
}

TEST(FGMRESDR, ConvergesOnWilsonCloverWithDeflation) {
  WilsonFixture f({4, 4, 4, 8}, 0.7, 0.05, 1.3, 51);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 52);
  FGMRESDRParams p;
  p.basis_size = 12;
  p.deflation_size = 4;
  p.tolerance = 1e-10;
  p.max_iterations = 3000;
  const auto stats = fgmres_dr_solve<double>(a, nullptr, b, x, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(a, b, x), 2e-10);
}

/// A few BiCGstab iterations on the same operator as a (flexible,
/// approximate) preconditioner.
template <class T>
class BiCGstabPreconditioner final : public Preconditioner<T> {
 public:
  BiCGstabPreconditioner(const LinearOperator<T>& op, int iters)
      : op_(&op), iters_(iters) {}
  void apply(const FermionField<T>& in, FermionField<T>& out) override {
    out.zero();
    BiCGstabParams p;
    p.max_iterations = iters_;
    p.tolerance = 0.0;  // run exactly iters_ iterations
    bicgstab_solve(*op_, in, out, p);
  }

 private:
  const LinearOperator<T>* op_;
  int iters_;
};

TEST(FGMRES, FlexiblePreconditioningReducesOuterIterations) {
  WilsonFixture f({4, 4, 4, 8}, 0.6, 0.15, 1.0, 61);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x0(f.geom.volume()),
      x1(f.geom.volume());
  gaussian(b, 62);
  FGMRESDRParams p;
  p.basis_size = 16;
  p.tolerance = 1e-10;
  p.max_iterations = 2000;
  const auto s0 = fgmres_dr_solve<double>(a, nullptr, b, x0, p);
  BiCGstabPreconditioner<double> m(a, 3);
  const auto s1 = fgmres_dr_solve<double>(a, &m, b, x1, p);
  EXPECT_TRUE(s0.converged);
  EXPECT_TRUE(s1.converged);
  EXPECT_LT(true_residual(a, b, x1), 2e-10);
  EXPECT_LT(s1.iterations, s0.iterations / 2)
      << "unprec=" << s0.iterations << " prec=" << s1.iterations;
}

TEST(Richardson, MixedPrecisionReachesDoublePrecisionTarget) {
  WilsonFixture f({4, 4, 4, 8}, 0.6, 0.2, 1.0, 71);
  const LinearOperator<double>& a_d = f.op;
  // Single-precision copy of the operator for the inner solver.
  auto gauge_f = convert<float>(f.gauge);
  WilsonCloverOperator<float> op_f(f.geom, f.cb, gauge_f, 0.2f, 1.0f);
  const LinearOperator<float>& a_f = op_f;

  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 72);

  InnerSolver<float> inner = [&](const FermionField<float>& rhs,
                                 FermionField<float>& corr) {
    BiCGstabParams pi;
    pi.tolerance = 0.1;  // loose inner target, as in the paper's baseline
    pi.max_iterations = 500;
    return bicgstab_solve(a_f, rhs, corr, pi);
  };
  RichardsonParams pr;
  pr.tolerance = 1e-10;
  const auto stats = richardson_solve<double, float>(a_d, b, x, inner, pr);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(a_d, b, x), 2e-10);
  EXPECT_GT(stats.precond_applications, 1);  // needed several inner solves
}

TEST(EvenOdd, SchurReducesIterationCount) {
  // Paper Sec. II-D: even-odd preconditioning roughly halves the MR/Krylov
  // iteration count.
  WilsonFixture f({4, 4, 4, 8}, 0.7, 0.1, 1.0, 91);
  f.op.prepare_schur();
  const LinearOperator<double>& a = f.op;
  SchurLinOp<double> schur(f.op);

  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 92);
  BiCGstabParams p;
  p.tolerance = 1e-10;
  p.max_iterations = 4000;
  const auto full_stats = bicgstab_solve(a, b, x, p);

  const auto half = f.cb.half_volume();
  FermionField<double> b_e(half), x_e(half);
  gaussian(b_e, 93);
  const auto schur_stats = bicgstab_solve(schur, b_e, x_e, p);

  EXPECT_TRUE(full_stats.converged);
  EXPECT_TRUE(schur_stats.converged);
  EXPECT_LT(schur_stats.iterations, full_stats.iterations * 3 / 4)
      << "full=" << full_stats.iterations
      << " schur=" << schur_stats.iterations;
}

TEST(SolverStats, GlobalSumEventsAreBatchedReductions) {
  // FGMRES counts ~2 reduction events per Arnoldi step (one batched
  // Gram-Schmidt + one norm), matching the paper's Table III accounting.
  WilsonFixture f({4, 4, 4, 4}, 0.5, 0.3, 1.0, 101);
  const LinearOperator<double>& a = f.op;
  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gaussian(b, 102);
  FGMRESDRParams p;
  p.basis_size = 16;
  p.tolerance = 1e-10;
  const auto s = fgmres_dr_solve<double>(a, nullptr, b, x, p);
  ASSERT_GT(s.iterations, 0);
  const double per_iter =
      static_cast<double>(s.global_sum_events) / s.iterations;
  EXPECT_GT(per_iter, 1.5);
  EXPECT_LT(per_iter, 3.5);
}

}  // namespace
}  // namespace lqcd
