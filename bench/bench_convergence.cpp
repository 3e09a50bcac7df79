// Real-numerics convergence experiments backing the paper's algorithmic
// claims (run on a laptop-scale synthetic lattice; see DESIGN.md Sec. 2
// for the substitution of production gauge configurations):
//
//  (1) Sec. IV-B1: half-precision storage of gauge+clover in the
//      preconditioner changes the residual history only marginally
//      (paper: < 0.14% on 48^3x64).
//  (2) Sec. II-D:  even-odd preconditioning roughly halves the Krylov
//      iteration count.
//  (3) Sec. II-C/IV: the DD-preconditioned solver needs far fewer outer
//      iterations and global reductions than the non-DD solver (the
//      origin of the strong-scaling advantage).
//  (4) Sec. V: deflated restarts converge faster than plain restarts for
//      ill-conditioned (light-mass) systems.
#include <cstdio>

#include "bench_common.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/core/nondd_solver.h"
#include "lqcd/solver/even_odd.h"

using namespace lqcd;

namespace {

struct Problem {
  Geometry geom;
  GaugeField<double> gauge;
  FermionField<double> b;

  Problem(const Coord& dims, double disorder, std::uint64_t seed)
      : geom(dims),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        b(geom.volume()) {
    gaussian(b, seed + 1);
  }
};

}  // namespace

int main() {
  bench::print_header(
      "Convergence experiments (real numerics, synthetic gauge field)",
      "Heybrock et al., SC14, Secs. II-D, IV-B1",
      "lattice 8^4, disorder 0.25 (plaquette ~0.50), csw = 1.0,\n"
      "mass -0.62 (near-critical: the additive mass renormalization of\n"
      "Wilson fermions shifts m_crit strongly negative on rough fields)");

  Problem prob({8, 8, 8, 8}, 0.25, 2024);
  const double mass = -0.62, csw = 1.0;
  std::printf("average plaquette: %.4f\n\n", average_plaquette(prob.gauge));

  // ---- (1) half vs single precision preconditioner ----------------------
  {
    DDSolverConfig cfg;
    cfg.block = {4, 4, 4, 4};
    cfg.schwarz_iterations = 2;
    cfg.block_mr_iterations = 3;
    cfg.tolerance = 1e-10;
    cfg.half_precision_matrices = false;
    DDSolver s_single(prob.geom, prob.gauge, mass, csw, cfg);
    cfg.half_precision_matrices = true;
    DDSolver s_half(prob.geom, prob.gauge, mass, csw, cfg);
    FermionField<double> x1(prob.geom.volume()), x2(prob.geom.volume());
    const auto st1 = s_single.solve(prob.b, x1);
    const auto st2 = s_half.solve(prob.b, x2);
    double worst = 0;
    const std::size_t n =
        std::min(st1.residual_history.size(), st2.residual_history.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (st1.residual_history[i] < 1e-7) break;
      worst = std::max(worst, std::abs(st2.residual_history[i] /
                                           st1.residual_history[i] -
                                       1.0));
    }
    std::printf(
        "(1) half vs single preconditioner storage:\n"
        "    outer iterations: single %d, half %d\n"
        "    max relative residual-history deviation: %.2f%%  (paper: "
        "<0.14%% on its much larger, slower-converging system)\n"
        "    both converged to 1e-10: %s\n\n",
        st1.iterations, st2.iterations, 100.0 * worst,
        (st1.converged && st2.converged) ? "yes" : "NO");
  }

  // ---- (2) even-odd preconditioning ~2x ---------------------------------
  {
    Checkerboard cb(prob.geom);
    WilsonCloverOperator<double> op(prob.geom, cb, prob.gauge, mass, csw);
    op.prepare_schur();
    const LinearOperator<double>& a = op;
    SchurLinOp<double> schur(op);
    BiCGstabParams p;
    p.tolerance = 1e-10;
    p.max_iterations = 40000;
    FermionField<double> x(prob.geom.volume());
    const auto full = bicgstab_solve(a, prob.b, x, p);
    FermionField<double> be(cb.half_volume()), xe(cb.half_volume());
    gaussian(be, 3);
    const auto eo = bicgstab_solve(schur, be, xe, p);
    std::printf(
        "(2) even-odd (Schur) preconditioning:\n"
        "    BiCGstab iterations, full operator:  %d\n"
        "    BiCGstab iterations, Schur operator: %d  -> speedup %.2fx "
        "(paper: ~2x)\n\n",
        full.iterations, eo.iterations,
        static_cast<double>(full.iterations) / eo.iterations);
  }

  // ---- (3) DD vs non-DD iterations and reductions ------------------------
  {
    DDSolverConfig cfg;
    cfg.block = {4, 4, 4, 4};
    cfg.schwarz_iterations = 8;
    cfg.block_mr_iterations = 5;
    cfg.basis_size = 16;
    cfg.deflation_size = 4;
    cfg.tolerance = 1e-10;
    DDSolver dd(prob.geom, prob.gauge, mass, csw, cfg);
    FermionField<double> x1(prob.geom.volume()), x2(prob.geom.volume());
    const auto sdd = dd.solve(prob.b, x1);

    NonDDSolverConfig ncfg;
    ncfg.tolerance = 1e-10;
    NonDDSolver nondd(prob.geom, prob.gauge, mass, csw, ncfg);
    const auto snd = nondd.solve(prob.b, x2);

    std::printf(
        "(3) DD (FGMRES-DR + multiplicative Schwarz) vs non-DD (BiCGstab):\n"
        "    outer iterations: DD %d vs non-DD %d  (%.0fx fewer)\n"
        "    global reductions: DD %lld vs non-DD %lld  (%.0fx fewer; "
        "paper 48^3x64: 423 vs 23907 = 57x)\n"
        "    block solves inside the preconditioner: %lld (all "
        "communication-free)\n\n",
        sdd.iterations, snd.iterations,
        static_cast<double>(snd.iterations) / std::max(1, sdd.iterations),
        static_cast<long long>(sdd.global_sum_events),
        static_cast<long long>(snd.global_sum_events),
        static_cast<double>(snd.global_sum_events) /
            std::max<std::int64_t>(1, sdd.global_sum_events),
        static_cast<long long>(dd.schwarz_stats().block_solves));
  }

  // ---- (4) deflated restarts -------------------------------------------
  {
    // GMRES-DR pays off when restarts matter AND the spectrum has a few
    // isolated small modes — the situation of the paper's production
    // systems (hundreds of outer iterations) where the Schwarz-
    // preconditioned spectrum clusters near 1 with low-mode outliers.
    // We demonstrate the mechanism on an operator with exactly that
    // spectrum (6 planted modes at |lambda| ~ 5e-3 under a bulk in
    // [1, 2]); on our laptop-scale Wilson problem the DD-preconditioned
    // solve finishes in ~3 restart cycles, so deflation is neutral there
    // (also reported below).
    Rng rng(41);
    const std::int64_t n = 512;
    std::vector<Complex<double>> d(static_cast<std::size_t>(n));
    for (auto& z : d)
      z = Complex<double>(1.0 + rng.uniform(), 0.1 * rng.gaussian());
    for (int i = 0; i < 6; ++i)
      d[static_cast<std::size_t>(i)] =
          Complex<double>(0.005 * (i + 1), 0.0);
    DiagonalOperator<double> op(d);
    FermionField<double> rhs(n), x0(n), x1(n);
    gaussian(rhs, 42);
    FGMRESDRParams p;
    p.basis_size = 10;
    p.deflation_size = 0;
    p.tolerance = 1e-8;
    p.max_iterations = 2000;
    const auto plain = fgmres_dr_solve<double>(op, nullptr, rhs, x0, p);
    p.deflation_size = 6;
    const auto defl = fgmres_dr_solve<double>(op, nullptr, rhs, x1, p);
    std::printf(
        "(4) deflated restarts (FGMRES-DR, basis 10, spectrum with 6 "
        "isolated low modes):\n"
        "    plain restarts:    %d iterations (converged: %s)\n"
        "    deflated restarts: %d iterations (converged: %s)  -> %.1fx "
        "fewer\n"
        "    (paper Sec. V: GMRES-DR converges faster for problems with "
        "low modes)\n\n",
        plain.iterations, plain.converged ? "yes" : "no", defl.iterations,
        defl.converged ? "yes" : "no",
        static_cast<double>(plain.iterations) /
            std::max(1, defl.iterations));

    DDSolverConfig cfg;
    cfg.block = {4, 4, 4, 4};
    cfg.schwarz_iterations = 2;
    cfg.block_mr_iterations = 3;
    cfg.basis_size = 12;
    cfg.tolerance = 1e-10;
    cfg.deflation_size = 0;
    DDSolver dd0(prob.geom, prob.gauge, mass, csw, cfg);
    cfg.deflation_size = 4;
    DDSolver dd4(prob.geom, prob.gauge, mass, csw, cfg);
    FermionField<double> y0(prob.geom.volume()), y1(prob.geom.volume());
    const auto s0 = dd0.solve(prob.b, y0);
    const auto s1 = dd4.solve(prob.b, y1);
    std::printf(
        "    on the DD-preconditioned 8^4 Wilson system (converges in ~3 "
        "cycles):\n"
        "    k=0: %d outer iterations, k=4: %d — neutral at this scale, "
        "as expected\n",
        s0.iterations, s1.iterations);
  }
  return 0;
}
