// Precision study: how the preconditioner's storage precision and the
// Schwarz variant affect outer convergence (paper Secs. III-B, IV-B1).
//
// Prints the outer residual history of four solver variants side by side:
//   (a) multiplicative Schwarz, single-precision matrices,
//   (b) multiplicative Schwarz, half-precision matrices (paper default),
//   (c) additive Schwarz, single precision,
//   (d) no preconditioner (plain FGMRES-DR).
#include <cstdio>
#include <vector>

#include "lqcd/core/dd_solver.h"
#include "lqcd/solver/even_odd.h"

using namespace lqcd;

int main() {
  const Geometry geom({8, 8, 8, 8});
  auto gauge = random_gauge_field<double>(geom, 0.25, 99);
  gauge.make_time_antiperiodic();
  const double mass = -0.40, csw = 1.0;
  FermionField<double> b(geom.volume());
  gaussian(b, 100);

  std::printf("lattice 8^4, plaquette %.4f, mass %.2f, csw %.1f\n\n",
              average_plaquette(gauge), mass, csw);

  DDSolverConfig base;
  base.block = {4, 4, 4, 4};
  base.basis_size = 16;
  base.deflation_size = 4;
  base.schwarz_iterations = 2;
  base.block_mr_iterations = 4;
  base.tolerance = 1e-10;
  base.max_iterations = 600;

  std::vector<std::vector<double>> histories;
  std::vector<std::string> labels;
  std::vector<int> iters;

  auto run_dd = [&](const char* label, bool half, bool additive) {
    DDSolverConfig cfg = base;
    cfg.half_precision_matrices = half;
    cfg.additive_schwarz = additive;
    DDSolver solver(geom, gauge, mass, csw, cfg);
    FermionField<double> x(geom.volume());
    const auto st = solver.solve(b, x);
    histories.push_back(st.residual_history);
    labels.emplace_back(label);
    iters.push_back(st.iterations);
  };
  run_dd("mult/single", false, false);
  run_dd("mult/half", true, false);
  run_dd("add/single", false, true);

  {
    Checkerboard cb(geom);
    WilsonCloverOperator<double> op(geom, cb, gauge, mass, csw);
    const LinearOperator<double>& a = op;
    FermionField<double> x(geom.volume());
    FGMRESDRParams p;
    p.basis_size = base.basis_size;
    p.deflation_size = base.deflation_size;
    p.tolerance = base.tolerance;
    p.max_iterations = 3000;
    const auto st = fgmres_dr_solve<double>(a, nullptr, b, x, p);
    histories.push_back(st.residual_history);
    labels.emplace_back("unpreconditioned");
    iters.push_back(st.iterations);
  }

  std::printf("relative residual vs outer iteration:\n  iter");
  for (const auto& l : labels) std::printf("  %16s", l.c_str());
  std::printf("\n");
  std::size_t longest = 0;
  for (const auto& h : histories) longest = std::max(longest, h.size());
  for (std::size_t i = 0; i < longest;
       i += (i < 20 ? 1 : (i < 100 ? 10 : 100))) {
    std::printf("  %4zu", i);
    for (const auto& h : histories) {
      if (i < h.size())
        std::printf("  %16.3e", h[i]);
      else
        std::printf("  %16s", "-");
    }
    std::printf("\n");
  }
  std::printf("\niterations to 1e-10:");
  for (std::size_t i = 0; i < labels.size(); ++i)
    std::printf("  %s: %d", labels[i].c_str(), iters[static_cast<int>(i)]);
  std::printf(
      "\n\nObservations (cf. paper):\n"
      "  * half-precision matrices track the single-precision history\n"
      "    essentially exactly (Sec. IV-B1),\n"
      "  * the multiplicative variant beats the additive one at equal\n"
      "    sweep count (Sec. II-D),\n"
      "  * the Schwarz preconditioner cuts outer iterations by a large\n"
      "    factor versus plain FGMRES-DR (Sec. II-C).\n");
  return 0;
}
