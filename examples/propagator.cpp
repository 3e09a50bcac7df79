// Quark propagator and pion correlator — the paper's "data analysis" use
// case (Sec. IV-C1): many independent solves of A psi = source, one per
// spin-color component of a point source.
//
// This example drives the solves through the SolverService (the
// propagator-farm layer): the 12 spin-color sources are submitted as
// independent SolveRequests, and because they share one gauge
// configuration, mass, and csw, the lane-packing scheduler gathers them
// into lane batches (here 8 + 4) behind one cached DDSolverSetup. Each
// batch streams the packed Schwarz matrices once per sweep for all its
// lanes (paper Sec. VI), and the deflation subspace the first batch
// harvests is recycled by the second through the per-context
// RecycleCache — exactly what a physics campaign's analysis farm does,
// minus MPI.
//
// The pion two-point function is
//   C(t) = sum_x sum_{s,c,s',c'} |S(x,t; 0)_{s c, s' c'}|^2,
// where S is the propagator from a point source at the origin. On a real
// gauge ensemble, ln C(t)/C(t+1) plateaus at the pion mass; on our single
// synthetic configuration it still decays exponentially, which this
// example shows.
#include <cmath>
#include <cstdio>
#include <future>
#include <vector>

#include "lqcd/base/timer.h"
#include "lqcd/service/solver_service.h"

using namespace lqcd;

int main() {
  const Geometry geom({8, 8, 8, 16});
  auto gauge = random_gauge_field<double>(geom, 0.25, 11);
  gauge.make_time_antiperiodic();
  std::printf("lattice 8^3x16, average plaquette %.4f\n",
              average_plaquette(gauge));

  // Basis small enough that each solve spans more than one FGMRES-DR
  // cycle: the first batch then deflates and harvests a subspace, and
  // later batches start from its recycled projection.
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 8;
  cfg.deflation_size = 4;
  cfg.schwarz_iterations = 2;
  cfg.block_mr_iterations = 3;
  cfg.tolerance = 1e-9;
  const double mass = -0.30, csw = 1.0;

  SolverServiceConfig scfg;
  scfg.solver = cfg;
  // 12 solves -> 8 + 4, so the second batch shows cross-batch recycling.
  // The 8 is not a SIMD property: the default cap (16) would put all 12
  // sources into one batch.
  scfg.batch.max_lanes = 8;
  scfg.batch.window_seconds = 0.05;
  scfg.worker_threads = 1;
  SolverService service(scfg);

  const std::int32_t origin = geom.index({0, 0, 0, 0});
  const auto volume = geom.volume();
  const int nrhs = kNumSpins * kNumColors;

  // Submit all 12 point sources; the scheduler does the batching. The
  // timed region spans submission to last future resolved.
  Timer timer;
  std::vector<std::future<SolveResult>> futs;
  futs.reserve(static_cast<std::size_t>(nrhs));
  for (int s = 0; s < kNumSpins; ++s)
    for (int c = 0; c < kNumColors; ++c) {
      SolveRequest req;
      req.geom = &geom;
      req.gauge = &gauge;
      req.mass = mass;
      req.csw = csw;
      req.tolerance = cfg.tolerance;
      req.source = FermionField<double>(volume);
      req.source[origin].s[s].c[c] = Complex<double>(1, 0);
      futs.push_back(service.submit(std::move(req)));
    }

  std::vector<FermionField<double>> psi;
  psi.reserve(static_cast<std::size_t>(nrhs));
  std::int64_t total_iters = 0;
  for (int s = 0; s < kNumSpins; ++s)
    for (int c = 0; c < kNumColors; ++c) {
      const auto i = static_cast<std::size_t>(s * kNumColors + c);
      SolveResult res = futs[i].get();
      if (!res.stats.converged) {
        std::printf("solve (s=%d,c=%d) failed to converge!\n", s, c);
        return 1;
      }
      total_iters += res.stats.iterations;
      std::printf(
          "  source (spin %d, color %d): %3d outer iterations, "
          "%d-lane batch%s\n",
          s, c, res.stats.iterations, res.batch_lanes,
          res.stats.recycle_projections > 0 ? "  [recycled subspace]" : "");
      psi.push_back(std::move(res.solution));
    }
  const double solve_seconds = timer.seconds();

  const ServiceStats sstats = service.stats();
  std::printf(
      "\n%d propagator solves in %.1f s (%lld outer iterations total, "
      "%llu batches, setup cache %llu miss / %llu hit)\n\n",
      nrhs, solve_seconds, static_cast<long long>(total_iters),
      static_cast<unsigned long long>(sstats.batches),
      static_cast<unsigned long long>(sstats.cache.misses),
      static_cast<unsigned long long>(sstats.cache.hits));

  // Accumulate |S|^2 per timeslice (outside the timed region).
  std::vector<double> corr(static_cast<std::size_t>(geom.dim(3)), 0.0);
  for (int i = 0; i < nrhs; ++i)
    for (std::int32_t x = 0; x < volume; ++x) {
      const int t = geom.coord(x)[3];
      corr[static_cast<std::size_t>(t)] +=
          norm2(psi[static_cast<std::size_t>(i)][x]);
    }

  std::printf("pion correlator (point source at origin):\n");
  std::printf("   t        C(t)      m_eff(t) = ln C(t)/C(t+1)\n");
  const int lt = geom.dim(3);
  for (int t = 0; t < lt; ++t) {
    const double c0 = corr[static_cast<std::size_t>(t)];
    const double c1 = corr[static_cast<std::size_t>((t + 1) % lt)];
    if (t < lt / 2 && c1 > 0) {
      std::printf("  %2d  %12.5e   %8.4f\n", t, c0, std::log(c0 / c1));
    } else {
      std::printf("  %2d  %12.5e\n", t, c0);
    }
  }
  std::printf(
      "\nThe correlator decays exponentially away from the source and is\n"
      "symmetric about t = Lt/2 (antiperiodic BC), as expected.\n");
  return 0;
}
