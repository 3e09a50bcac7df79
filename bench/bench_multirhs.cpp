// Multi-RHS batched Schwarz solves (paper Sec. VI "future work").
//
// The Schwarz block solve is bandwidth-bound on the packed half-precision
// gauge+clover matrices: once they stream through a core, applying them
// to ONE right-hand side leaves the FPU idle most of the time. Batching
// nrhs right-hand sides through each domain visit charges the matrix
// bytes once and scales every spinor quantity by nrhs — multiplying
// arithmetic intensity and, on the KNC model, the sustained Gflop/s.
//
// Four sections:
//   1. Machine-model sweep at the paper's production block {8,4,4,4}:
//      predicted arithmetic intensity and Gflop/s/core vs nrhs.
//   2. Instrumented SchwarzPreconditioner<Half> on a real (small)
//      lattice: the matrix_block_loads counter proves each sweep loads
//      every domain's matrices once REGARDLESS of nrhs, while
//      block_solves scales linearly.
//   3. apply_batch vs one apply() per RHS at nrhs in
//      {1, 4, 8, 12}: the batch streams each domain's matrices once per
//      visit and, for nrhs >= 2, applies each loaded element to all RHS
//      lanes with unit-stride SIMD (nrhs = 1 runs at one lane,
//      vectorized within the site).
//   4. End-to-end DDSolver: solve_batch over the propagator's 12
//      spin-color sources vs 12 sequential solve() calls (deflation
//      recycling cuts the total outer iterations; identical tolerance).
//
// `--smoke` shrinks the tolerances and batch list for CI.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "lqcd/base/timer.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/knc/work_model.h"
#include "lqcd/simd/dispatch.h"

using namespace lqcd;

namespace {

void model_sweep(const std::vector<int>& batch_sizes) {
  const Coord block = {8, 4, 4, 4};
  const int idomain = 5;
  const knc::KernelModel model;
  const double l2_bytes = model.spec().l2_kb * 1024.0;

  std::printf("-- Model: block 8x4x4x4, Idomain %d, half-precision "
              "matrices, L1+L2 prefetch --\n", idomain);
  std::printf("  %5s %12s %14s %14s %12s\n", "nrhs", "flops/byte",
              "Gflop/s/core", "working set", "fits L2?");
  const auto base =
      knc::block_solve_work(block, idomain, /*half_matrices=*/true, 1);
  const double base_ai = knc::arithmetic_intensity(base.kernel);
  double last_gain = 1.0;
  for (const int nrhs : batch_sizes) {
    const auto w =
        knc::block_solve_work(block, idomain, /*half_matrices=*/true, nrhs);
    const auto kern =
        knc::apply_cache_capacity(w.kernel, w.working_set_bytes, l2_bytes);
    const double ai = knc::arithmetic_intensity(w.kernel);
    last_gain = ai / base_ai;
    std::printf("  %5d %12.1f %14.1f %11.0f kB %12s\n", nrhs, ai,
                model.gflops_per_core(kern, knc::PrefetchMode::kL1L2),
                w.working_set_bytes / 1024.0,
                w.working_set_bytes <= l2_bytes ? "yes" : "no");
  }
  std::printf("  arithmetic-intensity gain at nrhs=%d vs nrhs=1: %.2fx\n"
              "  (matrix bytes charged once per batched domain visit;\n"
              "   spinor traffic and flops scale with nrhs)\n\n",
              batch_sizes.back(), last_gain);
}

void measured_counters(const std::vector<int>& batch_sizes) {
  const Geometry geom({8, 8, 8, 8});
  const Checkerboard cb(geom);
  auto gd = random_gauge_field<double>(geom, 0.4, 7);
  gd.make_time_antiperiodic();
  const auto gauge = convert<float>(gd);
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.1f, 1.0f);
  op.prepare_schur();
  const DomainPartition part(geom, {4, 4, 4, 4});

  SchwarzParams sp;
  sp.schwarz_iterations = 4;
  sp.block_mr_iterations = 5;
  SchwarzPreconditioner<Half> schwarz(part, op, sp);
  const std::int64_t matrix_bytes = schwarz.setup()->domain_matrix_bytes();
  const double matrix_kb = static_cast<double>(matrix_bytes) / 1024.0;

  std::printf("-- Measured: SchwarzPreconditioner<Half>, 8^4 lattice, "
              "4^4 domains (%.0f kB matrices/domain) --\n", matrix_kb);
  std::printf("  %5s %14s %14s %12s %16s\n", "nrhs", "matrix loads",
              "loads/sweep", "blk solves", "flops/matrix B");
  for (const int nrhs : batch_sizes) {
    std::vector<FermionField<float>> f(static_cast<std::size_t>(nrhs)),
        u(static_cast<std::size_t>(nrhs));
    std::vector<const FermionField<float>*> fp;
    std::vector<FermionField<float>*> up;
    for (int b = 0; b < nrhs; ++b) {
      f[static_cast<std::size_t>(b)] = FermionField<float>(geom.volume());
      u[static_cast<std::size_t>(b)] = FermionField<float>(geom.volume());
      gaussian(f[static_cast<std::size_t>(b)],
               static_cast<std::uint64_t>(100 + b));
      fp.push_back(&f[static_cast<std::size_t>(b)]);
      up.push_back(&u[static_cast<std::size_t>(b)]);
    }
    schwarz.reset_stats();
    schwarz.apply_batch(fp, up);
    const auto& st = schwarz.stats();
    const double loads_per_sweep =
        static_cast<double>(st.matrix_block_loads) /
        static_cast<double>(st.sweeps);
    const double flops_per_matrix_byte =
        static_cast<double>(st.flops) /
        (static_cast<double>(st.matrix_block_loads) *
         static_cast<double>(matrix_bytes));
    std::printf("  %5d %14lld %14.0f %12lld %16.1f\n", nrhs,
                static_cast<long long>(st.matrix_block_loads),
                loads_per_sweep, static_cast<long long>(st.block_solves),
                flops_per_matrix_byte);
  }
  std::printf("  loads/sweep is nrhs-independent: one matrix stream per\n"
              "  domain visit serves the whole batch (the counter the\n"
              "  work model's matrix_bytes term mirrors).\n\n");
}

void lane_throughput(const std::vector<int>& batch_sizes, int repeats) {
  const Geometry geom({8, 8, 8, 8});
  const Checkerboard cb(geom);
  auto gd = random_gauge_field<double>(geom, 0.4, 7);
  gd.make_time_antiperiodic();
  const auto gauge = convert<float>(gd);
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.1f, 1.0f);
  op.prepare_schur();
  const DomainPartition part(geom, {4, 4, 4, 4});

  SchwarzParams sp;
  sp.schwarz_iterations = 4;
  sp.block_mr_iterations = 5;
  SchwarzPreconditioner<Half> batched(part, op, sp);
  SchwarzPreconditioner<Half> per_rhs(part, op, sp);

  std::printf("-- Measured: apply_batch vs one apply() per RHS, "
              "SchwarzPreconditioner<Half> --\n");
  std::printf("  %5s %5s %13s %13s %9s %14s %14s\n", "nrhs", "lanes",
              "per-RHS Gf/s", "batch Gf/s", "speedup", "per-RHS loads",
              "batch loads");

  for (const int nrhs : batch_sizes) {
    std::vector<FermionField<float>> f(static_cast<std::size_t>(nrhs)),
        u(static_cast<std::size_t>(nrhs));
    std::vector<const FermionField<float>*> fp;
    std::vector<FermionField<float>*> up;
    for (int b = 0; b < nrhs; ++b) {
      f[static_cast<std::size_t>(b)] = FermionField<float>(geom.volume());
      u[static_cast<std::size_t>(b)] = FermionField<float>(geom.volume());
      gaussian(f[static_cast<std::size_t>(b)],
               static_cast<std::uint64_t>(100 + b));
      fp.push_back(&f[static_cast<std::size_t>(b)]);
      up.push_back(&u[static_cast<std::size_t>(b)]);
    }

    const auto time_path = [&](SchwarzPreconditioner<Half>& m,
                               const auto& apply_once) {
      apply_once();  // warm-up (lane scratch allocation, caches)
      m.reset_stats();
      Timer t;
      for (int rep = 0; rep < repeats; ++rep) apply_once();
      const double sec = t.seconds();
      return static_cast<double>(m.stats().flops) / sec * 1e-9;
    };

    const double gfs_scalar = time_path(per_rhs, [&] {
      for (int b = 0; b < nrhs; ++b)
        per_rhs.apply(f[static_cast<std::size_t>(b)],
                      u[static_cast<std::size_t>(b)]);
    });
    const double gfs_batch =
        time_path(batched, [&] { batched.apply_batch(fp, up); });
    // The load counter is the amortization proof: the batch streams each
    // domain's matrices once per visit whatever nrhs is, the per-RHS
    // applies nrhs times.
    const long long scalar_loads =
        static_cast<long long>(per_rhs.stats().matrix_block_loads) / repeats;
    const long long batch_loads =
        static_cast<long long>(batched.stats().matrix_block_loads) / repeats;
    const int lanes = batch_lanes(nrhs, simd::kernels().lane_width);
    std::printf("  %5d %5d %13.2f %13.2f %8.2fx %14lld %14lld\n", nrhs,
                lanes, gfs_scalar, gfs_batch, gfs_batch / gfs_scalar,
                scalar_loads, batch_loads);
  }
  std::printf("  the batch loads each domain's packed matrices once per\n"
              "  visit; for nrhs >= 2 it applies each loaded element to\n"
              "  all RHS lanes with unit-stride SIMD (paper Sec. VI). At\n"
              "  nrhs = 1 both columns run the one-lane block solve.\n\n");
}

void end_to_end(int nrhs, double tolerance, int schwarz_iterations) {
  const Geometry geom({8, 8, 8, 8});
  auto gauge = random_gauge_field<double>(geom, 0.25, 11);
  gauge.make_time_antiperiodic();

  // Small basis + weak preconditioner: each solve spans several
  // FGMRES-DR cycles, so the first RHS harvests a deflated subspace and
  // the remaining RHS have something to recycle. A strong-preconditioner
  // single-cycle solve would finish before ever deflating.
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 8;
  cfg.deflation_size = 4;
  cfg.schwarz_iterations = schwarz_iterations;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = tolerance;
  DDSolver solver(geom, gauge, -0.25, 1.0, cfg);

  const std::int32_t origin = geom.index({0, 0, 0, 0});
  std::vector<FermionField<double>> b(static_cast<std::size_t>(nrhs)),
      x(static_cast<std::size_t>(nrhs));
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    b[ii] = FermionField<double>(geom.volume());
    x[ii] = FermionField<double>(geom.volume());
    b[ii][origin].s[i / kNumColors].c[i % kNumColors] =
        Complex<double>(1, 0);
  }

  std::printf("-- End-to-end: DDSolver, 8^4 lattice, %d point sources, "
              "tol %.0e --\n", nrhs, tolerance);

  Timer t_seq;
  std::int64_t seq_iters = 0;
  bool seq_ok = true;
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    x[ii].zero();
    const auto st = solver.solve(b[ii], x[ii]);
    seq_iters += st.iterations;
    seq_ok = seq_ok && st.converged;
  }
  const double sec_seq = t_seq.seconds();

  for (auto& xi : x) xi.zero();
  Timer t_bat;
  const auto stats = solver.solve_batch(b, x);
  const double sec_bat = t_bat.seconds();
  std::int64_t bat_iters = 0;
  int recycled = 0;
  bool bat_ok = true;
  for (const auto& st : stats) {
    bat_iters += st.iterations;
    recycled += st.recycle_projections;
    bat_ok = bat_ok && st.converged;
  }

  std::printf("  sequential: %5lld outer iterations, %6.2f s%s\n",
              static_cast<long long>(seq_iters), sec_seq,
              seq_ok ? "" : "  [NOT CONVERGED]");
  std::printf("  batched:    %5lld outer iterations, %6.2f s   "
              "(%d/%d RHS recycled the deflation subspace)%s\n",
              static_cast<long long>(bat_iters), sec_bat, recycled,
              nrhs - 1, bat_ok ? "" : "  [NOT CONVERGED]");
  std::printf("  iteration ratio batched/sequential: %.2f\n\n",
              static_cast<double>(bat_iters) /
                  static_cast<double>(seq_iters));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header(
      "Multi-RHS batched Schwarz solves",
      "paper Sec. VI (multi right-hand-side batching, future work)",
      smoke ? "(--smoke: reduced tolerances and batch list)" : "");

  const std::vector<int> batches =
      smoke ? std::vector<int>{1, 12} : std::vector<int>{1, 2, 4, 8, 12};
  model_sweep(batches);
  measured_counters(batches);
  // The acceptance batch list for the lane-vectorized comparison is fixed
  // ({1, 4, 8, 12}); smoke mode only trims the repeat count.
  lane_throughput({1, 4, 8, 12}, /*repeats=*/smoke ? 1 : 3);
  if (smoke)
    end_to_end(/*nrhs=*/4, /*tolerance=*/1e-9, /*schwarz_iterations=*/1);
  else
    end_to_end(/*nrhs=*/12, /*tolerance=*/1e-9, /*schwarz_iterations=*/1);
  return 0;
}
