// Multi-RHS batched solves (paper Sec. VI): batched Schwarz sweeps,
// deflation-subspace recycling across right-hand sides, the work-model
// nrhs extension, and the solver-config/stats wiring fixes that ride
// along (stagnation parameters, merged fallback stats).
#include <gtest/gtest.h>

#include "lqcd/core/dd_solver.h"
#include "lqcd/knc/work_model.h"

namespace lqcd {
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

double true_relative_residual(const WilsonCloverOperator<double>& op,
                              const FermionField<double>& b,
                              const FermionField<double>& x) {
  FermionField<double> r(b.size());
  op.apply(x, r);
  sub(b, r, r);
  return norm(r) / norm(b);
}

/// Config that forces multiple FGMRES-DR cycles (small basis, weak
/// preconditioner), so deflated restarts — and hence a harvestable
/// recycling subspace — actually occur. A single strong-preconditioner
/// cycle would converge before ever deflating, leaving nothing to
/// recycle and no cycle boundary for the stagnation logic to inspect.
DDSolverConfig batch_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 3;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-10;
  return cfg;
}

// ---------------------------------------------------------------------------
// Tentpole: solve_batch consistency with solve.
// ---------------------------------------------------------------------------

TEST(MultiRhs, BatchConvergesEveryRhsWithNoMoreTotalIterations) {
  // The propagator workload: 12 spin-color point sources. Every RHS must
  // reach the tolerance, and the recycled deflation subspace must make
  // the batched total outer iteration count no worse than 12 sequential
  // solves.
  Problem prob({8, 8, 8, 8}, 0.7, 321);
  DDSolverConfig cfg = batch_config();
  DDSolver solver(prob.geom, prob.gauge, 0.05, 1.0, cfg);

  const int nrhs = kNumSpins * kNumColors;
  const std::int32_t origin = prob.geom.index({0, 0, 0, 0});
  std::vector<FermionField<double>> b(static_cast<std::size_t>(nrhs)),
      x(static_cast<std::size_t>(nrhs));
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    b[ii] = FermionField<double>(prob.geom.volume());
    x[ii] = FermionField<double>(prob.geom.volume());
    b[ii][origin].s[i / kNumColors].c[i % kNumColors] =
        Complex<double>(1, 0);
  }

  std::int64_t seq_iters = 0;
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const auto st = solver.solve(b[ii], x[ii]);
    ASSERT_TRUE(st.converged) << "sequential RHS " << i;
    seq_iters += st.iterations;
  }

  for (auto& xi : x) xi.zero();
  const auto stats = solver.solve_batch(b, x);
  std::int64_t bat_iters = 0;
  int recycled = 0;
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    EXPECT_TRUE(stats[ii].converged) << "batched RHS " << i;
    EXPECT_LT(true_relative_residual(solver.op(), b[ii], x[ii]), 2e-10)
        << "batched RHS " << i;
    bat_iters += stats[ii].iterations;
    recycled += stats[ii].recycle_projections;
  }
  EXPECT_LE(bat_iters, seq_iters)
      << "batched=" << bat_iters << " sequential=" << seq_iters;
  // RHS 0 seeds the subspace; the later RHS must actually use it.
  EXPECT_GE(recycled, 1);
  EXPECT_EQ(stats[0].recycle_projections, 0);
}

TEST(MultiRhs, StatsAccumulateAcrossSolveAndSolveBatchCalls) {
  // Every outer preconditioner application — from solve() or from any
  // lane of solve_batch() — is exactly one Schwarz application, and the
  // counters accumulate across calls until reset_stats().
  Problem prob({8, 8, 8, 8}, 0.7, 331);
  DDSolverConfig cfg = batch_config();
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);

  FermionField<double> x(prob.geom.volume());
  const auto s1 = solver.solve(prob.b, x);
  const std::int64_t after_solve = solver.schwarz_stats().applications;
  EXPECT_EQ(after_solve, s1.precond_applications);

  std::vector<FermionField<double>> bb(3), xx(3);
  for (int i = 0; i < 3; ++i) {
    bb[static_cast<std::size_t>(i)] = FermionField<double>(prob.geom.volume());
    xx[static_cast<std::size_t>(i)] = FermionField<double>(prob.geom.volume());
    gaussian(bb[static_cast<std::size_t>(i)],
             static_cast<std::uint64_t>(400 + i));
  }
  const auto sb = solver.solve_batch(bb, xx);
  std::int64_t batch_applications = 0;
  for (const auto& st : sb) batch_applications += st.precond_applications;
  EXPECT_EQ(solver.schwarz_stats().applications,
            after_solve + batch_applications);
  EXPECT_GT(solver.schwarz_stats().matrix_block_loads, 0);

  solver.reset_stats();
  EXPECT_EQ(solver.schwarz_stats().applications, 0);
  EXPECT_EQ(solver.schwarz_stats().matrix_block_loads, 0);
  EXPECT_EQ(solver.schwarz_stats().sweeps, 0);
}

// ---------------------------------------------------------------------------
// Satellite: merged Schwarz stats must include fallback sweeps.
// ---------------------------------------------------------------------------

TEST(DDSolverStats, MergedStatsIncludeSinglePrecisionFallbackSweeps) {
  // Inject fp16-overflow faults so the precision bridge retries on the
  // single-precision fallback preconditioner. Every retry is a Schwarz
  // application on the FALLBACK object; before the fix schwarz_stats()
  // reported only the half-precision primary and those sweeps vanished.
  Problem prob({8, 8, 8, 8}, 0.7, 221);
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 2;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-10;
  cfg.half_precision_matrices = true;
  cfg.max_iterations = 4000;

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kFp16Overflow;
  fic.seed = 29;
  fic.first_opportunity = 2;
  fic.max_events = 2;
  FaultInjector injector(fic);

  cfg.resilience.enabled = true;
  cfg.resilience.schwarz_injector = &injector;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  FermionField<double> x(prob.geom.volume());
  const auto stats = solver.solve(prob.b, x);

  EXPECT_TRUE(stats.converged);
  const SchwarzStats merged = solver.schwarz_stats();
  EXPECT_GE(merged.precision_fallbacks, 1);
  // One application per outer preconditioner call on the primary, plus
  // one per fallback retry — the merged view must account for both.
  EXPECT_EQ(merged.applications,
            stats.precond_applications + merged.precision_fallbacks);
}

// ---------------------------------------------------------------------------
// Work model: nrhs scales spinor terms, never matrix bytes.
// ---------------------------------------------------------------------------

TEST(WorkModel, NrhsDefaultMatchesSingleRhsDescriptor) {
  const Coord block = {8, 4, 4, 4};
  const auto w1 = knc::block_solve_work(block, 5, true);
  const auto w2 = knc::block_solve_work(block, 5, true, 1);
  EXPECT_EQ(w1.flops, w2.flops);
  EXPECT_EQ(w1.matrix_bytes, w2.matrix_bytes);
  EXPECT_EQ(w1.l2_bytes_per_schur, w2.l2_bytes_per_schur);
  EXPECT_EQ(w1.pack_bytes, w2.pack_bytes);
  EXPECT_EQ(w1.working_set_bytes, w2.working_set_bytes);
  EXPECT_EQ(w1.kernel.mem_bytes, w2.kernel.mem_bytes);
  EXPECT_EQ(w1.kernel.l2_bytes, w2.kernel.l2_bytes);
}

TEST(WorkModel, MatrixBytesChargedOncePerBatchedVisit) {
  const Coord block = {8, 4, 4, 4};
  const auto w1 = knc::block_solve_work(block, 5, true, 1);
  const auto w12 = knc::block_solve_work(block, 5, true, 12);

  EXPECT_EQ(w12.matrix_bytes, w1.matrix_bytes);
  EXPECT_EQ(w12.flops, 12.0 * w1.flops);
  EXPECT_EQ(w12.pack_bytes, 12.0 * w1.pack_bytes);
  // Memory traffic: matrices once + 12x the per-RHS spinor streams.
  EXPECT_EQ(w12.kernel.mem_bytes,
            w1.matrix_bytes + 12.0 * (w1.kernel.mem_bytes - w1.matrix_bytes));

  // Batching must multiply the arithmetic intensity, but by less than
  // nrhs (the spinor traffic still scales).
  const double ai1 = knc::arithmetic_intensity(w1.kernel);
  const double ai12 = knc::arithmetic_intensity(w12.kernel);
  EXPECT_GT(ai12, 1.5 * ai1);
  EXPECT_LT(ai12, 12.0 * ai1);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: per-lane tolerances, stale-setup detection,
// cross-configuration recycle poisoning.
// ---------------------------------------------------------------------------

TEST(BatchSolveOptions, MixedToleranceLanesEachReachTheirOwnTarget) {
  // Regression: batching a tight-tolerance request with looser lane-mates
  // must not declare the tight lane converged at a looser threshold. Each
  // engine carries its own FGMRESDRParams, so the tight lane keeps
  // iterating after the loose lanes stop.
  Problem prob({8, 8, 8, 8}, 0.7, 401);
  DDSolverConfig cfg = batch_config();
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);

  const std::vector<double> tols = {1e-4, 1e-10, 1e-7};
  std::vector<FermionField<double>> b, x;
  for (std::size_t i = 0; i < tols.size(); ++i) {
    b.emplace_back(prob.geom.volume());
    gaussian(b.back(), 500 + i);
    x.emplace_back(prob.geom.volume());
  }

  BatchSolveOptions options;
  options.tolerances = tols;
  const auto st = solver.solve_batch(b, x, options);
  ASSERT_EQ(st.size(), tols.size());
  for (std::size_t i = 0; i < tols.size(); ++i) {
    EXPECT_TRUE(st[i].converged) << "lane " << i;
    // The lane's TRUE residual must meet the lane's OWN target.
    EXPECT_LE(true_relative_residual(solver.op(), b[i], x[i]), tols[i])
        << "lane " << i;
  }
  // The 1e-10 lane cannot have been stopped at the 1e-4 lane's target.
  EXPECT_LE(st[1].final_relative_residual, 1e-10);
  EXPECT_GT(st[1].iterations, st[0].iterations);
}

TEST(StaleSetup, MutatedGaugeFieldIsRefusedAtSolveEntry) {
  // Regression: the packed Schwarz matrices are a snapshot of the gauge
  // field at construction. Mutating the field afterwards (an HMC step,
  // a smearing pass) and solving again used to silently solve the OLD
  // operator; now the entry check refuses with a structured breakdown.
  Problem prob({8, 8, 8, 8}, 0.7, 411);
  DDSolverConfig cfg = batch_config();
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);

  FermionField<double> x(prob.geom.volume());
  ASSERT_TRUE(solver.solve(prob.b, x).converged);

  prob.gauge.link(0, 0) = Complex<double>(1.5, 0.0) * prob.gauge.link(0, 0);

  FermionField<double> x2(prob.geom.volume());
  const auto st = solver.solve(prob.b, x2);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.breakdown, Breakdown::kStaleSetup);
  EXPECT_EQ(st.iterations, 0);  // no arithmetic ran
  EXPECT_EQ(norm(x2), 0.0);     // iterate untouched

  std::vector<FermionField<double>> b{prob.b},
      xb{FermionField<double>(prob.geom.volume())};
  const auto stb = solver.solve_batch(b, xb);
  ASSERT_EQ(stb.size(), 1u);
  EXPECT_EQ(stb[0].breakdown, Breakdown::kStaleSetup);

  // Rebuilding on the mutated field clears the condition.
  DDSolver rebuilt(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  FermionField<double> x3(prob.geom.volume());
  EXPECT_TRUE(rebuilt.solve(prob.b, x3).converged);
}

TEST(RecycleCache, PersistentSubspaceSkipsSeedSolveOnNextBatch) {
  // A second batch on the SAME configuration finds a valid recycled
  // subspace in the cache: no solo seeding solve, every lane projects
  // its initial residual (recycle_projections > 0 for lane 0 too).
  Problem prob({8, 8, 8, 8}, 0.7, 421);
  DDSolverConfig cfg = batch_config();
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);

  RecycleCache cache;
  BatchSolveOptions options;
  options.recycle = &cache;

  auto make_batch = [&](std::uint64_t seed, int n) {
    std::vector<FermionField<double>> f;
    for (int i = 0; i < n; ++i) {
      f.emplace_back(prob.geom.volume());
      gaussian(f.back(), seed + static_cast<std::uint64_t>(i));
    }
    return f;
  };

  auto b1 = make_batch(600, 3);
  std::vector<FermionField<double>> x1(3);
  for (auto& x : x1) x = FermionField<double>(prob.geom.volume());
  const auto s1 = solver.solve_batch(b1, x1, options);
  ASSERT_TRUE(s1[0].converged);
  EXPECT_EQ(s1[0].recycle_projections, 0);  // lane 0 seeded the subspace
  ASSERT_TRUE(cache.space.valid());
  EXPECT_EQ(cache.gauge_key, prob.gauge.content_checksum());

  auto b2 = make_batch(700, 3);
  std::vector<FermionField<double>> x2(3);
  for (auto& x : x2) x = FermionField<double>(prob.geom.volume());
  const auto s2 = solver.solve_batch(b2, x2, options);
  for (std::size_t i = 0; i < s2.size(); ++i) {
    EXPECT_TRUE(s2[i].converged) << "lane " << i;
    EXPECT_GT(s2[i].recycle_projections, 0) << "lane " << i;
    EXPECT_LE(true_relative_residual(solver.op(), b2[i], x2[i]),
              cfg.tolerance)
        << "lane " << i;
  }
}

TEST(RecycleCache, ConfigurationFlipDiscardsHarvestedSubspace) {
  // Regression: a harmonic-Ritz subspace harvested on configuration A is
  // meaningless on configuration B. Presenting A's cache to B's solver
  // must silently discard the subspace and re-key the cache — never
  // project against it.
  Problem prob_a({8, 8, 8, 8}, 0.7, 431);
  Problem prob_b({8, 8, 8, 8}, 0.7, 441);  // different configuration
  DDSolverConfig cfg = batch_config();
  DDSolver solver_a(prob_a.geom, prob_a.gauge, 0.1, 1.0, cfg);
  DDSolver solver_b(prob_b.geom, prob_b.gauge, 0.1, 1.0, cfg);

  RecycleCache cache;
  BatchSolveOptions options;
  options.recycle = &cache;

  std::vector<FermionField<double>> ba{prob_a.b},
      xa{FermionField<double>(prob_a.geom.volume())};
  ASSERT_TRUE(solver_a.solve_batch(ba, xa, options)[0].converged);
  ASSERT_TRUE(cache.space.valid());
  const std::uint32_t key_a = cache.gauge_key;

  std::vector<FermionField<double>> bb{prob_b.b},
      xb{FermionField<double>(prob_b.geom.volume())};
  const auto sb = solver_b.solve_batch(bb, xb, options);
  ASSERT_TRUE(sb[0].converged);
  // The flip was detected: A's subspace was dropped (no projection) and
  // the cache now belongs to B.
  EXPECT_EQ(sb[0].recycle_projections, 0);
  EXPECT_NE(cache.gauge_key, key_a);
  EXPECT_EQ(cache.gauge_key, prob_b.gauge.content_checksum());
  EXPECT_LE(true_relative_residual(solver_b.op(), bb[0], xb[0]),
            cfg.tolerance);
}

}  // namespace
}  // namespace lqcd
