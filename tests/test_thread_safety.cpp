// Deterministic-merge contract of the concurrency-safe instrumentation:
// ParallelFaultScope (pre-drawn fire decisions + per-thread shards),
// FaultInjectorStats / CommStats mergeability, and the end-to-end
// guarantee that SchwarzPreconditioner produces EXACTLY the same counters
// and the same bits at OMP_NUM_THREADS = 1 and 4 (no tolerance anywhere —
// EXPECT_EQ only).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lqcd/gauge/gauge_field.h"
#include "lqcd/schwarz/schwarz.h"
#include "lqcd/vnode/collectives.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

namespace lqcd {
namespace {

void set_threads(int n) {
#if defined(LQCD_HAVE_OPENMP)
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int max_threads() {
#if defined(LQCD_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Field-level EXPECT_EQ: every real component must match bit-for-bit.
void expect_fields_identical(const FermionField<float>& a,
                             const FermionField<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < a.size(); ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        if (a[i].s[sp].c[c].real() != b[i].s[sp].c[c].real()) ++mismatches;
        if (a[i].s[sp].c[c].imag() != b[i].s[sp].c[c].imag()) ++mismatches;
      }
  EXPECT_EQ(mismatches, 0);
}

void expect_injector_stats_equal(const FaultInjectorStats& a,
                                 const FaultInjectorStats& b) {
  EXPECT_EQ(a.opportunities, b.opportunities);
  EXPECT_EQ(a.events, b.events);
  for (int s = 0; s < kNumFaultSites; ++s) {
    EXPECT_EQ(a.site_opportunities[s], b.site_opportunities[s]) << "site " << s;
    EXPECT_EQ(a.site_events[s], b.site_events[s]) << "site " << s;
  }
}

void expect_schwarz_stats_equal(const SchwarzStats& a, const SchwarzStats& b) {
  EXPECT_EQ(a.applications, b.applications);
  EXPECT_EQ(a.block_solves, b.block_solves);
  EXPECT_EQ(a.mr_iterations, b.mr_iterations);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.boundary_bytes, b.boundary_bytes);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.matrix_block_loads, b.matrix_block_loads);
  EXPECT_EQ(a.sweeps, b.sweeps);
}

// ---------------------------------------------------------------------------
// Stats mergeability (ISSUE satellite: operator+= keeps the per-site split)
// ---------------------------------------------------------------------------

TEST(StatsMerge, FaultInjectorStatsPreservesPerSiteSplit) {
  FaultInjectorStats a, b;
  a.opportunities = 7;
  a.events = 2;
  a.site_opportunities[static_cast<int>(FaultSite::kDomainSolve)] = 5;
  a.site_events[static_cast<int>(FaultSite::kDomainSolve)] = 2;
  a.site_opportunities[static_cast<int>(FaultSite::kHaloExchange)] = 2;
  b.opportunities = 3;
  b.events = 1;
  b.site_opportunities[static_cast<int>(FaultSite::kDomainSolve)] = 3;
  b.site_events[static_cast<int>(FaultSite::kDomainSolve)] = 1;

  const FaultInjectorStats sum = a + b;
  EXPECT_EQ(sum.opportunities, 10);
  EXPECT_EQ(sum.events, 3);
  EXPECT_EQ(sum.opportunities_at(FaultSite::kDomainSolve), 8);
  EXPECT_EQ(sum.events_at(FaultSite::kDomainSolve), 3);
  EXPECT_EQ(sum.opportunities_at(FaultSite::kHaloExchange), 2);
  EXPECT_EQ(sum.events_at(FaultSite::kHaloExchange), 0);

  // Commutativity: shard merge order must not matter.
  expect_injector_stats_equal(a + b, b + a);
}

TEST(StatsMerge, CommStatsAccumulates) {
  CommStats a, b;
  a.messages = 4;
  a.bytes = 400;
  a.halo_exchanges = 2;
  a.retransmits = 1;
  b.messages = 6;
  b.bytes = 600;
  b.allreduces = 3;
  b.rank_deaths = 1;
  const CommStats sum = a + b;
  EXPECT_EQ(sum.messages, 10);
  EXPECT_EQ(sum.bytes, 1000);
  EXPECT_EQ(sum.halo_exchanges, 2);
  EXPECT_EQ(sum.allreduces, 3);
  EXPECT_EQ(sum.retransmits, 1);
  EXPECT_EQ(sum.rank_deaths, 1);
}

// ---------------------------------------------------------------------------
// ParallelFaultScope semantics
// ---------------------------------------------------------------------------

FaultInjectorConfig scope_config() {
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 99;
  fic.probability = 0.35;
  fic.bit = 30;
  return fic;
}

/// Visit all keys of a scope in the given order, corrupting per-key rows
/// of `data`; returns which keys fired.
std::vector<char> visit_keys(ParallelFaultScope& scope,
                             const std::vector<std::int64_t>& order,
                             std::vector<float>& data, std::int64_t row) {
  std::vector<char> fired(order.size(), 0);
  for (const std::int64_t k : order)
    fired[static_cast<std::size_t>(k)] = scope.maybe_corrupt_reals(
        /*tid=*/0, k, data.data() + k * row, row)
                                             ? 1
                                             : 0;
  return fired;
}

TEST(ParallelFaultScope, FiredPatternIsVisitOrderInvariant) {
  const std::int64_t kKeys = 64, kRow = 8;
  std::vector<std::int64_t> forward, reverse;
  for (std::int64_t k = 0; k < kKeys; ++k) forward.push_back(k);
  for (std::int64_t k = kKeys - 1; k >= 0; --k) reverse.push_back(k);

  FaultInjector inj_a(scope_config()), inj_b(scope_config());
  std::vector<float> data_a(kKeys * kRow, 1.0f), data_b(kKeys * kRow, 1.0f);
  std::vector<char> fired_a, fired_b;
  {
    ParallelFaultScope sa(&inj_a, FaultSite::kDomainSolve, kKeys, 1);
    fired_a = visit_keys(sa, forward, data_a, kRow);
  }
  {
    ParallelFaultScope sb(&inj_b, FaultSite::kDomainSolve, kKeys, 1);
    fired_b = visit_keys(sb, reverse, data_b, kRow);
  }
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_GT(inj_a.stats().events, 0);  // non-vacuous at p = 0.35, 64 keys
  expect_injector_stats_equal(inj_a.stats(), inj_b.stats());
  // Corruption detail (element, bit) is per-key, so the DATA matches too.
  EXPECT_EQ(data_a, data_b);
}

TEST(ParallelFaultScope, HonorsMaxEventsBudget) {
  auto fic = scope_config();
  fic.probability = 1.0;
  fic.max_events = 3;
  FaultInjector inj(fic);
  std::vector<float> data(32 * 4, 1.0f);
  std::vector<std::int64_t> order;
  for (std::int64_t k = 0; k < 32; ++k) order.push_back(k);
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 32, 1);
  const auto fired = visit_keys(scope, order, data, 4);
  scope.merge();
  EXPECT_EQ(inj.stats().events, 3);
  EXPECT_EQ(inj.stats().opportunities, 32);
  // p = 1: the budget is consumed by the FIRST keys, exactly like the
  // serial hook consuming its budget on the first opportunities.
  for (std::int64_t k = 0; k < 32; ++k)
    EXPECT_EQ(fired[static_cast<std::size_t>(k)], k < 3 ? 1 : 0) << k;
}

TEST(ParallelFaultScope, HonorsFirstOpportunityWindow) {
  auto fic = scope_config();
  fic.probability = 1.0;
  fic.first_opportunity = 10;
  fic.max_events = -1;
  FaultInjector inj(fic);
  std::vector<float> data(16 * 4, 1.0f);
  std::vector<std::int64_t> order;
  for (std::int64_t k = 0; k < 16; ++k) order.push_back(k);
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 16, 1);
  const auto fired = visit_keys(scope, order, data, 4);
  scope.merge();
  EXPECT_EQ(inj.stats().opportunities, 16);
  EXPECT_EQ(inj.stats().events, 6);  // keys 10..15
  for (std::int64_t k = 0; k < 16; ++k)
    EXPECT_EQ(fired[static_cast<std::size_t>(k)], k >= 10 ? 1 : 0) << k;
}

TEST(ParallelFaultScope, MessageFaultClassIsInertAtCorruptionSite) {
  auto fic = scope_config();
  fic.fault = FaultClass::kMessageDrop;
  fic.probability = 1.0;
  FaultInjector inj(fic);
  std::vector<float> data(8 * 4, 1.0f);
  std::vector<std::int64_t> order;
  for (std::int64_t k = 0; k < 8; ++k) order.push_back(k);
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 8, 1);
  const auto fired = visit_keys(scope, order, data, 4);
  scope.merge();
  // Mirrors the serial maybe_corrupt* contract: opportunities counted,
  // nothing fires, the payload is untouched.
  EXPECT_EQ(inj.stats().opportunities, 8);
  EXPECT_EQ(inj.stats().events, 0);
  for (const char f : fired) EXPECT_EQ(f, 0);
  for (const float v : data) EXPECT_EQ(v, 1.0f);
}

TEST(ParallelFaultScope, ShardMergeIsThreadCountInvariant) {
  const std::int64_t kKeys = 48, kRow = 6;
  std::vector<std::vector<float>> runs;
  std::vector<FaultInjectorStats> stats;
  for (const int nthreads : {1, 4}) {
    set_threads(nthreads);
    FaultInjector inj(scope_config());
    std::vector<float> data(kKeys * kRow, 2.0f);
    {
      ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, kKeys,
                               max_threads());
#pragma omp parallel for schedule(dynamic) default(none) \
    shared(scope, data, kKeys, kRow)
      for (std::int64_t k = 0; k < kKeys; ++k) {
        int tid = 0;
#if defined(LQCD_HAVE_OPENMP)
        tid = omp_get_thread_num();
#endif
        scope.maybe_corrupt_reals(tid, k, data.data() + k * kRow, kRow);
      }
    }
    runs.push_back(std::move(data));
    stats.push_back(inj.stats());
  }
  set_threads(1);
  EXPECT_GT(stats[0].events, 0);
  expect_injector_stats_equal(stats[0], stats[1]);
  EXPECT_EQ(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// End-to-end: Schwarz counters and bits vs OMP_NUM_THREADS
// ---------------------------------------------------------------------------

struct Fixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<float> gauge;
  WilsonCloverOperator<float> op;
  DomainPartition part;

  Fixture()
      : geom({8, 8, 8, 8}),
        cb(geom),
        gauge([&] {
          auto gd = random_gauge_field<double>(geom, 0.7, 171);
          gd.make_time_antiperiodic();
          return convert<float>(gd);
        }()),
        op(geom, cb, gauge, 0.2f, 1.0f),
        part(geom, {4, 4, 4, 4}) {
    op.prepare_schur();
  }
};

struct SchwarzRun {
  SchwarzStats stats;
  FaultInjectorStats inj_stats;
  std::vector<FermionField<float>> u;
};

/// One full apply_batch of `nrhs` sources under fault injection at
/// `nthreads` OpenMP threads, with matrices stored as S. The
/// preconditioner is constructed while the thread pool is still at 1
/// thread when `construct_serial` is set — exercising the lazy scratch
/// growth — otherwise after the thread count is raised.
template <class S>
SchwarzRun run_schwarz(const Fixture& f, int nthreads, bool additive,
                       int nrhs, bool construct_serial) {
  set_threads(construct_serial ? 1 : nthreads);
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 4242;
  fic.probability = 0.25;
  fic.bit = 22;  // mantissa bit: perturbs without wrecking convergence
  FaultInjector inj(fic);

  SchwarzParams p;
  p.schwarz_iterations = 3;
  p.block_mr_iterations = 4;
  p.additive = additive;
  p.domain_fault_injector = &inj;
  SchwarzPreconditioner<S> m(f.part, f.op, p);
  set_threads(nthreads);

  std::vector<FermionField<float>> rhs, u;
  std::vector<const FermionField<float>*> fp;
  std::vector<FermionField<float>*> up;
  for (int b = 0; b < nrhs; ++b) {
    rhs.emplace_back(f.geom.volume());
    u.emplace_back(f.geom.volume());
    gaussian(rhs.back(), 500 + static_cast<std::uint64_t>(b));
  }
  for (int b = 0; b < nrhs; ++b) {
    fp.push_back(&rhs[static_cast<std::size_t>(b)]);
    up.push_back(&u[static_cast<std::size_t>(b)]);
  }
  m.apply_batch(fp, up);
  set_threads(1);
  return SchwarzRun{m.stats(), inj.stats(), std::move(u)};
}

/// 1 vs 4 threads must give equal stats and bit-equal corrections, for
/// single and half matrix storage (the per-visit decoded view), nrhs 1
/// (the scalar block solve) and nrhs 3 (the lane path with a padded lane),
/// and through the parallel halo update.
template <class S>
void schwarz_thread_invariance(const Fixture& f, bool additive, int nrhs) {
  SCOPED_TRACE(testing::Message() << StorageTraits<S>::name() << " nrhs "
                                  << nrhs);
  const SchwarzRun serial = run_schwarz<S>(f, 1, additive, nrhs, false);
  const SchwarzRun parallel4 = run_schwarz<S>(f, 4, additive, nrhs, false);
  // Construction at 1 thread, apply at 4: the scratch pool must grow
  // lazily instead of indexing out of bounds.
  const SchwarzRun grown = run_schwarz<S>(f, 4, additive, nrhs, true);

  // The fault hook must actually fire or the contract is untested.
  EXPECT_GT(serial.stats.injected_faults, 0);
  EXPECT_GT(serial.inj_stats.events_at(FaultSite::kDomainSolve), 0);
  // One opportunity per domain visit: iterations x domains (x1 even for
  // nrhs > 1 — the visit, not the RHS, is the opportunity).
  EXPECT_EQ(serial.inj_stats.opportunities_at(FaultSite::kDomainSolve),
            3 * f.part.num_domains());

  for (const SchwarzRun* other : {&parallel4, &grown}) {
    expect_schwarz_stats_equal(serial.stats, other->stats);
    expect_injector_stats_equal(serial.inj_stats, other->inj_stats);
    for (std::size_t b = 0; b < serial.u.size(); ++b)
      expect_fields_identical(serial.u[b], other->u[b]);
  }
}

void schwarz_thread_invariance(bool additive) {
  const Fixture f;
  for (const int nrhs : {1, 3}) {
    schwarz_thread_invariance<float>(f, additive, nrhs);
    schwarz_thread_invariance<Half>(f, additive, nrhs);
  }
}

TEST(ThreadSafety, SchwarzMultiplicativeCountersAndBitsAreThreadInvariant) {
  schwarz_thread_invariance(/*additive=*/false);
}

TEST(ThreadSafety, SchwarzAdditiveCountersAndBitsAreThreadInvariant) {
  schwarz_thread_invariance(/*additive=*/true);
}

}  // namespace
}  // namespace lqcd
