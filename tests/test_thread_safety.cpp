// Deterministic-merge contract of the concurrency-safe instrumentation:
// ParallelFaultScope (pre-drawn fire decisions + per-thread shards) and
// FaultInjectorStats / CommStats mergeability, EXPECT_EQ only. The
// end-to-end guarantee built on it (SchwarzPreconditioner counters and
// bits at OMP_NUM_THREADS = 1 and 4) is the threads row of
// test_contracts.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lqcd/resilience/fault_injector.h"
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
  EXPECT_EQ(a + b, b + a);
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
    fired[static_cast<std::size_t>(k)] =
        scope.maybe_corrupt_reals(k, data.data() + k * row, row) ? 1 : 0;
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
    ParallelFaultScope sa(&inj_a, FaultSite::kDomainSolve, kKeys);
    fired_a = visit_keys(sa, forward, data_a, kRow);
  }
  {
    ParallelFaultScope sb(&inj_b, FaultSite::kDomainSolve, kKeys);
    fired_b = visit_keys(sb, reverse, data_b, kRow);
  }
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_GT(inj_a.stats().events, 0);  // non-vacuous at p = 0.35, 64 keys
  EXPECT_EQ(inj_a.stats(), inj_b.stats());
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
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 32);
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
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 16);
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
  ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 8);
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
      ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, kKeys);
#pragma omp parallel for schedule(dynamic) default(none) \
    shared(scope, data, kKeys, kRow)
      for (std::int64_t k = 0; k < kKeys; ++k)
        scope.maybe_corrupt_reals(k, data.data() + k * kRow, kRow);
    }
    runs.push_back(std::move(data));
    stats.push_back(inj.stats());
  }
  set_threads(1);
  EXPECT_GT(stats[0].events, 0);
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_EQ(runs[0], runs[1]);
}

}  // namespace
}  // namespace lqcd
