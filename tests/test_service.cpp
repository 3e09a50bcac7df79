// SolverService: lane-packing batch scheduler, checksum-keyed setup
// cache, persistent deflation recycling, FIFO fairness and the typed
// refusals at the submit boundary. A lone request against a direct solve
// and 1 vs 4 workers under fault injection are rows of
// test_contracts.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "lqcd/service/request.h"
#include "lqcd/service/scheduler.h"
#include "lqcd/service/setup_cache.h"
#include "lqcd/service/solver_service.h"

namespace lqcd {
namespace {

struct Problem {
  Geometry geom;
  GaugeField<double> gauge;

  Problem(const Coord& dims, double disorder, std::uint64_t seed)
      : geom(dims), gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()) {}
};

/// Small, fast solver configuration (16 domains on the 8x4x4x4 test
/// lattice). Deliberately weak preconditioner and tiny basis so solves
/// span multiple FGMRES-DR cycles — deflated restarts must occur for a
/// recyclable subspace to be harvested at all.
DDSolverConfig service_solver_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 2, 2, 2};
  cfg.basis_size = 4;
  cfg.deflation_size = 2;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 1;
  cfg.tolerance = 1e-8;
  return cfg;
}

SolveRequest make_request(const Problem& prob, std::uint64_t seed,
                          double tolerance = 1e-8) {
  SolveRequest req;
  req.geom = &prob.geom;
  req.gauge = &prob.gauge;
  req.mass = 0.1;
  req.csw = 1.0;
  req.tolerance = tolerance;
  req.source = FermionField<double>(prob.geom.volume());
  gaussian(req.source, seed);
  return req;
}

// ---------------------------------------------------------------------------
// BatchScheduler policy
// ---------------------------------------------------------------------------

TEST(BatchScheduler, GathersHeadKeyRequestsFifo) {
  BatchPolicy policy;
  policy.max_lanes = 4;
  BatchScheduler sched(policy);

  auto pend = [](std::uint64_t id, std::uint32_t checksum) {
    PendingRequest p;
    p.id = id;
    p.key = SetupKey{checksum, checksum, 0.1, 1.0};
    return p;
  };
  // A A B A: the head's key (A) is gathered FIFO; B stays queued.
  sched.push(pend(0, 7));
  sched.push(pend(1, 7));
  sched.push(pend(2, 9));
  sched.push(pend(3, 7));

  auto batch = sched.try_next_batch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batch[2].id, 3u);
  EXPECT_EQ(sched.depth(), 1u);

  auto rest = sched.try_next_batch();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 2u);
  EXPECT_TRUE(sched.try_next_batch().empty());
}

TEST(BatchScheduler, LaneCapSplitsOversizedRuns) {
  BatchPolicy policy;
  policy.max_lanes = 2;
  BatchScheduler sched(policy);
  for (std::uint64_t i = 0; i < 5; ++i) {
    PendingRequest p;
    p.id = i;
    p.key = SetupKey{1, 1, 0.1, 1.0};
    sched.push(std::move(p));
  }
  EXPECT_EQ(sched.try_next_batch().size(), 2u);
  EXPECT_EQ(sched.try_next_batch().size(), 2u);
  EXPECT_EQ(sched.try_next_batch().size(), 1u);
}

TEST(BatchScheduler, HeadWhoseKeyIsUnequalToItselfIsStillDispatched) {
  // A NaN mass makes a key that never equals itself. The head must still
  // leave the queue: an empty batch for a non-empty queue reads as
  // "closed" to a worker, which then exits.
  BatchScheduler sched(BatchPolicy{});
  for (std::uint64_t i = 0; i < 2; ++i) {
    PendingRequest p;
    p.id = i;
    p.key = SetupKey{1, 1, std::numeric_limits<double>::quiet_NaN(), 1.0};
    sched.push(std::move(p));
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    const auto batch = sched.try_next_batch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, i);
    EXPECT_EQ(sched.depth(), 1u - i);
  }
}

// ---------------------------------------------------------------------------
// Service end-to-end (synchronous drain() mode: deterministic)
// ---------------------------------------------------------------------------

TEST(Service, DeflationOffServesALoneRequest) {
  // deflation_size = 0 (plain restarted FGMRES) gives solve_batch no
  // recycle space, while the service still passes its context's recycle
  // cache: a lone request must not touch the absent space.
  Problem prob({8, 4, 4, 4}, 0.7, 105);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.solver.deflation_size = 0;
  scfg.worker_threads = 0;

  SolverService service(scfg);
  auto fut = service.submit(make_request(prob, 205));
  service.drain();
  const SolveResult res = fut.get();
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.batch_lanes, 1);
}

TEST(Service, FifoFairnessAcrossConfigurations) {
  // Interleaved submissions on two configurations: the scheduler packs
  // each dispatch around the queue HEAD, so configuration A's requests
  // (submitted first) complete before B's — a hot configuration cannot
  // starve the head.
  Problem prob_a({8, 4, 4, 4}, 0.7, 111);
  Problem prob_b({8, 4, 4, 4}, 0.7, 121);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.batch.max_lanes = 4;
  scfg.worker_threads = 0;

  SolverService service(scfg);
  std::vector<std::future<SolveResult>> futs;
  futs.push_back(service.submit(make_request(prob_a, 300)));
  futs.push_back(service.submit(make_request(prob_b, 301)));
  futs.push_back(service.submit(make_request(prob_a, 302)));
  futs.push_back(service.submit(make_request(prob_b, 303)));
  service.drain();

  std::vector<SolveResult> res;
  for (auto& f : futs) res.push_back(f.get());
  // Batches: {A0, A2} then {B1, B3}, FIFO within and across.
  EXPECT_EQ(res[0].completion_index, 0u);
  EXPECT_EQ(res[2].completion_index, 1u);
  EXPECT_EQ(res[1].completion_index, 2u);
  EXPECT_EQ(res[3].completion_index, 3u);
  for (const auto& r : res) {
    EXPECT_TRUE(r.stats.converged);
    EXPECT_EQ(r.batch_lanes, 2);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.partial_batches, 2u);
  EXPECT_EQ(s.cache.misses, 2u);
  EXPECT_EQ(s.cache.hits, 0u);
}

TEST(Service, PartialLaneFlushOnWindowExpiry) {
  // Threaded mode: two requests, lane cap four. The worker must flush a
  // partial two-lane batch once the head's batching window expires
  // instead of waiting forever for lane-mates.
  Problem prob({8, 4, 4, 4}, 0.7, 131);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.batch.max_lanes = 4;
  scfg.batch.window_seconds = 0.05;
  scfg.worker_threads = 1;

  SolverService service(scfg);
  auto f0 = service.submit(make_request(prob, 400));
  auto f1 = service.submit(make_request(prob, 401));
  const SolveResult r0 = f0.get();
  const SolveResult r1 = f1.get();

  EXPECT_TRUE(r0.stats.converged);
  EXPECT_TRUE(r1.stats.converged);
  EXPECT_EQ(r0.batch_lanes, 2);
  EXPECT_EQ(r1.batch_lanes, 2);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.partial_batches, 1u);
}

TEST(Service, SetupCacheHitMissEvictionCounters) {
  // Capacity-2 LRU over three configurations: A(miss) A(hit) B(miss)
  // C(miss, evicts A) A(miss, evicts B).
  Problem prob_a({8, 4, 4, 4}, 0.7, 141);
  Problem prob_b({8, 4, 4, 4}, 0.7, 151);
  Problem prob_c({8, 4, 4, 4}, 0.7, 161);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.setup_cache_capacity = 2;
  scfg.worker_threads = 0;

  SolverService service(scfg);
  auto run = [&](const Problem& p, std::uint64_t seed) {
    auto fut = service.submit(make_request(p, seed));
    service.drain();
    return fut.get();
  };
  EXPECT_FALSE(run(prob_a, 500).setup_cache_hit);
  EXPECT_TRUE(run(prob_a, 501).setup_cache_hit);
  EXPECT_FALSE(run(prob_b, 502).setup_cache_hit);
  EXPECT_FALSE(run(prob_c, 503).setup_cache_hit);
  EXPECT_FALSE(run(prob_a, 504).setup_cache_hit);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 4u);
  EXPECT_EQ(s.cache.evictions, 2u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.converged, 5u);
}

TEST(Service, DeadlineOverrunIsFlaggedNotDropped) {
  Problem prob({8, 4, 4, 4}, 0.7, 171);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;

  SolverService service(scfg);
  SolveRequest req = make_request(prob, 600);
  req.deadline_seconds = 1e-9;  // impossible: any solve overruns it
  auto fut = service.submit(std::move(req));
  service.drain();
  const SolveResult res = fut.get();

  EXPECT_TRUE(res.stats.converged);  // still solved, never dropped
  EXPECT_TRUE(res.deadline_missed);
  EXPECT_EQ(service.stats().deadline_misses, 1u);
}

TEST(Service, PersistentRecyclingKicksInOnSecondBatch) {
  // Consecutive dispatches on one configuration share the context's
  // RecycleCache: the second batch skips the solo seeding phase, so
  // EVERY lane projects against the recycled subspace.
  Problem prob({8, 4, 4, 4}, 0.7, 181);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.batch.max_lanes = 2;
  scfg.worker_threads = 0;

  SolverService service(scfg);
  std::vector<std::future<SolveResult>> futs;
  for (std::uint64_t i = 0; i < 4; ++i)
    futs.push_back(service.submit(make_request(prob, 700 + i)));
  service.drain();

  // First batch: lane 0 seeds (no projection). Second batch: both lanes
  // project against the recycled subspace.
  EXPECT_EQ(futs[0].get().stats.recycle_projections, 0);
  EXPECT_GT(futs[2].get().stats.recycle_projections, 0);
  EXPECT_GT(futs[3].get().stats.recycle_projections, 0);
  EXPECT_EQ(service.stats().converged, 4u);
}

TEST(Service, CachedSetupOutlivesClientGaugeField) {
  // The request contract only requires the client's gauge field to live
  // until its request completes; the cached setup deep-copies it. A later
  // identical-content field at a NEW address must hit the cache and solve
  // against the owned copy — with the old raw-pointer setup this was a
  // use-after-free (caught by the asan leg).
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;
  SolverService service(scfg);

  auto run = [&](const Problem& p, std::uint64_t seed) {
    auto fut = service.submit(make_request(p, seed));
    service.drain();
    return fut.get();
  };
  {
    Problem prob({8, 4, 4, 4}, 0.7, 211);
    const SolveResult res = run(prob, 900);
    EXPECT_TRUE(res.stats.converged);
    EXPECT_FALSE(res.setup_cache_hit);
  }  // client gauge field destroyed; the cache entry stays
  // Same dims/disorder/seed -> bit-identical links, different storage.
  Problem prob_again({8, 4, 4, 4}, 0.7, 211);
  const SolveResult res = run(prob_again, 901);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_TRUE(res.setup_cache_hit);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(Service, SubmitAfterShutdownFailsFastInsteadOfHanging) {
  Problem prob({8, 4, 4, 4}, 0.7, 221);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;
  SolverService service(scfg);

  auto f0 = service.submit(make_request(prob, 910));
  service.shutdown();  // drains the accepted request
  EXPECT_TRUE(f0.get().stats.converged);

  // The queue is closed: the promise must carry an error, not block.
  auto f1 = service.submit(make_request(prob, 911));
  EXPECT_THROW(f1.get(), Error);
  EXPECT_EQ(service.stats().submitted, 1u);
}

TEST(Service, InFlightGaugeMutationRefusedAsStaleSetup) {
  // submit() keys the request by the field content at submission time; a
  // client that mutates the field before dispatch gets a structured
  // kStaleSetup refusal, and the poisoned setup is never cached.
  Problem prob({8, 4, 4, 4}, 0.7, 231);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;
  SolverService service(scfg);

  auto fut = service.submit(make_request(prob, 920));
  prob.gauge.link(0, 0) = Complex<double>(2, 0) * prob.gauge.link(0, 0);
  service.drain();
  const SolveResult res = fut.get();

  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.breakdown, Breakdown::kStaleSetup);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.stale_refusals, 1u);
  EXPECT_EQ(s.cache.stale_rejects, 1u);
  EXPECT_EQ(s.completed, 1u);

  // The mutated content resubmitted under its OWN (new) key solves fine.
  auto fut2 = service.submit(make_request(prob, 921));
  service.drain();
  EXPECT_TRUE(fut2.get().stats.converged);
}

TEST(Service, NanMassRequestIsRefusedAndWorkerKeepsServing) {
  // A NaN mass makes a setup key that never equals itself. Accepted, it
  // made the scheduler hand the worker an empty batch, which the worker
  // read as "closed": it exited and every later request stayed queued.
  // submit() must refuse it, and the next valid request must complete.
  // The wait is bounded so a regression fails instead of hanging.
  Problem prob({8, 4, 4, 4}, 0.7, 241);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 1;
  SolverService service(scfg);

  SolveRequest bad = make_request(prob, 940);
  bad.mass = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(service.submit(std::move(bad)), Error);

  auto fut = service.submit(make_request(prob, 941));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_TRUE(fut.get().stats.converged);
  EXPECT_EQ(service.stats().submitted, 1u);
}

TEST(Service, SubmitRefusesNonFiniteOrOutOfRangeFields) {
  Problem prob({8, 4, 4, 4}, 0.7, 251);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;
  SolverService service(scfg);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto refused = [&](auto mutate) {
    SolveRequest req = make_request(prob, 950);
    mutate(req);
    try {
      service.submit(std::move(req));
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.mass = inf; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.csw = nan; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.csw = -inf; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.tolerance = 0.0; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.tolerance = 1.0; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.tolerance = -1e-8; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.tolerance = nan; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.deadline_seconds = -1.0; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.deadline_seconds = inf; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) { r.deadline_seconds = nan; }));
  EXPECT_TRUE(refused([&](SolveRequest& r) {
    r.source[5].s[2].c[1] = Complex<double>(nan, 0.0);
  }));
  EXPECT_TRUE(refused([&](SolveRequest& r) {
    r.source[0].s[0].c[0] = Complex<double>(0.0, inf);
  }));
  EXPECT_TRUE(refused([&](SolveRequest& r) {
    r.source[r.source.size() - 1].s[3].c[2] = Complex<double>(-inf, 1.0);
  }));
  EXPECT_EQ(service.stats().submitted, 0u);

  // The boundary values that stay valid: no deadline, a tight tolerance.
  auto fut = service.submit(make_request(prob, 951, 1e-9));
  service.drain();
  EXPECT_TRUE(fut.get().stats.converged);
}

TEST(Service, SubmitRefusesAnUntileableLatticeOrAMismatchedGaugeField) {
  // The block {4, 2, 2, 2} splits t = 6 into three domains, an odd grid
  // the two-colored sweep cannot run; accepted, the request failed only
  // inside the setup build at dispatch.
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 0;
  SolverService service(scfg);
  Problem untileable({8, 4, 4, 6}, 0.7, 281);
  EXPECT_THROW(service.submit(make_request(untileable, 970)), Error);

  Problem prob({8, 4, 4, 4}, 0.7, 282);
  Problem longer({8, 4, 4, 8}, 0.7, 283);
  SolveRequest mismatched = make_request(prob, 971);
  mismatched.gauge = &longer.gauge;
  EXPECT_THROW(service.submit(std::move(mismatched)), Error);
  EXPECT_EQ(service.stats().submitted, 0u);

  auto fut = service.submit(make_request(prob, 972));
  service.drain();
  EXPECT_TRUE(fut.get().stats.converged);
}

TEST(Service, SingularCloverRequestFailsItsFutureAndWorkerKeepsServing) {
  // mass -4 with csw 0 makes every clover block singular, so the setup
  // build throws at dispatch. The worker must hand that error to the
  // request's future and go on serving; it used to die in
  // std::terminate. The waits are bounded so a regression fails instead
  // of hanging.
  Problem prob({8, 4, 4, 4}, 0.7, 291);
  SolverServiceConfig scfg;
  scfg.solver = service_solver_config();
  scfg.worker_threads = 1;
  SolverService service(scfg);

  SolveRequest singular = make_request(prob, 980);
  singular.mass = -4.0;
  singular.csw = 0.0;
  auto bad = service.submit(std::move(singular));
  ASSERT_EQ(bad.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_THROW(bad.get(), Error);

  auto fut = service.submit(make_request(prob, 981));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_TRUE(fut.get().stats.converged);
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(SetupCache, ThrowingBuildReleasesItsLatchAndRemembersItsError) {
  // Two concurrent acquires of a configuration whose build throws (a
  // singular clover term): both must return with the error. A build that
  // left its latch set made every later acquire of the key wait forever.
  // The acquires run on detached threads that own what they touch, so a
  // regression fails the bounded wait instead of hanging the test.
  auto prob = std::make_shared<Problem>(Coord{8, 4, 4, 4}, 0.7, 301);
  auto cache = std::make_shared<SetupCache>(2);
  const SetupKey key{prob->gauge.content_checksum(),
                     prob->gauge.content_digest64(), -4.0, 0.0};
  std::vector<std::future<bool>> threw;
  for (int t = 0; t < 2; ++t) {
    auto done = std::make_shared<std::promise<bool>>();
    threw.push_back(done->get_future());
    std::thread([prob, cache, key, done] {
      try {
        cache->acquire(key, prob->geom, prob->gauge, service_solver_config());
        done->set_value(false);
      } catch (const Error&) {
        done->set_value(true);
      }
    }).detach();
  }
  for (auto& f : threw) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready)
        << "an acquire is stuck behind a failed build";
    EXPECT_TRUE(f.get());
  }
  // The entry keeps the error: a later acquire rethrows it without
  // building the operator and inverting the clover term again.
  EXPECT_THROW(
      cache->acquire(key, prob->geom, prob->gauge, service_solver_config()),
      Error);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->size(), 1u);
}

}  // namespace
}  // namespace lqcd
