// SolverService — a persistent propagator farm in front of DDSolver.
//
//   client threads                service
//   -------------                 ------------------------------------
//   submit(SolveRequest) ──────▶  BatchScheduler (FIFO + lane packing)
//        │ future<SolveResult>        │ next_batch(): same-key requests,
//        ▼                            ▼ bounded batching window
//   future.get()  ◀────────────  worker: SetupCache (LRU, checksum-keyed)
//                                  └▶ DDSolver::solve_batch (lockstep
//                                     lanes, per-lane tolerances,
//                                     persistent deflation recycling)
//
// The setup cache pays the packed gauge/clover construction once per
// configuration; the per-configuration RecycleCache carries the deflation
// subspace across batches so later batches skip the solo seeding solve.
// With worker_threads = 0 the service runs synchronously: submit() only
// queues, drain() dispatches inline on the caller's thread — the
// deterministic mode the unit tests use.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lqcd/service/request.h"
#include "lqcd/service/scheduler.h"
#include "lqcd/service/setup_cache.h"

namespace lqcd {

struct SolverServiceConfig {
  /// Base solver configuration for every context the service builds.
  /// `solver.tolerance` is the default; each request's own tolerance is
  /// applied per lane at dispatch.
  DDSolverConfig solver;
  BatchPolicy batch;
  /// LRU capacity of the per-configuration setup cache.
  std::size_t setup_cache_capacity = 4;
  /// Dispatch threads. 0 = synchronous mode: no threads, the caller
  /// pumps dispatches via drain().
  int worker_threads = 1;
};

/// Aggregate service counters. All fields are functions of WHAT was
/// submitted, not of thread interleaving, provided dispatch composition
/// is deterministic (e.g. submissions land within the batching window) —
/// which tests/test_contracts.cpp pins down at 1 and 4 workers.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< futures made ready, errors included
  std::uint64_t batches = 0;
  std::uint64_t partial_batches = 0;  ///< dispatched below max_lanes
  std::uint64_t lanes_solved = 0;
  std::uint64_t converged = 0;
  std::uint64_t deadline_misses = 0;
  /// Requests refused with Breakdown::kStaleSetup because the gauge field
  /// was mutated between submit() and dispatch.
  std::uint64_t stale_refusals = 0;
  SetupCacheStats cache;

  bool operator==(const ServiceStats&) const = default;
};

class SolverService {
 public:
  explicit SolverService(SolverServiceConfig config);
  /// Drains every queued request, then joins the workers.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueue one right-hand side. The gauge checksum+digest (= setup-cache
  /// key, stale-setup reference) is computed HERE, on the client's thread,
  /// keeping the content hashing off the dispatch path. The request's
  /// source is consumed. A submission that races or follows shutdown() is
  /// refused: the returned future carries an lqcd::Error instead of
  /// blocking forever on a promise no worker will ever fulfill. Throws
  /// lqcd::Error, and queues nothing, on a request without geometry or
  /// gauge field, a gauge field on another lattice, a lattice the
  /// configured block cannot tile (DomainPartition::check_tiling), a
  /// source of the wrong size, a non-finite mass or csw, a tolerance
  /// outside (0, 1), or a negative or non-finite deadline. A request that
  /// passes these checks but whose setup or solve throws (a singular
  /// clover term, say) gets that exception through its future.
  std::future<SolveResult> submit(SolveRequest request);

  /// Dispatch queued requests inline on the calling thread until the
  /// queue is empty. The synchronous pump for worker_threads = 0 (legal
  /// but rarely useful alongside workers).
  void drain();

  /// Stop accepting blocking waits, drain the queue, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  const SolverServiceConfig& config() const noexcept { return config_; }

 private:
  void worker_loop();
  /// Run one batch end-to-end and fulfill its promises: with results, with
  /// the stale-setup refusal, or with the exception its solve threw.
  void dispatch(std::vector<PendingRequest> batch);
  /// The batch's results, or none when its gauge field was mutated
  /// between submit() and dispatch. Throws what the setup or solve throws.
  std::vector<SolveResult> solve(std::vector<PendingRequest>& batch);
  /// Fulfill every promise of a batch with `error`.
  void fail(std::vector<PendingRequest> batch,
            const std::exception_ptr& error);
  /// Fulfill every promise of a batch whose gauge field was mutated
  /// between submit() and dispatch with Breakdown::kStaleSetup.
  void refuse_stale(std::vector<PendingRequest> batch);

  SolverServiceConfig config_;
  BatchScheduler scheduler_;
  SetupCache cache_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> completion_counter_{0};
  mutable std::mutex stats_mu_;
  ServiceStats stats_;  ///< cache field filled from cache_ on read
  std::vector<std::thread> workers_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace lqcd
