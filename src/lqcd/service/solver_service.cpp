#include "lqcd/service/solver_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lqcd/lattice/domain_partition.h"

namespace lqcd {

SolverService::SolverService(SolverServiceConfig config)
    : config_(config),
      scheduler_(config.batch),
      cache_(config.setup_cache_capacity) {
  LQCD_CHECK(config_.worker_threads >= 0);
  workers_.reserve(static_cast<std::size_t>(config_.worker_threads));
  for (int t = 0; t < config_.worker_threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

SolverService::~SolverService() { shutdown(); }

std::future<SolveResult> SolverService::submit(SolveRequest request) {
  LQCD_CHECK_MSG(request.geom != nullptr && request.gauge != nullptr,
                 "submit() needs a geometry and a gauge configuration");
  LQCD_CHECK_MSG(request.source.size() == request.geom->volume(),
                 "source size must match the lattice volume");
  LQCD_CHECK_MSG(request.gauge->geometry().dims() == request.geom->dims(),
                 "the gauge field's lattice must match the request geometry");
  // A lattice the service's block cannot tile would fail only at
  // dispatch, inside the setup build.
  DomainPartition::check_tiling(*request.geom, config_.solver.block);
  // Refuse at the boundary every field no solve can honor.
  LQCD_CHECK_MSG(all_finite(request.source),
                 "source must be finite (it has a NaN or Inf entry)");
  LQCD_CHECK_MSG(std::isfinite(request.mass) && std::isfinite(request.csw),
                 "mass and csw must be finite (mass "
                     << request.mass << ", csw " << request.csw << ")");
  LQCD_CHECK_MSG(request.tolerance > 0.0 && request.tolerance < 1.0,
                 "tolerance must lie in (0, 1), got " << request.tolerance);
  LQCD_CHECK_MSG(std::isfinite(request.deadline_seconds) &&
                     request.deadline_seconds >= 0.0,
                 "deadline_seconds must be finite and >= 0, got "
                     << request.deadline_seconds);
  PendingRequest p;
  p.id = next_id_.fetch_add(1);
  // Client-thread content hashing: the cache key, and the reference the
  // stale-setup guard re-verifies at dispatch.
  p.key = SetupKey{request.gauge->content_checksum(),
                   request.gauge->content_digest64(), request.mass,
                   request.csw};
  p.request = std::move(request);
  std::future<SolveResult> fut = p.promise.get_future();
  if (!scheduler_.push(std::move(p))) {
    // Raced (or followed) shutdown: the queue is closed and the final
    // drain may already have run, so nothing would ever fulfill this
    // promise. Fail fast instead of handing back a forever-blocking
    // future. (push() left `p` intact on failure.)
    p.promise.set_exception(std::make_exception_ptr(
        Error("SolverService::submit after shutdown()")));
    return fut;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  return fut;
}

void SolverService::drain() {
  for (;;) {
    std::vector<PendingRequest> batch = scheduler_.try_next_batch();
    if (batch.empty()) return;
    dispatch(std::move(batch));
  }
}

void SolverService::shutdown() {
  if (shut_down_.exchange(true)) return;  // idempotent, thread-safe
  // close() refuses every subsequent push under the scheduler mutex, so
  // each accepted request is either taken by a worker before the join or
  // swept up by the drain below — none can be stranded with an
  // unfulfilled promise.
  scheduler_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  drain();  // synchronous mode, or anything accepted just before close
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServiceStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

void SolverService::worker_loop() {
  for (;;) {
    std::vector<PendingRequest> batch = scheduler_.next_batch();
    if (batch.empty()) return;
    dispatch(std::move(batch));
  }
}

void SolverService::refuse_stale(std::vector<PendingRequest> batch) {
  const auto n = batch.size();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.completed += static_cast<std::uint64_t>(n);
    stats_.stale_refusals += static_cast<std::uint64_t>(n);
  }
  for (auto& p : batch) {
    SolveResult res;
    res.id = p.id;
    res.completion_index = completion_counter_.fetch_add(1);
    res.stats.converged = false;
    res.stats.breakdown = Breakdown::kStaleSetup;
    res.queue_seconds = p.queued.seconds();
    res.total_seconds = res.queue_seconds;
    res.batch_lanes = static_cast<int>(n);
    p.promise.set_value(std::move(res));
  }
}

void SolverService::fail(std::vector<PendingRequest> batch,
                         const std::exception_ptr& error) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.completed += static_cast<std::uint64_t>(batch.size());
  }
  for (auto& p : batch) p.promise.set_exception(error);
}

std::vector<SolveResult> SolverService::solve(
    std::vector<PendingRequest>& batch) {
  const int nrhs = static_cast<int>(batch.size());
  const SetupKey key = batch.front().key;
  const SolveRequest& head = batch.front().request;

  bool cache_hit = false;
  std::shared_ptr<CachedConfiguration> conf = cache_.acquire(
      key, *head.geom, *head.gauge, config_.solver, &cache_hit);
  // The gauge field no longer matches the submit-time key: the client
  // mutated it in flight (nothing was cached, no arithmetic ran).
  if (conf == nullptr) return {};

  // Lease a solver context; blocks (condition variable, no spin) when the
  // configuration caps its pool (in-solve ABFT repair mutates shared
  // packed data) and every context is leased by a concurrent dispatch.
  CachedConfiguration::Lease ctx(*conf);

  std::vector<double> queue_seconds(static_cast<std::size_t>(nrhs));
  std::vector<FermionField<double>> b;
  b.reserve(static_cast<std::size_t>(nrhs));
  std::vector<FermionField<double>> x;
  x.reserve(static_cast<std::size_t>(nrhs));
  BatchSolveOptions options;
  options.tolerances.reserve(static_cast<std::size_t>(nrhs));
  options.recycle = &ctx->recycle;
  for (int i = 0; i < nrhs; ++i) {
    const auto li = static_cast<std::size_t>(i);
    queue_seconds[li] = batch[li].queued.seconds();
    options.tolerances.push_back(batch[li].request.tolerance);
    b.push_back(std::move(batch[li].request.source));
    x.emplace_back(b.back().size());  // zero initial guess
  }

  Timer solve_timer;
  std::vector<SolverStats> stats = ctx->solver->solve_batch(b, x, options);
  const double solve_seconds = solve_timer.seconds();

  std::vector<SolveResult> results(static_cast<std::size_t>(nrhs));
  for (int i = 0; i < nrhs; ++i) {
    const auto li = static_cast<std::size_t>(i);
    SolveResult& res = results[li];
    res.id = batch[li].id;
    res.completion_index = completion_counter_.fetch_add(1);
    res.solution = std::move(x[li]);
    res.stats = stats[li];
    res.queue_seconds = queue_seconds[li];
    res.solve_seconds = solve_seconds;
    res.total_seconds = batch[li].queued.seconds();
    res.batch_lanes = nrhs;
    res.setup_cache_hit = cache_hit;
    const double deadline = batch[li].request.deadline_seconds;
    res.deadline_missed = deadline > 0.0 && res.total_seconds > deadline;
  }
  return results;
}

void SolverService::dispatch(std::vector<PendingRequest> batch) {
  std::vector<SolveResult> results;
  try {
    results = solve(batch);
  } catch (...) {
    // A batch no solve can honor (a singular clover term, say) fails
    // every one of its futures with the error; the worker keeps serving.
    fail(std::move(batch), std::current_exception());
    return;
  }
  if (results.empty()) {
    refuse_stale(std::move(batch));
    return;
  }

  const auto nrhs = static_cast<std::uint64_t>(results.size());
  std::uint64_t n_converged = 0;
  std::uint64_t n_deadline_missed = 0;
  for (const SolveResult& res : results) {
    if (res.stats.converged) ++n_converged;
    if (res.deadline_missed) ++n_deadline_missed;
  }
  // Commit the counters BEFORE fulfilling any promise: a client that
  // observed its future ready must find this batch already reflected in
  // stats().
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.completed += nrhs;
    ++stats_.batches;
    if (nrhs < static_cast<std::uint64_t>(config_.batch.max_lanes))
      ++stats_.partial_batches;
    stats_.lanes_solved += nrhs;
    stats_.converged += n_converged;
    stats_.deadline_misses += n_deadline_missed;
  }
  for (std::size_t i = 0; i < results.size(); ++i)
    batch[i].promise.set_value(std::move(results[i]));
}

}  // namespace lqcd
