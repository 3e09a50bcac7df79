// Lane-packing batch scheduler for the SolverService.
//
// Requests queue FIFO. A dispatch takes the queue head, then packs every
// queued request with the SAME SetupKey (same packed matrices, same
// operator — the only requests DDSolver::solve_batch() can run in
// lockstep) into one batch, up to max_lanes. If the batch is not full the
// scheduler holds the head for at most window_seconds from its submission
// before flushing a partial batch: bounded batching delay, never
// unbounded waiting for lane-mates that may not come.
//
// Fairness: the queue head is in EVERY dispatched batch, so a request
// waits at most window_seconds plus the solves ahead of it — a stream of
// hot-configuration requests cannot starve a cold-configuration one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "lqcd/base/timer.h"
#include "lqcd/service/request.h"
#include "lqcd/service/setup_cache.h"
#include "lqcd/simd/dispatch.h"

namespace lqcd {

struct BatchPolicy {
  /// Lane cap per dispatch. The default is a multiple of every SIMD
  /// backend's lane width, so a full default batch runs the batched
  /// Schwarz sweep with no padding lanes on any host, and how requests
  /// are batched does not depend on the host's backend.
  int max_lanes = simd::kCommonLaneWidth;
  /// Maximum time a queue head may wait for lane-mates before a partial
  /// batch is flushed.
  double window_seconds = 0.05;
};

/// A submitted request waiting for dispatch.
struct PendingRequest {
  std::uint64_t id = 0;
  SolveRequest request;
  SetupKey key;
  std::promise<SolveResult> promise;
  Timer queued;  ///< started at submission; read at dispatch & completion
};

class BatchScheduler {
 public:
  explicit BatchScheduler(BatchPolicy policy) : policy_(policy) {
    LQCD_CHECK(policy_.max_lanes >= 1);
  }

  /// Enqueue a request. Fails (leaving `p` untouched) once close() has
  /// run: a request accepted here is GUARANTEED to be dispatched — either
  /// by a worker or by the post-join drain in shutdown() — so a push that
  /// raced shutdown must be refused rather than stranded in the queue
  /// with its promise never fulfilled.
  bool push(PendingRequest&& p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking dispatch for worker threads: waits for a head request, then
  /// for the batch to fill or the head's batching window to expire.
  /// Returns an empty vector only after close().
  std::vector<PendingRequest> next_batch() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return {};  // closed and drained
      // Hold the head while lane-mates may still arrive.
      while (!closed_) {
        if (count_head_key_locked() >= policy_.max_lanes) break;
        const double remain =
            policy_.window_seconds - queue_.front().queued.seconds();
        if (remain <= 0.0) break;
        cv_.wait_for(lock, std::chrono::duration<double>(remain));
        if (queue_.empty()) break;  // another worker took the head
      }
      if (!queue_.empty()) return gather_locked();
    }
  }

  /// Non-blocking dispatch for synchronous drain() mode: the window is
  /// treated as already expired — whatever matches the head goes now.
  std::vector<PendingRequest> try_next_batch() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return {};
    return gather_locked();
  }

  /// Wake every waiter; subsequent next_batch() calls still drain queued
  /// requests, then return empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  /// The head counts itself without a key comparison, as gather_locked()
  /// takes it: a key that does not equal itself must not strand the head.
  int count_head_key_locked() const {
    const SetupKey& key = queue_.front().key;
    int n = 1;
    for (std::size_t i = 1; i < queue_.size(); ++i)
      if (queue_[i].key == key) ++n;
    return n;
  }

  /// Extract the head unconditionally and every later queued request
  /// sharing its key, FIFO order, up to max_lanes. Requires the lock held
  /// and a non-empty queue.
  std::vector<PendingRequest> gather_locked() {
    const SetupKey key = queue_.front().key;
    std::vector<PendingRequest> batch;
    batch.push_back(std::move(queue_.front()));
    std::vector<PendingRequest> keep;
    keep.reserve(queue_.size());
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      PendingRequest& p = queue_[i];
      if (p.key == key && static_cast<int>(batch.size()) < policy_.max_lanes)
        batch.push_back(std::move(p));
      else
        keep.push_back(std::move(p));
    }
    queue_ = std::move(keep);
    return batch;
  }

  BatchPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PendingRequest> queue_;  ///< FIFO: front = oldest
  bool closed_ = false;
};

}  // namespace lqcd
