// Per-configuration setup cache for the SolverService.
//
// A DDSolverSetup (operators, domain partition, packed Schwarz matrices)
// is the expensive, immutable part of a solve. The service caches one per
// (gauge checksum+digest, mass, csw) key with LRU eviction, and hangs a
// small pool of solver contexts — DDSolver scratch plus the persistent
// deflation RecycleCache — off each entry so consecutive batches on the
// same configuration skip both the re-pack AND the solo deflation-seeding
// solve.
//
// The cached setup OWNS a deep copy of the gauge field (and geometry):
// a client's field only has to stay alive until its request completes,
// while a cache entry may serve later hits long after that field is gone.
//
// Locking: the global cache mutex covers only LRU bookkeeping. The
// expensive build (operators + full Schwarz pack) runs under a per-entry
// latch, so only same-key requests wait on a build; dispatches hitting
// already-built configurations, stats() and size() never stall behind it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "lqcd/core/dd_solver.h"

namespace lqcd {

/// Identity of a cached setup. Two requests are batchable exactly when
/// their keys are equal: same packed matrices, same operator. Content
/// identity pairs the Fletcher-32 checksum (the stale-setup reference)
/// with an independent 64-bit FNV-1a digest, so two distinct gauge
/// configurations alias only on a simultaneous collision in both hash
/// families — a 32-bit sum alone is too narrow to key reuse of packed
/// matrices across millions of solves.
struct SetupKey {
  std::uint32_t gauge_checksum = 0;  ///< GaugeField::content_checksum()
  std::uint64_t gauge_digest = 0;    ///< GaugeField::content_digest64()
  double mass = 0.0;
  double csw = 0.0;

  friend bool operator==(const SetupKey& a, const SetupKey& b) noexcept {
    return a.gauge_checksum == b.gauge_checksum &&
           a.gauge_digest == b.gauge_digest && a.mass == b.mass &&
           a.csw == b.csw;
  }
  friend bool operator!=(const SetupKey& a, const SetupKey& b) noexcept {
    return !(a == b);
  }
};

struct SetupCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Builds rejected because the gauge field no longer matched the key
  /// computed at submission (the client mutated it in flight).
  std::uint64_t stale_rejects = 0;

  bool operator==(const SetupCacheStats&) const = default;
};

/// One cached configuration: the shared immutable setup plus a pool of
/// per-solve contexts. A context bundles the mutable half of a solver
/// (Schwarz scratch, precision bridge, monitors) with the configuration's
/// persistent deflation subspace.
///
/// An entry is inserted into the cache in the UNBUILT state; the first
/// dispatch builds the owning DDSolverSetup via ensure_built() while
/// later same-key dispatches block on the entry's latch.
class CachedConfiguration {
 public:
  /// A solver context leased to one dispatch at a time.
  struct Context {
    std::unique_ptr<DDSolver> solver;
    RecycleCache recycle;
    bool busy = false;
  };

  CachedConfiguration(SetupKey key, const DDSolverConfig& config)
      : key_(key), config_(config) {
    // In-solve ABFT repair mutates the SHARED packed matrices, so a
    // configuration whose solves may self-heal gets exactly one context:
    // concurrent dispatches serialize instead of racing a repair.
    const bool in_solve_repair =
        config_.resilience.enabled && config_.resilience.abft.enabled;
    max_contexts_ = in_solve_repair ? 1 : 0;  // 0 = unbounded
  }

  const SetupKey& key() const noexcept { return key_; }

  /// The shared setup; null until ensure_built() succeeded.
  std::shared_ptr<DDSolverSetup> setup() const {
    std::lock_guard<std::mutex> lock(mu_);
    return setup_;
  }

  /// Build (first caller) or wait for (same-key followers) the owning
  /// setup. Runs the expensive pack WITHOUT any cache-global lock held.
  /// Returns false when the gauge field's content no longer matches the
  /// key — the client mutated it between submit() and dispatch — in which
  /// case nothing is cached and the dispatch must refuse with
  /// Breakdown::kStaleSetup. Rethrows what a failed build throws. A build
  /// that threw an lqcd::Error (a singular clover term, say) fails the
  /// same way every time, so the entry keeps that error and every later
  /// call rethrows it without building again.
  bool ensure_built(const Geometry& geom, const GaugeField<double>& gauge) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (setup_ != nullptr) return true;
      if (failed_) std::rethrow_exception(failed_);
      if (!building_) break;  // no builder — this caller tries (or retries
                              // after another caller's stale-source fail)
      cv_.wait(lock);
    }
    building_ = true;
    lock.unlock();

    // Re-verify content against the submit-time key before packing: a
    // setup built from a mutated field would be cached under a key that
    // promises different content.
    std::shared_ptr<DDSolverSetup> built;
    std::exception_ptr error;
    bool deterministic = false;
    try {
      if (gauge.content_checksum() == key_.gauge_checksum &&
          gauge.content_digest64() == key_.gauge_digest)
        built = DDSolverSetup::make_owning(geom, gauge, key_.mass, key_.csw,
                                           config_);
    } catch (const Error&) {
      error = std::current_exception();
      deterministic = true;
    } catch (...) {
      // Anything else (std::bad_alloc, say) may pass on a retry: waiting
      // followers then try on their own.
      error = std::current_exception();
    }

    lock.lock();
    building_ = false;
    if (built != nullptr) setup_ = std::move(built);
    if (deterministic) failed_ = error;
    cv_.notify_all();
    if (error) std::rethrow_exception(error);
    return setup_ != nullptr;
  }

  /// A context leased for one dispatch, returned to the pool when the
  /// lease ends, however the dispatch ends.
  class Lease {
   public:
    explicit Lease(CachedConfiguration& conf)
        : conf_(&conf), ctx_(conf.acquire_context()) {}
    ~Lease() { conf_->release(ctx_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Context* operator->() const noexcept { return ctx_; }

   private:
    CachedConfiguration* conf_;
    Context* ctx_;
  };

 private:
  /// Lease a free context, growing the pool if allowed; blocks on the
  /// entry's condition variable while the pool is at its cap and fully
  /// leased (no busy-wait — the ABFT single-context gate can hold a
  /// context for a whole solve).
  Context* acquire_context() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      for (auto& c : contexts_)
        if (!c->busy) {
          c->busy = true;
          return c.get();
        }
      if (max_contexts_ == 0 ||
          contexts_.size() < static_cast<std::size_t>(max_contexts_)) {
        contexts_.push_back(std::make_unique<Context>());
        Context* c = contexts_.back().get();
        c->solver = std::make_unique<DDSolver>(setup_, config_);
        c->recycle.gauge_key = setup_->gauge_checksum();
        c->busy = true;
        return c;
      }
      cv_.wait(lock);
    }
  }

  void release(Context* c) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      c->busy = false;
    }
    cv_.notify_one();
  }

  SetupKey key_;
  DDSolverConfig config_;
  int max_contexts_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< build completion + context release
  bool building_ = false;
  std::exception_ptr failed_;  ///< the lqcd::Error a build threw
  std::shared_ptr<DDSolverSetup> setup_;
  std::vector<std::unique_ptr<Context>> contexts_;
};

/// LRU map SetupKey -> CachedConfiguration, capacity in configurations.
/// Thread-safe; a looked-up entry is returned as a shared_ptr so eviction
/// can never pull a setup out from under an in-flight dispatch.
class SetupCache {
 public:
  explicit SetupCache(std::size_t capacity) : capacity_(capacity) {
    LQCD_CHECK(capacity_ >= 1);
  }

  /// Look up (hit) or build (miss, possibly evicting LRU) the entry for
  /// `key`. Only LRU bookkeeping runs under the cache mutex; the build
  /// itself runs under the entry's own latch, so concurrent requests for
  /// the same new configuration wait and then hit, while other keys (and
  /// stats()/size()) proceed. Returns nullptr — caching nothing — when
  /// the gauge content no longer matches `key` (mutated after submit).
  /// A build that throws an lqcd::Error keeps its entry, which rethrows
  /// that error on every later acquire and ages out of the LRU like any
  /// other; any other exception drops the entry and is rethrown.
  /// `was_hit` (optional) reports which path was taken.
  std::shared_ptr<CachedConfiguration> acquire(
      const SetupKey& key, const Geometry& geom,
      const GaugeField<double>& gauge, const DDSolverConfig& config,
      bool* was_hit = nullptr) {
    std::shared_ptr<CachedConfiguration> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if ((*it)->key() == key) {
          lru_.splice(lru_.begin(), lru_, it);  // move-to-front
          ++stats_.hits;
          if (was_hit != nullptr) *was_hit = true;
          entry = lru_.front();
          break;
        }
      }
      if (entry == nullptr) {
        ++stats_.misses;
        if (was_hit != nullptr) *was_hit = false;
        if (lru_.size() >= capacity_) {
          lru_.pop_back();
          ++stats_.evictions;
        }
        entry = std::make_shared<CachedConfiguration>(key, config);
        lru_.push_front(entry);
      }
    }
    bool built = false;
    try {
      built = entry->ensure_built(geom, gauge);
    } catch (const Error&) {
      throw;
    } catch (...) {
      drop(entry.get());
      throw;
    }
    if (built) return entry;
    drop(entry.get());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stale_rejects;
    return nullptr;
  }

  SetupCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

 private:
  /// Drop an entry that holds no setup and no remembered error (it may
  /// already have been evicted by a concurrent miss — erase by identity,
  /// not position).
  void drop(const CachedConfiguration* entry) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it)
      if (it->get() == entry) {
        lru_.erase(it);
        break;
      }
  }

  std::size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used. Linear scan is fine: capacity is a
  /// handful of configurations, each worth megabytes of packed matrices.
  std::list<std::shared_ptr<CachedConfiguration>> lru_;
  SetupCacheStats stats_;
};

}  // namespace lqcd
