// One value per OpenMP thread, each on its own cache line.
//
// Every piece of per-thread state in the library is a PerThread<T>: the
// partial sums of the BLAS reductions, the Schwarz sweep's scratch and
// SchwarzStats, the counter shards of a ParallelFaultScope. A thread
// reaches its own slot with local() inside a parallel region; serial code
// after the region reads the slots in thread-index order. A merge is
// therefore the same sequence of operations on every run, and integer
// counters merge to the same totals at every thread count. This header is
// the only place that asks OpenMP for the thread count or a thread's id.
#pragma once

#include <cstddef>
#include <vector>

#include "lqcd/base/aligned.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

namespace lqcd {

template <class T>
class PerThread {
 public:
  /// One value-initialized slot per thread the next parallel region may
  /// start.
  PerThread() : slots_(static_cast<std::size_t>(thread_limit())) {}

  /// Add slots up to the current thread limit, which omp_set_num_threads()
  /// may have raised since construction. Existing slots keep their values.
  /// Serial only.
  void grow_to_thread_limit() {
    const auto n = static_cast<std::size_t>(thread_limit());
    if (slots_.size() < n) slots_.resize(n);
  }

  /// The calling thread's slot. The region must not run more threads than
  /// there are slots.
  T& local() noexcept {
    return slots_[static_cast<std::size_t>(thread_index())].value;
  }

  /// Call f on every slot, in thread-index order. Serial only.
  template <class F>
  void for_each(F&& f) {
    for (Slot& s : slots_) f(s.value);
  }

  /// `init` with every slot added by `+=`, in thread-index order.
  template <class U>
  U merged(U init) const {
    for (const Slot& s : slots_) init += s.value;
    return init;
  }

 private:
  /// Threads the next parallel region may start (1 without OpenMP).
  static int thread_limit() noexcept {
#if defined(LQCD_HAVE_OPENMP)
    return omp_get_max_threads();
#else
    return 1;
#endif
  }

  /// The calling thread's index in its team (0 outside a parallel region).
  static int thread_index() noexcept {
#if defined(LQCD_HAVE_OPENMP)
    return omp_get_thread_num();
#else
    return 0;
#endif
  }

  struct alignas(kFieldAlignment) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace lqcd
