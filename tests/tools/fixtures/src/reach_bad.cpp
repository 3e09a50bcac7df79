// parallel-reachability fixture: a throw two calls deep, a serial fault
// hook and a shared-stats mutation one call deep, the same three hazards
// written directly in a region body, and an analyze-safe barrier that
// must keep the walk out.

struct Error {};

int helper_throws(int x) {
  if (x < 0) throw Error{};
  return x;
}

int deep(int x) { return helper_throws(x); }

// analyze-safe(parallel-reachability): fixture barrier — the throw below
// must never be reported through this function.
int blessed(int x) {
  if (x < -1000000) throw Error{};
  return x;
}

void region_throw(int* a, int n) {
#pragma omp parallel for default(none) shared(a, n)  // EXPECT: parallel-reachability
  for (int i = 0; i < n; ++i) a[i] = deep(a[i]) + blessed(a[i]);
}

struct FaultInjector {
  bool maybe_fault(int k) { return k == 0; }
};
struct Stats {
  long hits = 0;
};

struct Op {
  FaultInjector* injector_ = nullptr;
  Stats stats_;

  void hook_hazard() {
    if (injector_ != nullptr && injector_->maybe_fault(0)) stats_.hits += 1;
  }

  void sweep(int n) {
#pragma omp parallel for default(none) shared(n)  // EXPECT: parallel-reachability
    for (int i = 0; i < n; ++i) hook_hazard();
  }
};

// Hazards written directly in the region body, found without a
// callgraph step.
struct Counters {
  long x = 0;
};

struct Sweeper {
  FaultInjector* injector_ = nullptr;
  Counters stats_;

  void inline_hook(int n) {
#pragma omp parallel for default(none) shared(n)  // EXPECT: parallel-reachability
    for (int i = 0; i < n; ++i)
      if (injector_->maybe_fault(i)) continue;
  }

  void inline_stats(int n) {
#pragma omp parallel for default(none) shared(n)  // EXPECT: parallel-reachability
    for (int i = 0; i < n; ++i) stats_.x += i;
  }
};

#define LQCD_PRAGMA_SIMD _Pragma("omp simd")

void simd_throw(float* a, int n) {
  LQCD_PRAGMA_SIMD  // EXPECT: parallel-reachability
  for (int i = 0; i < n; ++i) {
    if (a[i] < 0.0f) throw Error{};
    a[i] = 2.0f * a[i];
  }
}

// Qualified calls: `Q::name(...)` resolves within class Q, and a
// qualifier naming no class is a type parameter, whose calls reach
// member functions only. The vector-traits call V::sub below must not be
// resolved to the throwing free function sub(); Checked::run still is.
float sub(float a, float b) {
  if (a < b) throw Error{};
  return a - b;
}

struct Lanes {
  static float sub(float a, float b) { return a - b; }
};

struct Checked {
  static float run(float a) {
    if (a < 0.0f) throw Error{};
    return a;
  }
};

template <class V>
float chunk_body(const V&, float a, float b) {
  return V::sub(a, b);
}

void region_traits(float* a, int n) {
#pragma omp parallel for default(none) shared(a, n)
  for (int i = 0; i < n; ++i) a[i] = chunk_body(Lanes{}, a[i], 1.0f);
}

void region_class_qualified(float* a, int n) {
#pragma omp parallel for default(none) shared(a, n)  // EXPECT: parallel-reachability
  for (int i = 0; i < n; ++i) a[i] = Checked::run(a[i]);
}

// A vector space's methods share their names with the traits calls and
// with free functions, but lookup never reaches them from those calls: a
// `V::` call targets static members only, and a namespace-qualified call,
// or an unqualified one in a free function, targets free functions. The
// throwing methods below must stay unreached.
struct Space {
  float sub(float a, float b) const {
    if (a < b) throw Error{};
    return a - b;
  }
  float half(float a) const {
    if (a < 0.0f) throw Error{};
    return 0.5f * a;
  }
};

namespace ns {
float half(float a) { return 0.5f * a; }
}  // namespace ns

float quarter(float a) { return half(half(a)); }

void region_free_calls(float* a, int n) {
#pragma omp parallel for default(none) shared(a, n)
  for (int i = 0; i < n; ++i) a[i] = ns::half(a[i]) + quarter(a[i]);
}
