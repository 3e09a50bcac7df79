// Clean fixture: exercises every pass's trigger shape in its correct
// form — the analyzer must report NOTHING anchored in this file.

#include <mutex>

// Bit-exact kernel with separated mul/add; this TU's synthetic compile
// entry carries -ffp-contract=off.
void dslash_lanes(const float* in, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    const float t = in[i] * 2.0f;
    out[i] = t;
  }
}

int clamped(int x) { return x < 0 ? 0 : x; }

void good_region(int* a, int n) {
#pragma omp parallel for schedule(static) default(none) shared(a, n)
  for (int i = 0; i < n; ++i) a[i] = clamped(a[i]);
}

class Ledger {
 public:
  void add(long v) {
    std::lock_guard<std::mutex> g(mu_);
    sum_ = sum_ + v;
  }
  long read() {
    std::lock_guard<std::mutex> g(mu_);
    return sum_;
  }

 private:
  std::mutex mu_;
  long sum_ = 0;
};
