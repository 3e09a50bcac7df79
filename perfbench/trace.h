// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a library layer in a span
// (name, start, end, parent span, request id). Spans stay in memory and
// are written out once, when the run ends. A span name is
// "<layer>.<call>"; a layer's self time is the time its spans cover minus
// the part their child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in seconds; every benchmark timestamp uses it, so spans
/// built from times measured elsewhere line up with opened spans.
inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0;  ///< steady_seconds()
  double end = 0;
  int parent = -1;   ///< index into Tracer::spans(), -1 = root
  std::uint64_t request = 0;

  std::string layer() const { return name.substr(0, name.find('.')); }
  double seconds() const { return end - start; }
};

struct LayerTotals {
  std::int64_t spans = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Thread-safe: the service workload's generator thread records spans
/// while the main thread does too.
class Tracer {
 public:
  /// Open a span starting now; close it with close().
  int open(std::string name, int parent, std::uint64_t request) {
    const double t = steady_seconds();
    return record(std::move(name), t, t, parent, request);
  }
  void close(int span) {
    const double t = steady_seconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].end = t;
  }

  /// Record a finished span whose times were measured elsewhere (e.g. the
  /// queue and dispatch times a SolveResult reports).
  int record(std::string name, double start, double end, int parent,
             std::uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Per-layer span count, total time and self time. Child spans may
  /// overlap each other (a request's submit and queue spans do), so a
  /// span's self time subtracts the union of its children's intervals.
  std::map<std::string, LayerTotals> layer_totals() const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span& s : all) {
      if (s.parent < 0) continue;
      const Span& p = all[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.start, p.start);
      const double b = std::min(s.end, p.end);
      if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
      auto& iv = children[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, reach = -1e300;
      for (const auto& [a, b] : iv) {
        covered += std::max(0.0, b - std::max(a, reach));
        reach = std::max(reach, b);
      }
      LayerTotals& t = out[all[i].layer()];
      ++t.spans;
      t.total_s += all[i].seconds();
      t.self_s += all[i].seconds() - covered;
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->open(std::move(name), parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
