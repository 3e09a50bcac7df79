// Propagator benchmark: host time-to-solution on three workloads, plus a
// per-layer ledger measured from outside the library.
//
//   propbench --workload single_rhs|propagator|service_churn|all
//             --seed N --seconds S --trace 0|1
//             [--reduced] [--out-dir DIR] [--commit TEXT]
//
// Workloads (README.md gives the rationale and the layer -> metric map):
//   single_rhs     closed loop, one caller, one source per DDSolver::solve
//   propagator     closed loop over gauge configurations: make_owning,
//                  then one 12-source DDSolver::solve_batch
//   service_churn  open loop, Poisson arrivals at a fixed rate into a
//                  SolverService over three configurations (runs by hand;
//                  too unsteady across seeds to gate a change)
//
// Every input (gauge fields, sources, arrival times, configuration draws)
// is generated from --seed before timing starts. Every solution's true
// residual is recomputed in double through WilsonCloverOperator::apply; a
// solve that did not converge, broke down or misses its tolerance counts
// as failed, and any failure makes the run exit 1 without metrics.
// Solver and Schwarz counters of a repeated input must repeat exactly
// (exit 2 otherwise).
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the workload
// with spans around every call into a layer, probes each layer's public
// entry points on the workload's own setup, prints the per-layer metrics
// and writes the span ledger to DIR. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build_info.h"
#include "host_measure.h"
#include "lqcd/service/solver_service.h"
#include "trace.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

// Build-consistency guard, compile-time half: the library's OpenMP define
// and the compiler's OpenMP mode must agree (perfbench/CMakeLists.txt
// checks the rest at configure time).
#if defined(_OPENMP) && !defined(LQCD_HAVE_OPENMP)
#error "built with OpenMP but without the library's LQCD_HAVE_OPENMP=1"
#endif
#if defined(LQCD_HAVE_OPENMP) && !defined(_OPENMP)
#error "LQCD_HAVE_OPENMP=1 without OpenMP compilation"
#endif

namespace {

using namespace lqcd;
using perfbench::ScopedSpan;
using perfbench::steady_seconds;
using perfbench::Tracer;

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks every run's output against it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"propagator_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.queue_s_p50", "s"},
    {"service.dispatch_s_p50", "s"},
    {"service.mean_lanes", "lanes"},
    {"service.partial_batch_frac", "fraction"},
    {"service.cache_hit_frac", "fraction"},
    {"service.cache_evictions", "count"},
    {"service.generator_late_s_max", "s"},
    {"service.latency_p50_s", "s"},
    {"service.latency_p95_s", "s"},
    {"service.throughput_rps", "1/s"},
    {"core.operator_s", "s"},
    {"core.pack_s", "s"},
    {"core.checksum_s", "s"},
    {"solver.iterations", "count"},
    {"solver.precond_applications", "count"},
    {"solver.matvecs", "count"},
    {"solver.global_sums", "count"},
    {"solver.recycle_projections", "count"},
    {"solver.outer_self_s", "s"},
    {"schwarz.apply_s_rhs1", "s"},
    {"schwarz.apply_s_per_rhs4", "s"},
    {"schwarz.apply_s_per_rhs12", "s"},
    {"schwarz.gflops_rhs1", "Gflop/s"},
    {"schwarz.gflops_rhs12", "Gflop/s"},
    {"schwarz.thread_speedup_rhs1", "x"},
    {"schwarz.thread_speedup_rhs12", "x"},
    {"schwarz.sweep_efficiency", "fraction"},
    {"schwarz.block_solves", "count"},
    {"schwarz.mr_iterations", "count"},
    {"schwarz.boundary_bytes", "bytes"},
    {"schwarz.matrix_block_loads", "count"},
    {"dirac.apply_s", "s"},
    {"dirac.gflops", "Gflop/s"},
    {"linalg.dot_s", "s"},
    {"simd.dslash_gflops", "Gflop/s"},
    {"simd.clover_gflops", "Gflop/s"},
    {"simd.block_solve_gflops", "Gflop/s"},
    {"simd.fp16_gbs", "GB/s"},
    {"trace.overhead_s", "s"},
};

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile. With n >= 200 samples, q = 0.95 leaves at
/// least 10 samples above the reported one.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int max_threads() {
#if defined(LQCD_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_threads(int n) {
#if defined(LQCD_HAVE_OPENMP)
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} over `defs`; every declared
/// metric must have been measured.
template <std::size_t N>
std::string metrics_json(const Metrics& m, const MetricDef (&defs)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = m.find(defs[i].name);
    if (it == m.end())
      throw std::runtime_error(std::string("metric not measured: ") +
                               defs[i].name);
    if (i) out += ", ";
    out += json_string(defs[i].name) + ": {\"value\": " +
           json_number(it->second) + ", \"unit\": " +
           json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- inputs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string out_dir = ".bench_build/perfbench";
  std::string commit = "unknown";
};

/// One workload's physics and solver configuration.
struct Physics {
  Coord dims;
  std::uint64_t ensemble = 0;  ///< seed of the fixed base ensemble
  double disorder = 0;
  double mass = 0;
  double csw = 1.0;
  DDSolverConfig cfg;
};

/// single_rhs and propagator: 8^4, disorder 0.25, mass -0.58, block 4^4,
/// m=16, k=4, ISchwarz 8, Idomain 5, tol 1e-10.
Physics dd_physics(bool reduced) {
  Physics p;
  p.dims = reduced ? Coord{8, 4, 4, 4} : Coord{8, 8, 8, 8};
  p.ensemble = 2014;
  p.disorder = 0.25;
  p.mass = -0.58;
  p.cfg.block = reduced ? Coord{4, 2, 2, 2} : Coord{4, 4, 4, 4};
  p.cfg.basis_size = 16;
  p.cfg.deflation_size = 4;
  p.cfg.schwarz_iterations = 8;
  p.cfg.block_mr_iterations = 5;
  p.cfg.tolerance = 1e-10;
  return p;
}

/// service_churn: the bench_service physics. 8^4, disorder 0.7, mass 0.1,
/// ISchwarz 6, Idomain 4, m=8, k=3, tol 1e-8.
Physics service_physics(bool reduced) {
  Physics p;
  p.dims = reduced ? Coord{8, 4, 4, 4} : Coord{8, 8, 8, 8};
  p.ensemble = 2024;
  p.disorder = 0.7;
  p.mass = 0.1;
  p.cfg.block = reduced ? Coord{4, 2, 2, 2} : Coord{4, 4, 4, 4};
  p.cfg.basis_size = 8;
  p.cfg.deflation_size = 3;
  p.cfg.schwarz_iterations = 6;
  p.cfg.block_mr_iterations = 4;
  p.cfg.tolerance = 1e-8;
  return p;
}

/// Independent per-purpose seeds from the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                    k + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t { kGauge = 1, kSource, kArrival, kSite };

/// U_mu(x) -> G(x) U_mu(x) G(x+mu)^dagger with a random SU(3) G per site.
void gauge_transform(GaugeField<double>& u, std::uint64_t seed) {
  const Geometry& g = u.geometry();
  Rng rng(seed);
  std::vector<SU3<double>> gx(static_cast<std::size_t>(g.volume()));
  for (auto& m : gx) m = random_su3<double>(rng);
  for (std::int32_t s = 0; s < static_cast<std::int32_t>(g.volume()); ++s)
    for (int mu = 0; mu < kNumDims; ++mu) {
      const auto fwd =
          static_cast<std::size_t>(g.neighbor(s, mu, Dir::kForward));
      u.link(s, mu) = mul_adj(mul(gx[static_cast<std::size_t>(s)],
                                  u.link(s, mu)),
                              gx[fwd]);
    }
}

/// The gauge configurations of one run. The physics is a fixed base
/// ensemble per workload, so spectra and iteration counts (and with them
/// the time to solution) do not change with the seed. The seed draws a
/// random gauge transformation of every configuration: by gauge
/// covariance the solves are equivalent, but every link the program reads
/// is new. Never moved: the fields point at `geom`.
struct Ensemble {
  Geometry geom;
  std::vector<GaugeField<double>> gauges;

  Ensemble(const Physics& p, int nconfigs, std::uint64_t seed)
      : geom(p.dims) {
    gauges.reserve(static_cast<std::size_t>(nconfigs));
    for (int k = 0; k < nconfigs; ++k) {
      const auto kk = static_cast<std::uint64_t>(k);
      auto g = random_gauge_field<double>(geom, p.disorder,
                                          derive_seed(p.ensemble, kGauge, kk));
      gauge_transform(g, derive_seed(seed, kGauge, kk));
      g.make_time_antiperiodic();
      gauges.push_back(std::move(g));
    }
  }
  Ensemble(const Ensemble&) = delete;
  Ensemble& operator=(const Ensemble&) = delete;

  int size() const { return static_cast<int>(gauges.size()); }
  std::int64_t volume() const { return geom.volume(); }
};

FermionField<double> gaussian_source(const Ensemble& ens, std::uint64_t seed) {
  FermionField<double> b(ens.volume());
  gaussian(b, seed);
  return b;
}

/// The 12 spin-color point sources of one propagator at `site`.
std::vector<FermionField<double>> point_sources(const Ensemble& ens,
                                                std::int64_t site) {
  std::vector<FermionField<double>> b;
  for (int sp = 0; sp < kNumSpins; ++sp)
    for (int c = 0; c < kNumColors; ++c) {
      FermionField<double> f(ens.volume());
      f[site].s[sp].c[c] = Complex<double>(1.0, 0.0);
      b.push_back(std::move(f));
    }
  return b;
}

// ---------------------------------------------------------------- checks

/// ||b - A x|| / ||b||, in double, through the operator's public apply.
double true_residual(const WilsonCloverOperator<double>& op,
                     const FermionField<double>& b,
                     const FermionField<double>& x) {
  FermionField<double> r(b.size());
  op.apply(x, r);
  sub(b, r, r);
  return norm(r) / norm(b);
}

/// Failure count over every attempted solve.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(const SolverStats& st, double true_res, double tol,
             const std::string& what) {
    ++attempted;
    if (st.converged && st.breakdown == Breakdown::kNone &&
        true_res <= tol)
      return;
    ++failed;
    if (failed <= 5)
      std::fprintf(stderr,
                   "FAILED %s: converged=%d breakdown=%s true_residual=%.3e "
                   "tolerance=%.1e\n",
                   what.c_str(), st.converged ? 1 : 0, to_string(st.breakdown),
                   true_res, tol);
  }
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Exact counters of one deterministic solver call.
struct Counters {
  std::int64_t iterations = 0, matvecs = 0, precond_applications = 0,
               global_sums = 0, recycle_projections = 0;
  SchwarzStats schwarz;

  void add(const SolverStats& st) {
    iterations += st.iterations;
    matvecs += st.matvecs;
    precond_applications += st.precond_applications;
    global_sums += st.global_sum_events;
    recycle_projections += st.recycle_projections;
  }
  std::vector<std::int64_t> values() const {
    return {iterations,          matvecs,
            precond_applications, global_sums,
            recycle_projections, schwarz.applications,
            schwarz.flops,       schwarz.block_solves,
            schwarz.mr_iterations, schwarz.boundary_bytes,
            schwarz.matrix_block_loads, schwarz.sweeps};
  }
};

/// Counters per input; a repeated input must reproduce them exactly.
class Determinism {
 public:
  void expect(const std::string& key, const Counters& c) {
    const auto v = c.values();
    const auto [it, fresh] = seen_.emplace(key, v);
    if (!fresh && it->second != v)
      throw std::runtime_error("counter drift on repeated input " + key);
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [key, v] : seen_) {
      if (out.size() > 1) out += ", ";
      out += json_string(key) + ": [";
      for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + std::to_string(v[i]);
      out += "]";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::vector<std::int64_t>> seen_;
};

// ---------------------------------------------------------------- helpers

/// Median seconds of `f` over at least `min_reps` calls and `min_total`
/// seconds, after one untimed warm-up call.
template <class F>
double median_seconds(F&& f, int min_reps, double min_total) {
  f();
  std::vector<double> t;
  const double begin = steady_seconds();
  while (static_cast<int>(t.size()) < min_reps ||
         steady_seconds() - begin < min_total) {
    const double t0 = steady_seconds();
    f();
    t.push_back(steady_seconds() - t0);
  }
  return median(t);
}

/// The set-up samples of setup_s: make_owning over the configurations,
/// one untimed warm-up pass (first-touch page faults) and then at least
/// kSetupSamples timed ones. Returns one setup per configuration.
constexpr int kSetupSamples = 30;

std::vector<std::shared_ptr<DDSolverSetup>> build_setups(
    const Ensemble& ens, const Physics& p, std::vector<double>& samples,
    Tracer* tr) {
  std::vector<std::shared_ptr<DDSolverSetup>> setups(
      static_cast<std::size_t>(ens.size()));
  const int timed = (kSetupSamples + ens.size() - 1) / ens.size();
  for (int r = 0; r <= timed; ++r)
    for (int k = 0; k < ens.size(); ++k) {
      ScopedSpan span(tr, "core.make_owning");
      const double t0 = steady_seconds();
      setups[static_cast<std::size_t>(k)] = DDSolverSetup::make_owning(
          ens.geom, ens.gauges[static_cast<std::size_t>(k)], p.mass, p.csw,
          p.cfg);
      if (r > 0) samples.push_back(steady_seconds() - t0);
    }
  return setups;
}

/// Closed loops run whole rounds over their configurations, so every
/// run's samples cover each configuration equally often. A further round
/// starts only if it is projected to end within the run length.
bool another_round(double start, int rounds_done, double seconds) {
  if (rounds_done == 0) return true;
  const double elapsed = steady_seconds() - start;
  return elapsed * (rounds_done + 1) / rounds_done <= seconds;
}

/// Raw samples of one workload run, reduced to the end-to-end metrics.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> per_source_s;  ///< solver wall time per solved source
  std::vector<double> latency_s;     ///< due -> result, one per source
  std::vector<double> propagator_s;  ///< measured (propagator workload)
  std::int64_t sources = 0;
  double wall_s = 0;
  std::int64_t recycle_projections = 0;  ///< over the loop's solver calls
  std::int64_t solver_calls = 0;
};

constexpr int kPropagatorSources = kNumSpins * kNumColors;  // 12

Metrics end_to_end(const Samples& s) {
  Metrics m;
  m["setup_s"] = median(s.setup_s);
  m["solve_s"] = median(s.per_source_s);
  // Measured on the propagator workload; elsewhere, what one 12-source
  // propagator costs on that workload's solve path.
  m["propagator_s"] = s.propagator_s.empty()
                          ? m["setup_s"] + kPropagatorSources * m["solve_s"]
                          : median(s.propagator_s);
  m["peak_rss_mb"] = peak_rss_mb();
  return m;
}

// ---------------------------------------------------------- service loop

/// One request of an open-loop stream: due time (seconds after the
/// stream starts) and configuration index.
struct Arrival {
  double due = 0;
  int config = 0;
};

struct ServiceRun {
  std::vector<double> latency_s, queue_s, dispatch_s, per_source_s;
  double late_s_max = 0;
  double wall_s = 0;
  double lane_sum = 0;
  std::int64_t recycle_projections = 0;
  ServiceStats stats;
};

/// Drive `arrivals` through a SolverService from one generator thread;
/// every request is timed from its due time. `source_of(i)` regenerates
/// request i's source (sources are generated before the stream starts,
/// and regenerated for the residual check).
ServiceRun run_service(const Ensemble& ens, const Physics& p,
                       const std::vector<std::shared_ptr<DDSolverSetup>>& setups,
                       const std::vector<Arrival>& arrivals,
                       const std::function<FermionField<double>(std::size_t)>&
                           source_of,
                       const std::string& label, Tally& tally, Tracer* tr) {
  const std::size_t n = arrivals.size();
  std::vector<SolveRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    SolveRequest& r = requests[i];
    r.geom = &ens.geom;
    r.gauge = &ens.gauges[static_cast<std::size_t>(arrivals[i].config)];
    r.mass = p.mass;
    r.csw = p.csw;
    r.tolerance = p.cfg.tolerance;
    r.source = source_of(i);
  }

  SolverServiceConfig scfg;
  scfg.solver = p.cfg;
  scfg.batch.max_lanes = 8;
  scfg.batch.window_seconds = 0.05;
  scfg.setup_cache_capacity = 2;
  scfg.worker_threads = 1;

  ServiceRun out;
  std::vector<std::future<SolveResult>> futures(n);
  std::vector<double> sent(n), sent_end(n);
  std::vector<int> roots(n, -1);
  double start = 0;
  {
    SolverService service(scfg);
    std::exception_ptr generator_error;
    start = steady_seconds();
    std::thread generator([&] {
      try {
        for (std::size_t i = 0; i < n; ++i) {
          const double due = start + arrivals[i].due;
          while (steady_seconds() < due)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          sent[i] = steady_seconds();
          futures[i] = service.submit(std::move(requests[i]));
          sent_end[i] = steady_seconds();
        }
      } catch (...) {
        generator_error = std::current_exception();
      }
    });
    generator.join();
    if (generator_error) std::rethrow_exception(generator_error);

    double last_done = start;
    for (std::size_t i = 0; i < n; ++i) {
      const double due = start + arrivals[i].due;
      SolveResult res;
      try {
        res = futures[i].get();
      } catch (const std::exception& e) {
        ++tally.attempted;
        ++tally.failed;
        std::fprintf(stderr, "FAILED %s request %zu: %s\n", label.c_str(), i,
                     e.what());
        continue;
      }
      const double done = sent[i] + res.total_seconds;
      last_done = std::max(last_done, done);
      out.latency_s.push_back(done - due);
      out.queue_s.push_back(res.queue_seconds);
      out.dispatch_s.push_back(res.solve_seconds);
      out.per_source_s.push_back(res.solve_seconds / res.batch_lanes);
      out.late_s_max = std::max(out.late_s_max, sent[i] - due);
      out.lane_sum += res.batch_lanes;
      out.recycle_projections += res.stats.recycle_projections;
      if (tr) {
        const int root = tr->record("bench.request", due, done, -1, i);
        tr->record("service.submit", sent[i], sent_end[i], root, i);
        tr->record("service.queue", sent[i], sent[i] + res.queue_seconds,
                   root, i);
        tr->record("service.dispatch", sent[i] + res.queue_seconds,
                   sent[i] + res.queue_seconds + res.solve_seconds, root, i);
        roots[i] = root;
      }
      const auto k = static_cast<std::size_t>(arrivals[i].config);
      ScopedSpan check(tr, "bench.check", roots[i], i);
      ScopedSpan apply(tr, "dirac.apply", check.index(), i);
      tally.check(res.stats,
                  true_residual(setups[k]->op_d(), source_of(i), res.solution),
                  p.cfg.tolerance, label + " request " + std::to_string(i));
    }
    out.wall_s = last_done - start;
    out.stats = service.stats();
  }
  return out;
}

void service_metrics(const ServiceRun& r, Metrics& m) {
  const double batches = static_cast<double>(r.stats.batches);
  const double lookups =
      static_cast<double>(r.stats.cache.hits + r.stats.cache.misses);
  m["service.queue_s_p50"] = median(r.queue_s);
  m["service.dispatch_s_p50"] = median(r.dispatch_s);
  m["service.mean_lanes"] = r.lane_sum / static_cast<double>(r.queue_s.size());
  m["service.partial_batch_frac"] =
      static_cast<double>(r.stats.partial_batches) / batches;
  m["service.cache_hit_frac"] =
      static_cast<double>(r.stats.cache.hits) / lookups;
  m["service.cache_evictions"] = static_cast<double>(r.stats.cache.evictions);
  m["service.generator_late_s_max"] = r.late_s_max;
  m["service.latency_p50_s"] = percentile(r.latency_s, 0.50);
  m["service.latency_p95_s"] = percentile(r.latency_s, 0.95);
  m["service.throughput_rps"] =
      static_cast<double>(r.latency_s.size()) / r.wall_s;
}

// -------------------------------------------------------------- workloads

/// Everything one workload run produces.
struct WorkloadRun {
  Samples samples;
  Metrics layer;  ///< per-layer metrics (traced run only)
  Tally tally;
};

/// What the layer probes need from a workload: its first configuration's
/// setup, a source on it, and the sources the service probe sends.
struct ProbeInputs {
  std::shared_ptr<DDSolverSetup> setup;
  FermionField<double> source;
  std::string key;  ///< determinism key of (setup, source)
  /// Closed-loop workloads: sources on configuration 0 sent to a
  /// SolverService in one burst. Empty for service_churn, whose own
  /// open loop provides the service metrics.
  std::vector<FermionField<double>> burst;
};

constexpr double kServiceRate = 5.0;  ///< service_churn arrivals per second
constexpr int kSingleConfigs = 14;
constexpr int kPropagatorConfigs = 4;
constexpr int kServiceConfigs = 3;

WorkloadRun run_single_rhs(const Options& o, Determinism& det, Tracer* tr,
                           ProbeInputs& probe) {
  const Physics p = dd_physics(o.reduced);
  const Ensemble ens(p, kSingleConfigs, o.seed);
  std::vector<FermionField<double>> b;
  for (int k = 0; k < ens.size(); ++k)
    b.push_back(gaussian_source(
        ens, derive_seed(o.seed, kSource, static_cast<std::uint64_t>(k))));

  WorkloadRun run;
  Samples& s = run.samples;
  const auto setups = build_setups(ens, p, s.setup_s, tr);
  std::vector<std::unique_ptr<DDSolver>> solvers;
  for (const auto& setup : setups)
    solvers.push_back(std::make_unique<DDSolver>(setup, p.cfg));
  FermionField<double> x(ens.volume());

  // Closed loop: the next source is sent when the previous result is
  // back.
  const double start = steady_seconds();
  for (int round = 0; another_round(start, round, o.seconds); ++round) {
    for (std::size_t k = 0; k < solvers.size(); ++k) {
      const auto id = static_cast<std::uint64_t>(round) * solvers.size() + k;
      ScopedSpan req(tr, "bench.request", -1, id);
      DDSolver& solver = *solvers[k];
      x.zero();
      solver.reset_stats();
      SolverStats st;
      const double t0 = steady_seconds();
      {
        ScopedSpan span(tr, "solver.solve", req.index(), id);
        st = solver.solve(b[k], x);
      }
      const double dt = steady_seconds() - t0;
      s.per_source_s.push_back(dt);
      s.latency_s.push_back(dt);
      ++s.sources;
      Counters c;
      c.add(st);
      c.schwarz = solver.schwarz_stats();
      det.expect("single_rhs/cfg" + std::to_string(k) + "/src0", c);
      s.recycle_projections += st.recycle_projections;
      ++s.solver_calls;
      ScopedSpan check(tr, "bench.check", req.index(), id);
      ScopedSpan apply(tr, "dirac.apply", check.index(), id);
      run.tally.check(st, true_residual(solver.op(), b[k], x), p.cfg.tolerance,
                      "single_rhs cfg" + std::to_string(k));
    }
  }
  s.wall_s = steady_seconds() - start;

  std::vector<FermionField<double>> burst;
  for (std::uint64_t i = 0; i < 4; ++i)
    burst.push_back(
        gaussian_source(ens, derive_seed(o.seed, kSource, 100 + i)));
  probe = ProbeInputs{setups[0], b[0], "single_rhs/cfg0/src0",
                      std::move(burst)};
  return run;
}

WorkloadRun run_propagator(const Options& o, Determinism& det, Tracer* tr,
                           ProbeInputs& probe) {
  const Physics p = dd_physics(o.reduced);
  const Ensemble ens(p, kPropagatorConfigs, o.seed);
  std::vector<std::vector<FermionField<double>>> b;
  for (int k = 0; k < ens.size(); ++k) {
    const std::uint64_t r = derive_seed(o.seed, kSite, static_cast<std::uint64_t>(k));
    b.push_back(point_sources(
        ens, static_cast<std::int64_t>(r % static_cast<std::uint64_t>(ens.volume()))));
  }

  WorkloadRun run;
  Samples& s = run.samples;
  const auto setups = build_setups(ens, p, s.setup_s, tr);
  std::vector<FermionField<double>> x(
      kPropagatorSources, FermionField<double>(ens.volume()));

  // Closed loop over configurations: each propagator builds its own
  // setup (nothing cached across configurations) and solves all 12
  // sources in one batch.
  const double start = steady_seconds();
  for (int round = 0; another_round(start, round, o.seconds); ++round) {
    for (std::size_t k = 0; k < b.size(); ++k) {
      const auto id = static_cast<std::uint64_t>(round) * b.size() + k;
      ScopedSpan req(tr, "bench.request", -1, id);
      const double t0 = steady_seconds();
      std::shared_ptr<DDSolverSetup> setup;
      {
        ScopedSpan span(tr, "core.make_owning", req.index(), id);
        setup = DDSolverSetup::make_owning(ens.geom, ens.gauges[k], p.mass,
                                           p.csw, p.cfg);
      }
      DDSolver solver(setup, p.cfg);
      for (auto& f : x) f.zero();
      const double t1 = steady_seconds();
      std::vector<SolverStats> st;
      {
        ScopedSpan span(tr, "solver.solve_batch", req.index(), id);
        st = solver.solve_batch(b[k], x);
      }
      const double t2 = steady_seconds();
      s.propagator_s.push_back(t2 - t0);
      s.per_source_s.push_back((t2 - t1) / kPropagatorSources);
      for (int j = 0; j < kPropagatorSources; ++j) s.latency_s.push_back(t2 - t0);
      s.sources += kPropagatorSources;
      Counters c;
      for (const auto& lane : st) c.add(lane);
      c.schwarz = solver.schwarz_stats();
      det.expect("propagator/cfg" + std::to_string(k) + "/point12", c);
      s.recycle_projections += c.recycle_projections;
      ++s.solver_calls;
      ScopedSpan check(tr, "bench.check", req.index(), id);
      for (int j = 0; j < kPropagatorSources; ++j) {
        ScopedSpan apply(tr, "dirac.apply", check.index(), id);
        run.tally.check(st[static_cast<std::size_t>(j)],
                        true_residual(solver.op(), b[k][static_cast<std::size_t>(j)],
                                      x[static_cast<std::size_t>(j)]),
                        p.cfg.tolerance,
                        "propagator cfg" + std::to_string(k) + " source " +
                            std::to_string(j));
      }
    }
  }
  s.wall_s = steady_seconds() - start;

  probe = ProbeInputs{setups[0], b[0][0], "propagator/cfg0/point0", b[0]};
  return run;
}

WorkloadRun run_service_churn(const Options& o, Tracer* tr,
                              ProbeInputs& probe) {
  const Physics p = service_physics(o.reduced);
  const Ensemble ens(p, kServiceConfigs, o.seed);

  // Poisson arrivals at a fixed rate, conditioned on the request count
  // the run length fixes: n sorted uniform times over the run. Each block
  // of three consecutive requests visits every configuration once, in a
  // seeded order, so every run churns the two-entry cache equally hard.
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kServiceRate * o.seconds)));
  std::vector<Arrival> arrivals(n);
  Rng rng(derive_seed(o.seed, kArrival, 0));
  std::vector<double> due(n);
  for (auto& t : due) t = o.seconds * rng.uniform();
  std::sort(due.begin(), due.end());
  std::array<int, kServiceConfigs> block{};
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kServiceConfigs == 0) {
      std::iota(block.begin(), block.end(), 0);
      for (int j = kServiceConfigs - 1; j > 0; --j)
        std::swap(block[static_cast<std::size_t>(j)],
                  block[rng.next_u64() % static_cast<std::uint64_t>(j + 1)]);
    }
    arrivals[i] = Arrival{due[i], block[i % kServiceConfigs]};
  }
  const auto source_of = [&](std::size_t i) {
    return gaussian_source(ens, derive_seed(o.seed, kSource, i));
  };

  WorkloadRun run;
  Samples& s = run.samples;
  const auto setups = build_setups(ens, p, s.setup_s, tr);
  const ServiceRun r = run_service(ens, p, setups, arrivals, source_of,
                                   "service_churn", run.tally, tr);
  s.latency_s = r.latency_s;
  s.per_source_s = r.per_source_s;
  s.sources = static_cast<std::int64_t>(r.latency_s.size());
  s.wall_s = r.wall_s;
  s.recycle_projections = r.recycle_projections;
  s.solver_calls = s.sources;
  if (tr) service_metrics(r, run.layer);

  std::printf("service_churn: %zu requests at %.1f/s, %llu batches "
              "(%llu partial), cache %llu hits / %llu misses / %llu "
              "evictions, generator late by at most %.2e s\n",
              n, kServiceRate, static_cast<unsigned long long>(r.stats.batches),
              static_cast<unsigned long long>(r.stats.partial_batches),
              static_cast<unsigned long long>(r.stats.cache.hits),
              static_cast<unsigned long long>(r.stats.cache.misses),
              static_cast<unsigned long long>(r.stats.cache.evictions),
              r.late_s_max);

  probe = ProbeInputs{setups[0], source_of(0), "service_churn/cfg0/src0", {}};
  return run;
}

// ---------------------------------------------------------- layer probes

/// Times each layer's public entry points on the workload's own setup
/// (traced run only). Fills the per-layer metrics.
void probe_layers(const Options& o, const Physics& p, const ProbeInputs& in,
                  Determinism& det, Tally& tally, Tracer* tr, Metrics& m) {
  const DDSolverSetup& setup = *in.setup;
  const Geometry& geom = setup.geometry();
  const int threads = max_threads();
  const double budget = o.reduced ? 0.02 : 0.3;

  // core: the pieces of make_owning, and the content hashes every submit
  // pays.
  {
    ScopedSpan layer(tr, "core.probe");
    const Checkerboard cb(geom);
    GaugeField<float> gauge_f = convert<float>(setup.master());
    std::unique_ptr<WilsonCloverOperator<float>> op;
    m["core.operator_s"] = median_seconds(
        [&] {
          ScopedSpan span(tr, "core.operator", layer.index());
          gauge_f = convert<float>(setup.master());
          op = std::make_unique<WilsonCloverOperator<float>>(
              geom, cb, gauge_f, static_cast<float>(p.mass),
              static_cast<float>(p.csw));
          op->prepare_schur();
        },
        5, budget);
    const DomainPartition part(geom, p.cfg.block);
    m["core.pack_s"] = median_seconds(
        [&] {
          ScopedSpan span(tr, "core.pack", layer.index());
          const SchwarzSetup<Half> packed(part, *op);
        },
        5, budget);
    std::uint64_t sink = 0;
    m["core.checksum_s"] = median_seconds(
        [&] {
          ScopedSpan span(tr, "core.checksum", layer.index());
          sink += setup.master().content_checksum();
          sink ^= setup.master().content_digest64();
        },
        20, budget);
    if (sink == 0x5eed) std::printf(" ");  // keep the hashes observable
  }

  // dirac and linalg: the outer matvec and the kernel behind a global sum.
  FermionField<double> xd(geom.volume()), yd(geom.volume());
  gaussian(xd, derive_seed(o.seed, kSource, 1001));
  gaussian(yd, derive_seed(o.seed, kSource, 1002));
  {
    const WilsonCloverOperator<double>& op = setup.op_d();
    const std::int64_t f0 = op.flops();
    std::int64_t calls = 0;
    m["dirac.apply_s"] = median_seconds(
        [&] {
          ScopedSpan span(tr, "dirac.apply");
          op.apply(xd, yd);
          ++calls;
        },
        10, budget);
    m["dirac.gflops"] = static_cast<double>(op.flops() - f0) /
                        static_cast<double>(calls) / m["dirac.apply_s"] / 1e9;
    std::complex<double> acc = 0;
    constexpr int kDotsPerSample = 50;
    m["linalg.dot_s"] =
        median_seconds(
            [&] {
              ScopedSpan span(tr, "linalg.dot");
              for (int i = 0; i < kDotsPerSample; ++i) acc += dot(xd, yd);
            },
            10, budget) /
        kDotsPerSample;
    if (acc == std::complex<double>(0.5, 0.5)) std::printf(" ");
  }

  // simd: the active backend's kernels on one thread (bench/host_measure.h).
  {
    ScopedSpan layer(tr, "simd.probe");
    set_threads(1);
    const double w = o.reduced ? 0.02 : 0.2;
    const std::int32_t nsites = o.reduced ? 256 : 1024;
    m["simd.dslash_gflops"] =
        bench::measure_dslash_lanes(nsites, 8, w).gflops();
    m["simd.clover_gflops"] =
        bench::measure_clover_lanes(nsites, 8, w).gflops();
    m["simd.block_solve_gflops"] =
        bench::measure_block_solve(4, o.reduced ? 0.05 : 0.3).gflops();
    m["simd.fp16_gbs"] =
        bench::measure_fp16_roundtrip(o.reduced ? 1 << 15 : 1 << 20, w).gbs();
    set_threads(threads);
  }

  // schwarz: SchwarzPreconditioner<Half> on the workload's packed setup.
  {
    SchwarzParams sp;
    sp.schwarz_iterations = p.cfg.schwarz_iterations;
    sp.block_mr_iterations = p.cfg.block_mr_iterations;
    SchwarzPreconditioner<Half> pre(setup.schwarz_half(), sp);
    constexpr int kMaxRhs = 12;
    std::vector<FermionField<float>> fin, fout;
    for (int i = 0; i < kMaxRhs; ++i) {
      fin.emplace_back(geom.volume());
      fout.emplace_back(geom.volume());
      gaussian(fin.back(), derive_seed(o.seed, kSource,
                                       2000 + static_cast<std::uint64_t>(i)));
    }
    // Seconds per apply and flops per apply at `nrhs`.
    const auto apply = [&](int nrhs, double& flops) {
      std::vector<const FermionField<float>*> pin;
      std::vector<FermionField<float>*> pout;
      for (int i = 0; i < nrhs; ++i) {
        pin.push_back(&fin[static_cast<std::size_t>(i)]);
        pout.push_back(&fout[static_cast<std::size_t>(i)]);
      }
      std::int64_t calls = 0;
      pre.reset_stats();
      const double sec = median_seconds(
          [&] {
            ScopedSpan span(tr, "schwarz.apply_rhs" + std::to_string(nrhs));
            if (nrhs == 1)
              pre.apply(fin[0], fout[0]);
            else
              pre.apply_batch(pin, pout);
            ++calls;
          },
          3, budget);
      flops = static_cast<double>(pre.stats().flops) /
              static_cast<double>(calls);
      return sec;
    };
    double f1 = 0, f4 = 0, f12 = 0;
    const double t1 = apply(1, f1);
    const double t4 = apply(4, f4);
    const double t12 = apply(12, f12);
    {
      // Counters of one nrhs=12 application.
      const SchwarzStats before = pre.stats();
      std::vector<const FermionField<float>*> pin;
      std::vector<FermionField<float>*> pout;
      for (int i = 0; i < kMaxRhs; ++i) {
        pin.push_back(&fin[static_cast<std::size_t>(i)]);
        pout.push_back(&fout[static_cast<std::size_t>(i)]);
      }
      pre.apply_batch(pin, pout);
      const SchwarzStats& after = pre.stats();
      m["schwarz.block_solves"] =
          static_cast<double>(after.block_solves - before.block_solves);
      m["schwarz.mr_iterations"] =
          static_cast<double>(after.mr_iterations - before.mr_iterations);
      m["schwarz.boundary_bytes"] =
          static_cast<double>(after.boundary_bytes - before.boundary_bytes);
      m["schwarz.matrix_block_loads"] = static_cast<double>(
          after.matrix_block_loads - before.matrix_block_loads);
    }
    set_threads(1);
    double g1 = 0, g12 = 0;
    const double t1_one = apply(1, g1);
    const double t12_one = apply(12, g12);
    set_threads(threads);
    m["schwarz.apply_s_rhs1"] = t1;
    m["schwarz.apply_s_per_rhs4"] = t4 / 4;
    m["schwarz.apply_s_per_rhs12"] = t12 / 12;
    m["schwarz.gflops_rhs1"] = f1 / t1 / 1e9;
    m["schwarz.gflops_rhs12"] = f12 / t12 / 1e9;
    m["schwarz.thread_speedup_rhs1"] = t1_one / t1;
    m["schwarz.thread_speedup_rhs12"] = t12_one / t12;
    m["schwarz.sweep_efficiency"] =
        m["schwarz.gflops_rhs12"] / (m["simd.block_solve_gflops"] * threads);
  }

  // solver: one DDSolver::solve of the probe source, alternately untraced
  // and traced; the counters split its wall time by layer.
  {
    DDSolver solver(in.setup, p.cfg);
    FermionField<double> x(geom.volume());
    std::vector<double> plain, traced;
    SolverStats st;
    constexpr int kPairs = 2;
    for (int rep = 0; rep < kPairs; ++rep)
      for (const bool with_span : {false, true}) {
        x.zero();
        solver.reset_stats();
        const double t0 = steady_seconds();
        {
          ScopedSpan span(with_span ? tr : nullptr, "solver.solve");
          st = solver.solve(in.source, x);
        }
        (with_span ? traced : plain).push_back(steady_seconds() - t0);
        Counters c;
        c.add(st);
        c.schwarz = solver.schwarz_stats();
        det.expect(in.key, c);
        tally.check(st, true_residual(solver.op(), in.source, x),
                    p.cfg.tolerance, "probe solve " + in.key);
      }
    const double solve_s = median(plain);
    m["solver.iterations"] = st.iterations;
    m["solver.precond_applications"] =
        static_cast<double>(st.precond_applications);
    m["solver.matvecs"] = static_cast<double>(st.matvecs);
    m["solver.global_sums"] = static_cast<double>(st.global_sum_events);
    const double precond_s =
        static_cast<double>(st.precond_applications) * m["schwarz.apply_s_rhs1"];
    const double matvec_s = static_cast<double>(st.matvecs) * m["dirac.apply_s"];
    const double sums_s =
        static_cast<double>(st.global_sum_events) * m["linalg.dot_s"];
    m["solver.outer_self_s"] = solve_s - precond_s - matvec_s - sums_s;
    m["trace.overhead_s"] = median(traced) - solve_s;
    std::printf("solve split (%s): %.4f s = schwarz %.4f + dirac %.4f + "
                "global sums %.4f + outer self %.4f; tracing overhead "
                "%+.2e s\n",
                in.key.c_str(), solve_s, precond_s, matvec_s, sums_s,
                m["solver.outer_self_s"], m["trace.overhead_s"]);
  }
}

/// Service metrics for the closed-loop workloads: their own first
/// configuration's sources sent to a SolverService in one burst.
void probe_service(const Options& o, const Physics& p, const ProbeInputs& in,
                   Tally& tally, Tracer* tr, Metrics& m) {
  const Ensemble ens(p, 1, o.seed);  // configuration 0 of the workload
  const std::vector<std::shared_ptr<DDSolverSetup>> setups{in.setup};
  const std::vector<Arrival> arrivals(in.burst.size());
  const ServiceRun r = run_service(
      ens, p, setups, arrivals, [&](std::size_t i) { return in.burst[i]; },
      "service probe", tally, tr);
  service_metrics(r, m);
}

// ------------------------------------------------------------------ output

/// The facts every output records: seed, build flags, backend, threads.
std::string run_info_json(const Options& o, const std::string& workload) {
  const char* env_threads = std::getenv("OMP_NUM_THREADS");
  std::ostringstream s;
  s << "{\"workload\": " << json_string(workload)
    << ", \"seed\": " << o.seed << ", \"seconds\": " << json_number(o.seconds)
    << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"reduced\": " << (o.reduced ? "true" : "false")
    << ", \"commit\": " << json_string(o.commit)
    << ", \"build_type\": " << json_string(perfbench::kBuildType)
    << ", \"compiler\": " << json_string(perfbench::kCompiler)
    << ", \"cxx_flags\": " << json_string(perfbench::kCxxFlags)
    << ", \"lib_definitions\": " << json_string(perfbench::kLibDefinitions)
    << ", \"simd_backend\": "
    << json_string(simd::to_string(simd::active_backend()))
    << ", \"omp_num_threads\": "
    << json_string(env_threads ? env_threads : "(unset)")
    << ", \"omp_max_threads\": " << max_threads()
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "}";
  return s.str();
}

void write_ledger(const Options& o, const std::string& workload,
                  const Tracer& tr, const Metrics& layer) {
  const std::string path = o.out_dir + "/ledger-" + workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const auto spans = tr.spans();
  const double epoch = spans.empty() ? 0.0 : spans.front().start;
  f << "{\"schema\": \"lqcd-perfbench-ledger-v1\",\n \"run\": "
    << run_info_json(o, workload) << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, t] : tr.layer_totals()) {
    f << (first ? "" : ",") << "\n  " << json_string(name)
      << ": {\"spans\": " << t.spans << ", \"total_s\": "
      << json_number(t.total_s) << ", \"self_s\": " << json_number(t.self_s)
      << "}";
    first = false;
  }
  f << "},\n \"metrics\": " << metrics_json(layer, kPerLayer)
    << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i)
    f << (i ? "," : "") << "\n  {\"name\": " << json_string(spans[i].name)
      << ", \"start\": " << json_number(spans[i].start - epoch)
      << ", \"end\": " << json_number(spans[i].end - epoch)
      << ", \"parent\": " << spans[i].parent
      << ", \"request\": " << spans[i].request << "}";
  f << "]}\n";
  std::printf("ledger written to %s (%zu spans)\n", path.c_str(),
              spans.size());
}

void print_layer_table(const Tracer& tr) {
  std::printf("%-10s %8s %12s %12s\n", "layer", "spans", "total s", "self s");
  for (const auto& [name, t] : tr.layer_totals())
    std::printf("%-10s %8lld %12.4f %12.4f\n", name.c_str(),
                static_cast<long long>(t.spans), t.total_s, t.self_s);
}

/// Run one workload; prints its metric line and returns its tally.
Tally run_workload(const Options& o, const std::string& workload,
                   Determinism& det, std::string& metrics_out) {
  std::printf("{\"run\": %s}\n", run_info_json(o, workload).c_str());
  std::unique_ptr<Tracer> tracer = o.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tr = tracer.get();
  ProbeInputs probe;
  WorkloadRun run;
  Physics p;
  if (workload == "single_rhs") {
    run = run_single_rhs(o, det, tr, probe);
    p = dd_physics(o.reduced);
  } else if (workload == "propagator") {
    run = run_propagator(o, det, tr, probe);
    p = dd_physics(o.reduced);
  } else {
    run = run_service_churn(o, tr, probe);
    p = service_physics(o.reduced);
  }

  const Metrics e2e = end_to_end(run.samples);
  if (run.tally.failed == 0)
    std::printf("%s: %lld sources in %.2f s (%.3f/s); setup %.4f s, solve "
                "%.4f s/source, propagator %.3f s, latency p50 %.4f s p95 "
                "%.4f s (n=%zu)\n",
                workload.c_str(), static_cast<long long>(run.samples.sources),
                run.samples.wall_s,
                static_cast<double>(run.samples.sources) / run.samples.wall_s,
                e2e.at("setup_s"), e2e.at("solve_s"), e2e.at("propagator_s"),
                percentile(run.samples.latency_s, 0.50),
                percentile(run.samples.latency_s, 0.95),
                run.samples.latency_s.size());
  if (!o.trace) {
    metrics_out = metrics_json(e2e, kEndToEnd);
    return run.tally;
  }

  Metrics& m = run.layer;
  probe_layers(o, p, probe, det, run.tally, tr, m);
  if (!probe.burst.empty()) probe_service(o, p, probe, run.tally, tr, m);
  m["solver.recycle_projections"] =
      static_cast<double>(run.samples.recycle_projections) /
      static_cast<double>(run.samples.solver_calls);
  print_layer_table(*tr);
  write_ledger(o, workload, *tr, m);
  metrics_out = metrics_json(m, kPerLayer);
  return run.tally;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "propbench: %s\nusage: propbench --workload "
               "single_rhs|propagator|service_churn|all --seed N --seconds S "
               "--trace 0|1 [--reduced] [--out-dir DIR] [--commit TEXT]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--reduced") o.reduced = true;
      else if (a == "--out-dir") o.out_dir = value();
      else if (a == "--commit") o.commit = value();
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload != "single_rhs" && o.workload != "propagator" &&
      o.workload != "service_churn" && o.workload != "all")
    usage("unknown workload");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const std::vector<std::string> workloads =
        o.workload == "all"
            ? std::vector<std::string>{"single_rhs", "propagator",
                                       "service_churn"}
            : std::vector<std::string>{o.workload};
    Determinism det;
    Tally total;
    std::string metrics;
    for (const auto& w : workloads) {
      const Tally t = run_workload(o, w, det, metrics);
      total.add(t);
      // A workload with a wrong answer reports no numbers.
      std::printf("{\"workload\": %s, \"failed\": %lld, \"metrics\": %s}\n",
                  json_string(w).c_str(), static_cast<long long>(t.failed),
                  t.failed == 0 ? metrics.c_str() : "{}");
    }
    std::printf("{\"counters\": %s}\n", det.json().c_str());
    const bool correct = total.failed == 0;
    if (!correct) {
      std::fprintf(stderr, "%lld of %lld solves failed; no metrics reported\n",
                   static_cast<long long>(total.failed),
                   static_cast<long long>(total.attempted));
      metrics = "{}";
    } else if (workloads.size() > 1) {
      metrics = "{}";  // per-workload lines above carry the metrics
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(total.attempted),
                static_cast<long long>(total.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "propbench: %s\n", e.what());
    return 2;
  }
}
