// Cross-path contracts, stated once and checked as one matrix.
//
// The paper runs one Schwarz sweep across SIMD lanes, cores and
// right-hand sides at once (Sec. IV-VI), so correctness rests on
// relations between those paths. Each relation below compares two whole
// results — per-RHS bit digests and the stats structs' defaulted
// operator== — in one EXPECT_EQ per cell.
//
// Schwarz tier: SchwarzPreconditioner applies over SIMD backend x S
// {float, Half} x multiplicative/additive (one ctest entry each; a
// backend this CPU lacks is skipped) x OMP threads {1, 4} x domain fault
// hook off/on x nrhs {1, 3, 8, the backend's lane width, 17}.
//   threads   4 == 1 bitwise (corrections, kept residuals, SchwarzStats,
//             FaultInjectorStats), hook off and on, also for an instance
//             built at 1 thread and applied at 4;
//   lanes     (hook off) RHS b of every batch == its own apply() bitwise;
//             counters are the per-RHS sums except sweeps and
//             matrix_block_loads, which are one apply's; for S = float
//             the kept residual is f_b - A u_b to 1e-6 |f_b|;
//   backends  avx2 == avx512 bitwise with equal stats, switching backend
//             between applies on one instance; scalar vs wide <= 1e-5
//             relative with equal counters;
//   special   a zero RHS in a 3-RHS batch stays exactly zero and leaks
//             into no other RHS; the hook fires with ISchwarz x domains
//             opportunities per apply; find_corrupt_domains is equal at
//             1 and 4 threads.
//
// The parity tests these rows took over keep their names: a Schwarz one
// runs its rows on one instance, and a solve one is its row.
//
// Solve tier: a table of DDSolver / SolverService row pairs, one named
// test a row. Each row declares its relation: kSameTrajectory (equal
// SolverStats — iterations, matvecs, preconditioner applications, global
// sums, residual history, final residual — and equal solution bits) or
// kSameCounters (equal iterations, solutions within 1e-8 relative). The
// exact side counters a row records (AbftStats, FaultInjectorStats,
// ServiceStats) must be equal under either relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "lqcd/core/dd_solver.h"
#include "lqcd/service/solver_service.h"
#include "lqcd/simd/dispatch.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

namespace lqcd {
namespace {

using simd::Backend;

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

/// The OpenMP thread count for one scope.
class Threads {
 public:
  explicit Threads(int n) : saved_(max_threads()) { set_threads(n); }
  ~Threads() { set_threads(saved_); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

 private:
  int saved_;
};

/// Digest of a field's bits: equal bits give equal digests, and unequal
/// bits collide with probability ~2^-64.
template <class T>
std::size_t bits(const FermionField<T>& f) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(f.data()),
      static_cast<std::size_t>(f.size()) * sizeof(Spinor<T>)));
}

/// |a - b| / |a|.
template <class T>
double rel_diff(const FermionField<T>& a, const FermionField<T>& b) {
  FermionField<T> d(a.size());
  sub(a, b, d);
  return norm(d) / norm(a);
}

// ---------------------------------------------------------------------------
// Schwarz tier
// ---------------------------------------------------------------------------

constexpr int kMaxRhs = 17;

struct Lattice {
  Geometry geom{Coord{8, 8, 8, 8}};
  Checkerboard cb{geom};
  GaugeField<float> gauge = [this] {
    auto gd = random_gauge_field<double>(geom, 0.5, 23);
    gd.make_time_antiperiodic();
    return convert<float>(gd);
  }();
  WilsonCloverOperator<float> op{geom, cb, gauge, 0.1f, 1.0f};
  DomainPartition part{geom, Coord{4, 4, 4, 4}};
  std::vector<FermionField<float>> f;  ///< kMaxRhs gaussian sources

  Lattice() {
    op.prepare_schur();
    for (int b = 0; b < kMaxRhs; ++b) {
      f.emplace_back(geom.volume());
      gaussian(f.back(), 500 + static_cast<std::uint64_t>(b));
    }
  }
  /// Sources 0 .. n-1.
  std::vector<const FermionField<float>*> first(int n) const {
    std::vector<const FermionField<float>*> out;
    for (int b = 0; b < n; ++b) out.push_back(&f[static_cast<std::size_t>(b)]);
    return out;
  }
};

/// One apply_batch: per-RHS bit digests of the correction and of the kept
/// residual, and the apply's own stats.
struct Apply {
  std::vector<std::size_t> u, r;
  SchwarzStats stats;
  bool operator==(const Apply&) const = default;
};

/// Apply `m` to the batch `f`; the corrections are left in `u`.
template <class S>
Apply run(SchwarzPreconditioner<S>& m,
          const std::vector<const FermionField<float>*>& f,
          std::vector<FermionField<float>>& u) {
  u.assign(f.size(), FermionField<float>(f[0]->size()));
  std::vector<FermionField<float>*> up;
  for (auto& x : u) up.push_back(&x);
  m.reset_stats();
  m.apply_batch(f, up);
  Apply a{{}, {}, m.stats()};
  for (std::size_t b = 0; b < u.size(); ++b) {
    a.u.push_back(bits(u[b]));
    a.r.push_back(bits(m.residual(static_cast<int>(b))));
  }
  return a;
}

/// What the lanes relation expects of a batch of these one-lane applies:
/// each RHS's own bits, the per-RHS counter sums, and the sweeps and
/// matrix loads of one apply (a domain visit streams its matrices once
/// for the whole batch, paper Sec. VI).
Apply lanes_of(const std::vector<Apply>& one) {
  Apply a;
  for (const Apply& o : one) {
    a.u.push_back(o.u[0]);
    a.r.push_back(o.r[0]);
    a.stats += o.stats;
  }
  a.stats.sweeps = one[0].stats.sweeps;
  a.stats.matrix_block_loads = one[0].stats.matrix_block_loads;
  return a;
}

/// nrhs {1, 3, 8, 17} and the lane width of each backend.
std::vector<int> batch_sizes(std::initializer_list<Backend> backends) {
  std::vector<int> n = {1, 3, 8, kMaxRhs};
  for (const Backend b : backends) {
    simd::ScopedBackend scope(b);
    n.push_back(simd::kernels().lane_width);
  }
  std::sort(n.begin(), n.end());
  n.erase(std::unique(n.begin(), n.end()), n.end());
  return n;
}

const Lattice& lattice() {
  static const Lattice l;
  return l;
}

/// The rows of the Schwarz tier. An instance's matrix entry runs them
/// all; a named test below runs its own.
enum Row : unsigned {
  kThreads = 1u << 0,  ///< 4 == 1 and built at 1 == 1; the hook row
  kLanes = 1u << 1,
  kBatchOfOne = 1u << 2,
  kZeroRhs = 1u << 3,
  kScalarVsWide = 1u << 4,
  kAvx2VsAvx512 = 1u << 5,
  kAbftSweep = 1u << 6,
  kAllRows = (1u << 7) - 1,
};

/// Rows `rows` of the instance (backend, S, additive), under `backend`.
template <class S>
void schwarz_cells(Backend backend, bool additive, unsigned rows) {
  const simd::ScopedBackend scope(backend);
  const Lattice& L = lattice();
  SchwarzParams p;
  p.schwarz_iterations = 2;
  p.block_mr_iterations = 3;
  p.additive = additive;
  const std::int64_t visits =
      std::int64_t{p.schwarz_iterations} * L.part.num_domains();
  const auto setup = std::make_shared<SchwarzSetup<S>>(L.part, L.op);
  const std::vector<int> sizes = batch_sizes({backend});
  const Threads serial(1);
  std::vector<FermionField<float>> u;

  // One-lane references: every source through its own apply().
  SchwarzPreconditioner<S> ref(setup, p);
  std::vector<Apply> one;
  if (rows & (kLanes | kBatchOfOne | kZeroRhs))
    for (int b = 0; b < kMaxRhs; ++b) {
      const FermionField<float>& f = L.f[static_cast<std::size_t>(b)];
      one.push_back(run(ref, {&f}, u));
      if (std::is_same_v<S, float> && (rows & kLanes)) {
        FermionField<float> d(f.size());
        L.op.apply(u[0], d);
        sub(f, d, d);
        sub(d, ref.residual(0), d);
        EXPECT_LT(norm(d), 1e-6 * norm(f)) << "RHS " << b;
      }
    }
  if (rows & kLanes) {
    EXPECT_EQ(one[0].stats.sweeps, p.schwarz_iterations);
    EXPECT_EQ(one[0].stats.matrix_block_loads, visits);
  }
  if (rows & kBatchOfOne) {
    ref.apply(L.f[0], u[0]);  // apply() is apply_batch() of one
    EXPECT_EQ(bits(u[0]), one[0].u[0]);
  }

  // The lanes row needs the serial hook-off applies only.
  const bool threads = (rows & kThreads) != 0;
  std::vector<std::pair<int, int>> placements = {{1, 1}};
  if (threads) placements.insert(placements.end(), {{4, 4}, {1, 4}});
  for (const bool hook : {false, true}) {
    if (hook ? !threads : !(rows & (kThreads | kLanes))) continue;
    SCOPED_TRACE(hook ? "hook on" : "hook off");
    FaultInjectorConfig fic;
    fic.seed = 4242;
    fic.probability = 0.25;
    fic.max_events = -1;
    fic.bit = 22;  // a mantissa bit: perturbs without wrecking the sweep
    // Threads (build, apply): 1; 4; built at 1 and applied at 4, so the
    // per-thread scratch pool grows on first use.
    std::vector<std::vector<Apply>> runs;
    std::vector<FaultInjectorStats> injected;
    for (const auto& [build, use] : placements) {
      const Threads at_build(build);
      FaultInjector inj(fic);
      SchwarzParams q = p;
      if (hook) q.domain_fault_injector = &inj;
      SchwarzPreconditioner<S> m(setup, q);
      const Threads at_use(use);
      runs.emplace_back();
      for (const int n : sizes) runs.back().push_back(run(m, L.first(n), u));
      injected.push_back(inj.stats());
    }
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "nrhs " << sizes[i]);
      if (threads) {
        EXPECT_EQ(runs[1][i], runs[0][i]) << "4 threads";
        EXPECT_EQ(runs[2][i], runs[0][i])
            << "built at 1 thread, applied at 4";
      }
      if (hook) {
        EXPECT_GT(runs[0][i].stats.injected_faults, 0);
      } else if (rows & kLanes) {
        EXPECT_EQ(runs[0][i],
                  lanes_of({one.begin(), one.begin() + sizes[i]}));
      }
    }
    if (!threads) continue;
    EXPECT_EQ(injected[1], injected[0]);
    EXPECT_EQ(injected[2], injected[0]);
    // One opportunity per domain visit, not per RHS.
    EXPECT_EQ(injected[0].opportunities_at(FaultSite::kDomainSolve),
              hook ? visits * static_cast<std::int64_t>(sizes.size()) : 0);
    EXPECT_EQ(injected[0].events_at(FaultSite::kDomainSolve) > 0, hook);
  }

  // A zero RHS stays exactly zero and leaks into neither neighbour: the
  // batch is its three one-lane applies, and the zero lane is charged
  // fewer MR iterations than a live one.
  if (rows & kZeroRhs) {
    const FermionField<float> zero(L.geom.volume());
    const Apply zero_one = run(ref, {&zero}, u);
    EXPECT_EQ(run(ref, {&L.f[0], &zero, &L.f[2]}, u),
              lanes_of({one[0], zero_one, one[2]}));
    EXPECT_EQ(norm(u[1]), 0.0);
    EXPECT_LT(zero_one.stats.mr_iterations, one[0].stats.mr_iterations);
  }

  // Scalar vs wide at 17 RHS (padded lanes; two vectors on avx512).
  if ((rows & kScalarVsWide) && backend != Backend::kScalar) {
    std::vector<FermionField<float>> us;
    const Apply wide = run(ref, L.first(kMaxRhs), u);
    const simd::ScopedBackend scalar(Backend::kScalar);
    EXPECT_EQ(run(ref, L.first(kMaxRhs), us).stats, wide.stats);
    for (std::size_t b = 0; b < u.size(); ++b)
      EXPECT_LE(rel_diff(us[b], u[b]), 1e-5) << "RHS " << b;
  }
  // avx2 == avx512, switching backend between applies on one instance.
  if ((rows & kAvx2VsAvx512) && backend == Backend::kAvx512 &&
      simd::backend_supported(Backend::kAvx2))
    for (const int n : batch_sizes({Backend::kAvx2, Backend::kAvx512})) {
      const Apply a5 = run(ref, L.first(n), u);
      const simd::ScopedBackend avx2(Backend::kAvx2);
      EXPECT_EQ(run(ref, L.first(n), u), a5) << "nrhs " << n;
    }

  // find_corrupt_domains at 1 and 4 threads (last: it corrupts the setup).
  if (!(rows & kAbftSweep)) return;
  FaultInjectorConfig flips;
  flips.max_events = 2;
  FaultInjector inj(flips);
  ASSERT_TRUE(setup->corrupt_packed(inj, 3, PackedComponent::kCloverDiag));
  ASSERT_TRUE(setup->corrupt_packed(inj, 7, PackedComponent::kGaugeLinks));
  std::vector<int> bad1, bad4;
  setup->find_corrupt_domains(bad1);
  {
    const Threads four(4);
    setup->find_corrupt_domains(bad4);
  }
  EXPECT_EQ(bad4, bad1);
  EXPECT_EQ(bad1, (std::vector<int>{3, 7}));
}

using SchwarzCell = std::tuple<Backend, bool /*half*/, bool /*additive*/>;

class SchwarzContract : public testing::TestWithParam<SchwarzCell> {};

TEST_P(SchwarzContract, Cells) {
  const auto [backend, half, additive] = GetParam();
  if (!simd::backend_supported(backend))
    GTEST_SKIP() << simd::to_string(backend) << " is not supported here";
  if (half)
    schwarz_cells<Half>(backend, additive, kAllRows);
  else
    schwarz_cells<float>(backend, additive, kAllRows);
}

std::string cell_name(const testing::TestParamInfo<SchwarzCell>& info) {
  const auto [backend, half, additive] = info.param;
  return std::string(simd::to_string(backend)) + (half ? "_half" : "_float") +
         (additive ? "_additive" : "_multiplicative");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchwarzContract,
    testing::Combine(testing::Values(Backend::kScalar, Backend::kAvx2,
                                     Backend::kAvx512),
                     testing::Bool(), testing::Bool()),
    cell_name);

// The rows under the names of the parity tests they replaced, each on one
// instance: the backend the dispatch selects (LQCD_SIMD_BACKEND forces
// one), S = float, multiplicative, unless the name asks for another axis.
// Where two names share a row they take different instances, so no two
// run the same cell.

TEST(ThreadSafety, SchwarzMultiplicativeCountersAndBitsAreThreadInvariant) {
  schwarz_cells<float>(simd::active_backend(), false, kThreads);
  schwarz_cells<Half>(simd::active_backend(), false, kThreads);
}

TEST(ThreadSafety, SchwarzAdditiveCountersAndBitsAreThreadInvariant) {
  schwarz_cells<float>(simd::active_backend(), true, kThreads);
  schwarz_cells<Half>(simd::active_backend(), true, kThreads);
}

TEST(LaneBatch, MatchesScalarPathWithinToleranceAndCounterExactly) {
  schwarz_cells<float>(simd::active_backend(), false, kLanes);
}

TEST(LaneBatch, ApplyIsABatchOfOneBitIdentically) {
  schwarz_cells<float>(simd::active_backend(), false, kBatchOfOne);
}

TEST(LaneBatch, ConvergedLaneIsMaskedWithScalarCounterParity) {
  schwarz_cells<float>(simd::active_backend(), false, kZeroRhs);
}

TEST(SchwarzBatch, MatrixLoadsPerSweepIndependentOfNrhs) {
  schwarz_cells<Half>(simd::active_backend(), true, kLanes);
}

TEST(SchwarzBatch, BatchedRhsAreIndependentAndMatchSequentialApplies) {
  schwarz_cells<float>(simd::active_backend(), true, kLanes | kZeroRhs);
}

TEST(SimdSchwarz, BatchSolveAgreesAcrossBackendsWithIdenticalCounters) {
  for (const Backend b : simd::available_backends())
    if (b != Backend::kScalar) schwarz_cells<float>(b, false, kScalarVsWide);
}

TEST(SimdSchwarz, BatchOutputIsIndependentOfLaneWidthAndBatchSize) {
  for (const Backend b : simd::available_backends())
    schwarz_cells<Half>(b, false, kLanes | kAvx2VsAvx512);
}

TEST(SchwarzAbft, VerificationIsThreadCountInvariant) {
  schwarz_cells<float>(simd::active_backend(), false, kAbftSweep);
}

// ---------------------------------------------------------------------------
// Solve tier
// ---------------------------------------------------------------------------

struct Problem {
  Geometry geom;
  GaugeField<double> gauge;
  FermionField<double> b;

  Problem(const Coord& dims, std::uint64_t seed)
      : geom(dims),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, 0.7, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        b(geom.volume()) {
    gaussian(b, seed + 1);
  }
};

/// A weak preconditioner and a small basis on 8^4: several FGMRES-DR
/// cycles, so restarts, checkpoints and ABFT sweeps all engage.
DDSolverConfig solver_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 3;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-10;
  return cfg;
}

/// The same on the 8x4x4x4 service lattice (16 domains).
DDSolverConfig service_config() {
  DDSolverConfig cfg = solver_config();
  cfg.block = {4, 2, 2, 2};
  cfg.basis_size = 4;
  cfg.deflation_size = 2;
  cfg.block_mr_iterations = 1;
  cfg.tolerance = 1e-8;
  return cfg;
}

/// ABFT sweeps every 4 applications of a two-sweep preconditioner (the
/// packed-data hook fires after each sweep).
DDSolverConfig with_abft(DDSolverConfig cfg) {
  cfg.schwarz_iterations = 2;
  cfg.resilience.enabled = true;
  cfg.resilience.abft.enabled = true;
  cfg.resilience.abft.verify_interval = 4;
  return cfg;
}

/// Packed-data bit flips between Schwarz sweeps, drawn through a
/// ParallelFaultScope (thread-count invariant by construction).
FaultInjectorConfig packed_faults(double probability) {
  FaultInjectorConfig fic;
  fic.seed = 77;
  fic.probability = probability;
  fic.max_events = -1;
  return fic;
}

SolveRequest request(const Problem& prob, std::uint64_t seed) {
  SolveRequest req;
  req.geom = &prob.geom;
  req.gauge = &prob.gauge;
  req.mass = 0.1;
  req.csw = 1.0;
  req.tolerance = 1e-8;
  req.source = FermionField<double>(prob.geom.volume());
  gaussian(req.source, seed);
  return req;
}

/// One side of a row: per-RHS stats and solutions, and the exact side
/// counters the row records.
struct Side {
  std::vector<SolverStats> stats;
  std::vector<FermionField<double>> x;
  AbftStats abft;
  FaultInjectorStats injected;
  ServiceStats service;
};

/// One solve of b, listed `times` times (to pair with as many runs of the
/// other side).
Side solve(DDSolver& solver, const FermionField<double>& b, int times = 1) {
  Side s;
  s.x.emplace_back(b.size());
  s.stats.push_back(solver.solve(b, s.x[0]));
  for (int i = 1; i < times; ++i) {
    s.x.push_back(s.x[0]);
    s.stats.push_back(s.stats[0]);
  }
  return s;
}

Side serve(const SolverServiceConfig& scfg, std::vector<SolveRequest> reqs) {
  SolverService service(scfg);
  std::vector<std::future<SolveResult>> futs;
  for (auto& r : reqs) futs.push_back(service.submit(std::move(r)));
  if (scfg.worker_threads == 0) service.drain();
  Side s;
  for (auto& fut : futs) {
    SolveResult res = fut.get();
    s.stats.push_back(res.stats);
    s.x.push_back(std::move(res.solution));
  }
  s.service = service.stats();
  return s;
}

std::pair<Side, Side> solve_vs_batch_of_one() {
  const Problem prob({8, 8, 8, 8}, 311);
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, solver_config());
  Side batch;
  batch.x.emplace_back(prob.geom.volume());
  batch.stats = solver.solve_batch({prob.b}, batch.x);
  EXPECT_EQ(batch.stats[0].recycle_projections, 0);
  return {solve(solver, prob.b), std::move(batch)};
}

/// Lane 0 of a batch without a RecycleCache runs alone and seeds the
/// subspace the other lanes project against: the same solve as solve().
std::pair<Side, Side> seed_lane_vs_solve() {
  const Problem prob({8, 8, 8, 8}, 321);
  const DDSolverConfig cfg = solver_config();
  const auto setup =
      std::make_shared<DDSolverSetup>(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  DDSolver batched(setup, cfg), single(setup, cfg);
  std::vector<FermionField<double>> b(3, prob.b);
  gaussian(b[1], 323);
  gaussian(b[2], 324);
  Side lane;
  lane.x.assign(3, FermionField<double>(prob.geom.volume()));
  lane.stats = batched.solve_batch(b, lane.x);
  EXPECT_EQ(lane.stats[1].recycle_projections, 1);
  lane.stats.resize(1);
  lane.x.resize(1);
  return {std::move(lane), solve(single, prob.b)};
}

std::pair<Side, Side> service_lone_request_vs_direct_solve() {
  const Problem prob({8, 4, 4, 4}, 101);
  SolverServiceConfig scfg;
  scfg.solver = service_config();
  scfg.worker_threads = 0;
  std::vector<SolveRequest> reqs;
  reqs.push_back(request(prob, 200));
  const FermionField<double> b = reqs[0].source;
  Side served = serve(scfg, std::move(reqs));
  EXPECT_EQ(served.service.lanes_solved, 1u);  // a batch of one lane
  EXPECT_EQ(served.service.cache.hits, 0u);
  served.service = {};  // the direct side has no service counters
  DDSolver direct(prob.geom, prob.gauge, 0.1, 1.0, scfg.solver);
  return {std::move(served), solve(direct, b)};
}

/// Two solvers on one setup, solving one after the other and then
/// concurrently on two threads, against an independent solver.
std::pair<Side, Side> shared_setup_vs_independent() {
  const Problem prob({8, 8, 8, 8}, 451);
  const DDSolverConfig cfg = solver_config();
  const auto setup =
      std::make_shared<DDSolverSetup>(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  DDSolver s1(setup, cfg), s2(setup, cfg);
  Side shared;
  shared.x.assign(4, FermionField<double>(prob.geom.volume()));
  shared.stats.resize(4);
  shared.stats[0] = s1.solve(prob.b, shared.x[0]);
  shared.stats[1] = s2.solve(prob.b, shared.x[1]);
  const int width = max_threads();
  std::thread other([&] {
    set_threads(width);
    shared.stats[2] = s1.solve(prob.b, shared.x[2]);
  });
  shared.stats[3] = s2.solve(prob.b, shared.x[3]);
  other.join();
  DDSolver independent(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  return {std::move(shared), solve(independent, prob.b, 4)};
}

std::pair<Side, Side> resilience_on_vs_off_fault_free() {
  const Problem prob({8, 8, 8, 8}, 201);
  DDSolverConfig cfg = solver_config();
  DDSolver plain(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  cfg.resilience.enabled = true;
  DDSolver hardened(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  std::pair<Side, Side> sides{solve(plain, prob.b), solve(hardened, prob.b)};
  EXPECT_GT(hardened.checkpoint_stats()->checkpoints, 0);
  EXPECT_EQ(hardened.checkpoint_stats()->rollbacks, 0);
  EXPECT_EQ(sides.second.stats[0].stagnation_restarts, 0);
  return sides;
}

std::pair<Side, Side> abft_on_vs_off_fault_free() {
  const Problem prob({8, 8, 8, 8}, 301);
  DDSolverConfig off = with_abft(solver_config());
  off.resilience.abft.enabled = false;
  DDSolver s_off(prob.geom, prob.gauge, 0.1, 1.0, off);
  DDSolver s_on(prob.geom, prob.gauge, 0.1, 1.0, with_abft(solver_config()));
  std::pair<Side, Side> sides{solve(s_off, prob.b), solve(s_on, prob.b)};
  EXPECT_EQ(s_off.abft_stats(), nullptr);
  EXPECT_GT(s_on.abft_stats()->verifications, 0);
  EXPECT_EQ(s_on.abft_stats()->detections, 0);
  EXPECT_EQ(s_on.abft_guard()->last_status(), AbftStatus::kClean);
  return sides;
}

std::pair<Side, Side> omp_threads_1_vs_4_packed_faults() {
  const Problem prob({8, 8, 8, 8}, 501);
  const auto at = [&](int threads) {
    const Threads scope(threads);
    FaultInjector inj(packed_faults(0.1));
    DDSolverConfig cfg = with_abft(solver_config());
    cfg.resilience.packed_injector = &inj;
    DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
    Side s = solve(solver, prob.b);
    s.abft = *solver.abft_stats();
    s.injected = inj.stats();
    return s;
  };
  std::pair<Side, Side> sides{at(1), at(4)};
  EXPECT_GT(sides.first.injected.events, 0);
  EXPECT_GT(sides.first.abft.detections, 0);
  return sides;
}

/// ABFT caps a configuration at one solver context, so dispatches
/// serialize and 8 requests inside one window give the same two batches
/// at any worker count. Which batch takes the context first is not fixed
/// with 4 workers, and a request's iterations depend on whether its batch
/// found a recycled subspace, so the row compares the aggregate counters
/// only.
std::pair<Side, Side> service_workers_1_vs_4_packed_faults() {
  const Problem prob({8, 4, 4, 4}, 191);
  const auto with = [&](int workers) {
    FaultInjector inj(packed_faults(0.05));
    SolverServiceConfig scfg;
    scfg.solver = with_abft(service_config());
    scfg.solver.resilience.packed_injector = &inj;
    scfg.batch.max_lanes = 4;
    scfg.batch.window_seconds = 2.0;
    scfg.worker_threads = workers;
    std::vector<SolveRequest> reqs;
    for (std::uint64_t i = 0; i < 8; ++i)
      reqs.push_back(request(prob, 800 + i));
    Side s = serve(scfg, std::move(reqs));
    s.injected = inj.stats();
    s.stats.clear();
    s.x.clear();
    return s;
  };
  std::pair<Side, Side> sides{with(1), with(4)};
  EXPECT_EQ(sides.first.service.completed, 8u);
  EXPECT_EQ(sides.first.service.converged, 8u);
  EXPECT_EQ(sides.first.service.batches, 2u);
  EXPECT_GT(sides.first.injected.events, 0);
  return sides;
}

enum class Relation { kSameTrajectory, kSameCounters };

/// The row `sides` holds under `relation`.
void holds(Relation relation, const std::pair<Side, Side>& sides) {
  const auto& [a, b] = sides;
  ASSERT_EQ(a.x.size(), b.x.size());
  EXPECT_EQ(a.abft, b.abft);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.service, b.service);
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "RHS " << i);
    EXPECT_TRUE(a.stats[i].converged);
    if (relation == Relation::kSameTrajectory) {
      EXPECT_EQ(a.stats[i], b.stats[i]);
      EXPECT_EQ(bits(a.x[i]), bits(b.x[i]));
    } else {
      EXPECT_EQ(a.stats[i].iterations, b.stats[i].iterations);
      EXPECT_LE(rel_diff(a.x[i], b.x[i]), 1e-8);
    }
  }
}

// The table: one row a test, under the name of the parity test it replaced.

TEST(MultiRhs, BatchOfOneIsBitIdenticalToSolve) {
  holds(Relation::kSameTrajectory, solve_vs_batch_of_one());
}

TEST(MultiRhs, SeedLaneIsBitIdenticalToSolve) {
  holds(Relation::kSameTrajectory, seed_lane_vs_solve());
}

TEST(Service, BatchOfOneBitIdenticalToDirectSolve) {
  holds(Relation::kSameTrajectory, service_lone_request_vs_direct_solve());
}

TEST(SharedSetup, TwoSolversOnOneSetupMatchIndependentSolvers) {
  holds(Relation::kSameTrajectory, shared_setup_vs_independent());
}

TEST(DDSolverResilience, FaultFreePathIsBitIdenticalToSeedPipeline) {
  holds(Relation::kSameTrajectory, resilience_on_vs_off_fault_free());
}

TEST(DDSolverAbft, FaultFreePathIsBitIdenticalToAbftOff) {
  holds(Relation::kSameTrajectory, abft_on_vs_off_fault_free());
}

TEST(DDSolverAbft, StatsAreThreadCountInvariant) {
  holds(Relation::kSameCounters, omp_threads_1_vs_4_packed_faults());
}

TEST(Service, StatsParityOneVsFourWorkersUnderFaultInjection) {
  holds(Relation::kSameCounters, service_workers_1_vs_4_packed_faults());
}

}  // namespace
}  // namespace lqcd
