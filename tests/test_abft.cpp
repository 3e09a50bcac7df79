// End-to-end ABFT: in-solve checksum re-verification, localized domain
// repair, the escalation ladder, and the Young/Daly interval tuner.
//
// Contract under test (DESIGN.md Sec. 11):
//   * every injected packed-data upset is detected by a checksum sweep
//     within one verify interval (the closing sweep bounds the tail) and
//     repaired bit-identically from the pack source — never a silent
//     wrong answer;
//   * a corrupt pack source escalates to a master rebuild + iterate
//     rollback, and a corrupt master to a structured failure
//     (Breakdown::kDataCorruption), never a wrong answer;
//   * a recycled deflation subspace corrupted between batches is dropped.
// The fault-free path with ABFT on vs off, and the thread-count invariance
// of sweeps and stats, are rows of test_contracts.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lqcd/cluster/cluster_sim.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/resilience/resilient_solve.h"
#include "lqcd/schwarz/schwarz.h"

namespace lqcd {
namespace {

template <class T>
double true_residual(const LinearOperator<T>& op, const FermionField<T>& b,
                     const FermionField<T>& x) {
  FermionField<T> r(op.vector_size());
  op.apply(x, r);
  sub(b, r, r);
  return norm(r) / norm(b);
}

// ---------------------------------------------------------------------------
// Young/Daly interval optimizer
// ---------------------------------------------------------------------------

TEST(Daly, GuardsDegenerateInputs) {
  EXPECT_EQ(daly_checkpoint_interval(0.0, 100.0), 0.0);
  EXPECT_EQ(daly_checkpoint_interval(-1.0, 100.0), 0.0);
  EXPECT_EQ(daly_checkpoint_interval(10.0, 0.0), 0.0);
  // Cost at/beyond 2*MTBF: checkpoint once per MTBF, the sane floor.
  EXPECT_EQ(daly_checkpoint_interval(200.0, 100.0), 100.0);
  EXPECT_EQ(daly_checkpoint_interval(500.0, 100.0), 100.0);
}

TEST(Daly, NearYoungOptimumForSmallCost) {
  // C << M: the first-order Young interval sqrt(2 C M) dominates.
  const double c = 60.0, m = 28125.0;
  const double young = std::sqrt(2.0 * c * m);
  const double t = daly_checkpoint_interval(c, m);
  EXPECT_GT(t, young - c - 1.0);
  EXPECT_LT(t, 1.1 * young);
}

TEST(Daly, MinimizesExpectedOverheadRate) {
  // h(T) = C/T + T/(2M): the returned interval must beat both a much
  // shorter and a much longer one.
  const double c = 30.0, m = 7000.0;
  const auto rate = [&](double T) { return c / T + T / (2.0 * m); };
  const double t = daly_checkpoint_interval(c, m);
  ASSERT_GT(t, 0.0);
  EXPECT_LT(rate(t), rate(0.5 * t));
  EXPECT_LT(rate(t), rate(2.0 * t));
}

TEST(Daly, ResilienceConfigAutoTuneMatchesSystemMtbf) {
  const double tuned =
      ResilienceConfig::auto_tune_checkpoint_interval(2000.0, 1024, 60.0);
  EXPECT_EQ(tuned, daly_checkpoint_interval(60.0, 2000.0 * 3600.0 / 1024.0));
  EXPECT_EQ(ResilienceConfig::auto_tune_checkpoint_interval(0.0, 64, 60.0),
            0.0);
  EXPECT_EQ(ResilienceConfig::auto_tune_checkpoint_interval(2000.0, 0, 60.0),
            0.0);
}

// ---------------------------------------------------------------------------
// AbftGuard repair ladder (against a controllable fake store)
// ---------------------------------------------------------------------------

class FakeStore final : public PackedDomainStore {
 public:
  explicit FakeStore(int nd) : nd_(nd) {}
  int num_domains() const override { return nd_; }
  const char* store_name() const override { return "fake"; }
  void find_corrupt_domains(std::vector<int>& bad) const override {
    for (int d : corrupt) bad.push_back(d);
  }
  void repack_domain(int d) override {
    repacked.push_back(d);
    corrupt.erase(std::remove(corrupt.begin(), corrupt.end(), d),
                  corrupt.end());
  }
  bool source_intact() const override { return source_ok; }

  std::vector<int> corrupt;
  std::vector<int> repacked;
  bool source_ok = true;

 private:
  int nd_;
};

AbftConfig enabled_config(int interval) {
  AbftConfig c;
  c.enabled = true;
  c.verify_interval = interval;
  return c;
}

TEST(AbftGuard, CleanSweepReportsClean) {
  FakeStore store(8);
  AbftGuard guard(enabled_config(4));
  guard.add_store(&store);
  EXPECT_EQ(guard.sweep(), AbftStatus::kClean);
  EXPECT_EQ(guard.stats().verifications, 1);
  EXPECT_EQ(guard.stats().detections, 0);
  EXPECT_EQ(guard.last_detection_application(), -1);
}

TEST(AbftGuard, Rung1RepacksExactlyTheBadDomains) {
  FakeStore store(8);
  store.corrupt = {2, 5};
  AbftGuard guard(enabled_config(4));
  guard.add_store(&store);
  EXPECT_EQ(guard.sweep(), AbftStatus::kRepaired);
  EXPECT_EQ(guard.stats().detections, 2);
  EXPECT_EQ(guard.stats().repacks, 2);
  EXPECT_EQ(guard.stats().escalations, 0);
  EXPECT_EQ(store.repacked, (std::vector<int>{2, 5}));
  EXPECT_TRUE(store.corrupt.empty());
  EXPECT_FALSE(guard.take_rollback_request());
  // The repaired store verifies clean on the next sweep.
  EXPECT_EQ(guard.sweep(), AbftStatus::kClean);
}

TEST(AbftGuard, Rung2EscalatesToSourceRepairAndRollback) {
  FakeStore store(8);
  store.corrupt = {3};
  store.source_ok = false;
  AbftGuard guard(enabled_config(4));
  guard.add_store(&store);
  guard.set_source_repair([&store] {
    store.corrupt.clear();  // the rebuild re-packs everything
    store.source_ok = true;
    return true;
  });
  EXPECT_EQ(guard.sweep(), AbftStatus::kSourceRepaired);
  EXPECT_EQ(guard.stats().escalations, 1);
  EXPECT_EQ(guard.stats().repacks, 0);  // no per-domain rung-1 repairs
  EXPECT_TRUE(guard.take_rollback_request());
  EXPECT_FALSE(guard.take_rollback_request());  // consumed
  guard.note_rollback_serviced();
  EXPECT_EQ(guard.stats().rollbacks, 1);
}

TEST(AbftGuard, Rung4CorruptMasterThrowsStructuredError) {
  FakeStore store(8);
  store.corrupt = {1};
  store.source_ok = false;
  AbftGuard no_repair(enabled_config(4));
  no_repair.add_store(&store);
  EXPECT_THROW(no_repair.sweep(), AbftError);
  EXPECT_EQ(no_repair.last_status(), AbftStatus::kFailed);

  AbftGuard failing_repair(enabled_config(4));
  failing_repair.add_store(&store);
  failing_repair.set_source_repair([] { return false; });  // master corrupt
  EXPECT_THROW(failing_repair.sweep(), AbftError);
  EXPECT_EQ(failing_repair.last_status(), AbftStatus::kFailed);
}

TEST(AbftGuard, NoteApplicationSweepsOnTheInterval) {
  FakeStore store(4);
  AbftGuard guard(enabled_config(3));
  guard.add_store(&store);
  for (int i = 0; i < 7; ++i) guard.note_application();
  EXPECT_EQ(guard.applications(), 7);
  EXPECT_EQ(guard.stats().verifications, 2);  // after apps 3 and 6
}

TEST(AbftGuard, BeginSolveClearsStaleRollbackRequest) {
  FakeStore store(4);
  store.corrupt = {0};
  store.source_ok = false;
  AbftGuard guard(enabled_config(4));
  guard.add_store(&store);
  guard.set_source_repair([&store] {
    store.corrupt.clear();
    store.source_ok = true;
    return true;
  });
  guard.sweep();
  guard.begin_solve();  // the previous solve ended before the rollback
  EXPECT_FALSE(guard.take_rollback_request());
}

TEST(AbftStats, MergeIsCommutativeAndComplete) {
  AbftStats a;
  a.verifications = 3;
  a.detections = 2;
  a.repacks = 2;
  AbftStats b;
  b.verifications = 1;
  b.rollbacks = 1;
  b.escalations = 1;
  EXPECT_TRUE(a + b == b + a);
  const AbftStats s = a + b;
  EXPECT_EQ(s.verifications, 4);
  EXPECT_EQ(s.detections, 2);
  EXPECT_EQ(s.repacks, 2);
  EXPECT_EQ(s.rollbacks, 1);
  EXPECT_EQ(s.escalations, 1);
}

// ---------------------------------------------------------------------------
// SchwarzSetup as a PackedDomainStore
// ---------------------------------------------------------------------------

struct Fixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<float> gauge;
  WilsonCloverOperator<float> op;
  DomainPartition part;

  Fixture(const Coord& dims, const Coord& block, double disorder, float mass,
          float csw, std::uint64_t seed)
      : geom(dims),
        cb(geom),
        gauge([&] {
          auto gd = random_gauge_field<double>(geom, disorder, seed);
          gd.make_time_antiperiodic();
          return convert<float>(gd);
        }()),
        op(geom, cb, gauge, mass, csw),
        part(geom, block) {
    op.prepare_schur();
  }
};

void expect_float_fields_identical(const FermionField<float>& a,
                                   const FermionField<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < a.size(); ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        if (a[i].s[sp].c[c].real() != b[i].s[sp].c[c].real()) ++mismatches;
        if (a[i].s[sp].c[c].imag() != b[i].s[sp].c[c].imag()) ++mismatches;
      }
  EXPECT_EQ(mismatches, 0);
}

TEST(SchwarzAbft, TargetedCorruptionLocalizesToTheDomain) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 41);
  SchwarzPreconditioner<float> pre(f.part, f.op, SchwarzParams{});
  SchwarzSetup<float>& m = *pre.setup();
  ASSERT_EQ(m.verify_checksums(), 0);

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 7;
  FaultInjector inj(fic);
  const int target = 5;
  ASSERT_EQ(inj.stats().events, 0);
  ASSERT_TRUE(m.corrupt_packed(inj, target, PackedComponent::kCloverDiag));
  EXPECT_EQ(inj.stats().events_at(FaultSite::kPackedData), 1);

  std::vector<int> bad;
  m.find_corrupt_domains(bad);
  EXPECT_EQ(bad, std::vector<int>{target});
  EXPECT_EQ(m.verify_checksums(), 1);
}

TEST(SchwarzAbft, RepackRestoresTheDomainBitIdentically) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 43);
  SchwarzParams sp;
  sp.schwarz_iterations = 2;
  SchwarzPreconditioner<float> pre(f.part, f.op, sp);
  SchwarzSetup<float>& m = *pre.setup();

  // Every domain's pack-time stamps, one per packed component.
  auto stamps = [&m] {
    std::vector<std::uint32_t> s;
    for (int d = 0; d < m.num_domains(); ++d)
      for (const PackedComponent c : kPackedComponents)
        s.push_back(m.domain_checksum(d, c));
    return s;
  };
  const std::vector<std::uint32_t> before = stamps();
  FermionField<float> rhs(f.geom.volume()), u_ref(f.geom.volume());
  gaussian(rhs, 44);
  pre.apply(rhs, u_ref);

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 11;
  fic.max_events = 3;
  FaultInjector inj(fic);
  ASSERT_TRUE(m.corrupt_packed(inj, 0, PackedComponent::kGaugeLinks));
  ASSERT_TRUE(m.corrupt_packed(inj, 2, PackedComponent::kCloverInv));
  EXPECT_EQ(m.verify_checksums(), 2);

  ASSERT_TRUE(m.source_intact());
  std::vector<int> bad;
  m.find_corrupt_domains(bad);
  for (int d : bad) m.repack_domain(d);

  // Bit-identical repair: pack_domain is the same code path as
  // construction, so every checksum must return to its pack-time value
  // and the preconditioner must produce the exact pre-corruption output.
  EXPECT_EQ(m.verify_checksums(), 0);
  EXPECT_EQ(stamps(), before);
  FermionField<float> u_post(f.geom.volume());
  pre.apply(rhs, u_post);
  expect_float_fields_identical(u_ref, u_post);
}

TEST(SchwarzAbft, CorruptSourceEscalatesThroughTheGuard) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 47);
  SchwarzPreconditioner<float> pre(f.part, f.op, SchwarzParams{});
  SchwarzSetup<float>& m = *pre.setup();
  const GaugeField<float> pristine = f.gauge;

  // Corrupt a packed domain AND its pack source: rung 1 is not safe
  // (a re-pack would stamp the corruption as truth), so the guard must
  // escalate to the source-repair callback and request a rollback.
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 13;
  fic.max_events = 2;
  FaultInjector inj(fic);
  ASSERT_TRUE(m.corrupt_packed(inj, 1, PackedComponent::kGaugeLinks));
  ASSERT_TRUE(inj.maybe_corrupt(f.gauge));
  ASSERT_FALSE(m.source_intact());

  AbftGuard guard(enabled_config(4));
  guard.add_store(&m);
  bool source_repaired = false;
  guard.set_source_repair([&] {
    f.gauge = pristine;  // "rebuild from the verified double master"
    f.op.rebuild_clover();
    m.repack_all();
    source_repaired = true;
    return true;
  });
  EXPECT_EQ(guard.sweep(), AbftStatus::kSourceRepaired);
  EXPECT_TRUE(source_repaired);
  EXPECT_EQ(guard.stats().escalations, 1);
  EXPECT_TRUE(guard.take_rollback_request());
  EXPECT_TRUE(m.source_intact());
  EXPECT_EQ(m.verify_checksums(), 0);
}

// ---------------------------------------------------------------------------
// DDSolver end-to-end
// ---------------------------------------------------------------------------

struct Problem {
  Geometry geom;
  Checkerboard cb;
  GaugeField<double> gauge;
  FermionField<double> b;

  Problem(const Coord& dims, double disorder, std::uint64_t seed)
      : geom(dims),
        cb(geom),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        b(geom.volume()) {
    gaussian(b, seed + 1);
  }
};

/// Weak preconditioner spanning several outer cycles, so the periodic
/// sweeps actually interleave with the solve.
DDSolverConfig abft_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 2;
  cfg.schwarz_iterations = 2;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-8;
  cfg.max_iterations = 2000;
  cfg.resilience.enabled = true;
  cfg.resilience.abft.enabled = true;
  cfg.resilience.abft.verify_interval = 4;
  return cfg;
}

TEST(DDSolverAbft, HundredSeededStreamsConvergeWithZeroSilentSdc) {
  // 100 independent fault streams, each flipping packed bits between
  // Schwarz sweeps at p = 1e-3 per opportunity. Acceptance: every stream
  // converges to the true tolerance, every injected upset is detected
  // and repaired (detections bound events per-domain per-interval), and
  // the closing sweep leaves no corruption behind.
  Problem prob({8, 8, 8, 8}, 0.7, 401);
  std::int64_t total_events = 0, total_detections = 0;
  for (int stream = 0; stream < 100; ++stream) {
    FaultInjectorConfig fic;
    fic.fault = FaultClass::kSpinorBitFlip;
    fic.seed = 11000 + static_cast<std::uint64_t>(stream);
    fic.probability = 1e-3;
    fic.max_events = -1;
    FaultInjector inj(fic);
    DDSolverConfig cfg = abft_config();
    cfg.resilience.packed_injector = &inj;
    DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
    FermionField<double> x(prob.geom.volume());
    const auto st = solver.solve(prob.b, x);

    ASSERT_TRUE(st.converged) << "stream " << stream;
    EXPECT_EQ(st.breakdown, Breakdown::kNone) << "stream " << stream;
    EXPECT_LT(true_residual(solver.op(), prob.b, x),
              100.0 * cfg.tolerance)
        << "stream " << stream;

    const std::int64_t events =
        inj.stats().events_at(FaultSite::kPackedData);
    const AbftStats& as = *solver.abft_stats();
    if (events > 0) {
      EXPECT_GE(as.detections, 1) << "stream " << stream;
      EXPECT_LE(as.detections, events) << "stream " << stream;
    } else {
      EXPECT_EQ(as.detections, 0) << "stream " << stream;
    }
    // The source stayed intact, so every detection was a rung-1 repack;
    // nothing escalated and nothing survived the closing sweep.
    EXPECT_EQ(as.repacks, as.detections) << "stream " << stream;
    EXPECT_EQ(as.escalations, 0) << "stream " << stream;
    EXPECT_NE(solver.abft_guard()->last_status(), AbftStatus::kFailed);
    total_events += events;
    total_detections += as.detections;
  }
  // The experiment exercised the detection path (seeded: deterministic).
  EXPECT_GE(total_events, 1);
  EXPECT_GE(total_detections, 1);
}

TEST(DDSolverAbft, DeflationScopeDropsACorruptedRecycledSubspace) {
  // check_deflation stamps a RecycleCache's subspace when a batch ends
  // and re-verifies it when the next batch picks it up. A bit flipped in
  // between is one detection: the subspace is dropped, so RHS 0 seeds a
  // fresh one instead of projecting, and every lane still converges.
  Problem prob({8, 8, 8, 8}, 0.7, 601);
  DDSolverConfig cfg = abft_config();
  cfg.schwarz_iterations = 1;  // several cycles: a subspace is harvested
  cfg.resilience.abft.check_deflation = true;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  RecycleCache cache;
  BatchSolveOptions options;
  options.recycle = &cache;
  const auto batch = [&](std::uint64_t seed) {
    std::vector<FermionField<double>> b, x;
    for (int i = 0; i < 3; ++i) {
      b.emplace_back(prob.geom.volume());
      gaussian(b.back(), seed + static_cast<std::uint64_t>(i));
      x.emplace_back(prob.geom.volume());
    }
    const auto stats = solver.solve_batch(b, x, options);
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_TRUE(stats[i].converged) << "rhs " << i;
      EXPECT_EQ(stats[i].breakdown, Breakdown::kNone) << "rhs " << i;
    }
    return stats;
  };
  batch(700);
  ASSERT_TRUE(cache.abft_stamped);
  EXPECT_EQ(solver.abft_stats()->detections, 0);

  FaultInjector flip(FaultInjectorConfig{});  // one bit, p = 1
  ASSERT_TRUE(flip.maybe_corrupt(cache.space.v[0]));
  const auto stats = batch(710);
  EXPECT_EQ(solver.abft_stats()->detections, 1);
  EXPECT_EQ(stats[0].recycle_projections, 0);
}

TEST(DDSolverAbft, VerifyIntervalAutoTunesFromFaultProbability) {
  Problem prob({8, 8, 8, 8}, 0.7, 801);
  DDSolverConfig cfg = abft_config();
  cfg.resilience.abft.verify_interval = 0;  // auto
  cfg.resilience.abft.fault_probability_per_application = 1e-3;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  ASSERT_NE(solver.abft_guard(), nullptr);
  const int expected = std::max<int>(
      1, static_cast<int>(std::llround(
             daly_checkpoint_interval(0.05, 1000.0))));
  EXPECT_EQ(solver.abft_guard()->config().verify_interval, expected);
}

// ---------------------------------------------------------------------------
// Cluster model: checkpoint auto-tuning and verify-sweep accounting
// ---------------------------------------------------------------------------

TEST(ClusterAbft, DefaultFaultSpecKeepsHistoricalNumbers) {
  using namespace lqcd::cluster;
  DDSolveSpec spec;
  spec.lattice = {16, 16, 16, 16};
  spec.block = {4, 4, 4, 4};
  spec.outer_iterations = 100;
  const auto part = NodePartition::uniform(spec.lattice, {2, 2, 2, 2});
  ClusterSimParams p;
  p.faults.node_mtbf_hours = 500.0;
  p.faults.recovery_seconds = 100.0;
  p.faults.checkpoint_interval_seconds = 50.0;
  const auto r = ClusterSim(p).simulate_dd(spec, part);
  // checkpoint_cost_seconds = 0 (default): writes are free, the overhead
  // is exactly the historical failures * (recovery + rework) formula.
  const double healthy = r.total_seconds - r.fault_overhead_seconds;
  const double mtbf_sys = p.faults.node_mtbf_hours * 3600.0 / 16.0;
  const double rework = std::min(0.5 * 50.0, 0.5 * healthy);
  const double expected = healthy / mtbf_sys * (100.0 + rework);
  EXPECT_NEAR(r.fault_overhead_seconds, expected, 1e-9 * expected);
  EXPECT_EQ(r.effective_checkpoint_interval_seconds, 50.0);
  EXPECT_EQ(r.abft_verify_seconds, 0.0);
}

TEST(ClusterAbft, CheckpointWritesAreCharged) {
  using namespace lqcd::cluster;
  DDSolveSpec spec;
  spec.lattice = {16, 16, 16, 16};
  spec.block = {4, 4, 4, 4};
  spec.outer_iterations = 100;
  const auto part = NodePartition::uniform(spec.lattice, {2, 2, 2, 2});
  ClusterSimParams p;
  p.faults.node_mtbf_hours = 500.0;
  p.faults.recovery_seconds = 100.0;
  p.faults.checkpoint_interval_seconds = 50.0;
  const auto free_writes = ClusterSim(p).simulate_dd(spec, part);
  p.faults.checkpoint_cost_seconds = 5.0;
  const auto paid = ClusterSim(p).simulate_dd(spec, part);
  const double healthy =
      free_writes.total_seconds - free_writes.fault_overhead_seconds;
  EXPECT_NEAR(paid.fault_overhead_seconds - free_writes.fault_overhead_seconds,
              healthy / 50.0 * 5.0, 1e-9 * healthy);
}

TEST(ClusterAbft, AutoTunedIntervalBeatsFixedOnSteadyStateRun) {
  using namespace lqcd::cluster;
  DDSolveSpec spec;
  spec.lattice = {64, 64, 64, 128};
  spec.block = {8, 4, 4, 4};
  spec.outer_iterations = 100 * 872;
  spec.half_precision_boundaries = true;
  const auto part = NodePartition::uniform(spec.lattice, {4, 4, 8, 8});
  ClusterSimParams p;
  p.faults.node_mtbf_hours = 2000.0;
  p.faults.recovery_seconds = 300.0;
  p.faults.checkpoint_cost_seconds = 60.0;
  p.faults.checkpoint_interval_seconds = 600.0;
  const auto fixed = ClusterSim(p).simulate_dd(spec, part);
  p.faults.auto_tune_checkpoint_interval = true;
  const auto tuned = ClusterSim(p).simulate_dd(spec, part);
  EXPECT_GT(tuned.effective_checkpoint_interval_seconds, 0.0);
  EXPECT_NE(tuned.effective_checkpoint_interval_seconds,
            fixed.effective_checkpoint_interval_seconds);
  EXPECT_LE(tuned.total_seconds, fixed.total_seconds);
  EXPECT_EQ(tuned.effective_checkpoint_interval_seconds,
            daly_checkpoint_interval(60.0, 2000.0 * 3600.0 / 1024.0));
}

TEST(ClusterAbft, VerifySweepsChargeBandwidthBoundTime) {
  using namespace lqcd::cluster;
  DDSolveSpec spec;
  spec.lattice = {16, 16, 16, 16};
  spec.block = {4, 4, 4, 4};
  spec.outer_iterations = 100;
  const auto part = NodePartition::uniform(spec.lattice, {2, 2, 2, 2});
  ClusterSimParams p;
  const auto off = ClusterSim(p).simulate_dd(spec, part);
  DDSolveSpec s16 = spec;
  s16.abft_verify_interval = 16;
  const auto r16 = ClusterSim(p).simulate_dd(s16, part);
  DDSolveSpec s8 = spec;
  s8.abft_verify_interval = 8;
  const auto r8 = ClusterSim(p).simulate_dd(s8, part);

  EXPECT_EQ(off.abft_verify_seconds, 0.0);
  EXPECT_GT(r16.abft_verify_seconds, 0.0);
  // Halving the interval exactly doubles the amortized sweep charge.
  EXPECT_NEAR(r8.abft_verify_seconds, 2.0 * r16.abft_verify_seconds,
              1e-12 * r8.abft_verify_seconds);
  EXPECT_NEAR(r16.total_seconds, off.total_seconds + r16.abft_verify_seconds,
              1e-9 * r16.total_seconds);
  // The descriptor is a pure streaming pass over the packed matrices.
  const auto w = knc::checksum_verify_work({8, 4, 4, 4}, true);
  EXPECT_EQ(w.mem_bytes, 512.0 * 144.0 * 2.0);
  EXPECT_EQ(w.l2_bytes, 0.0);
  const auto ws = knc::checksum_verify_work({8, 4, 4, 4}, false);
  EXPECT_EQ(ws.mem_bytes, 2.0 * w.mem_bytes);
}

}  // namespace
}  // namespace lqcd
