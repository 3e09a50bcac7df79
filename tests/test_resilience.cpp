// Fault-injection and resilient-solve layer: injector determinism,
// breakdown reporting in the Krylov kernels, the precision bridge and its
// fallback, checkpoint/rollback, and the cluster-level fault model.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "lqcd/cluster/cluster_sim.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/resilience/resilient_solve.h"
#include "lqcd/solver/bicgstab.h"
#include "lqcd/solver/richardson.h"

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
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossRuns) {
  FaultInjectorConfig cfg;
  cfg.fault = FaultClass::kSpinorBitFlip;
  cfg.seed = 17;
  cfg.max_events = 3;

  FermionField<double> f1(32), f2(32);
  gaussian(f1, 5);
  copy(f1, f2);

  FaultInjector inj1(cfg), inj2(cfg);
  for (int i = 0; i < 5; ++i) {
    inj1.maybe_corrupt(f1);
    inj2.maybe_corrupt(f2);
  }
  EXPECT_EQ(inj1.stats().events, 3);
  EXPECT_EQ(inj1.stats().opportunities, 5);
  sub(f1, f2, f2);
  EXPECT_EQ(norm(f2), 0.0);  // identical corruption sequence
}

TEST(FaultInjector, HonorsScheduleWindowAndBudget) {
  FaultInjectorConfig cfg;
  cfg.first_opportunity = 2;
  cfg.max_events = 1;
  FaultInjector inj(cfg);
  FermionField<double> f(8);
  gaussian(f, 3);
  EXPECT_FALSE(inj.maybe_corrupt(f));  // opportunity 0: before window
  EXPECT_FALSE(inj.maybe_corrupt(f));  // opportunity 1
  EXPECT_TRUE(inj.maybe_corrupt(f));   // opportunity 2: fires
  EXPECT_FALSE(inj.maybe_corrupt(f));  // budget exhausted
  EXPECT_EQ(inj.stats().events, 1);
  inj.reset();
  EXPECT_EQ(inj.stats().opportunities, 0);
  EXPECT_FALSE(inj.maybe_corrupt(f));
}

/// The three field hooks that share the one corruption routine.
enum class Hook { kField, kReals, kScope };

struct Corruption {
  bool fired = false;
  std::vector<float> before, after;  ///< the field's reals
};

/// Fire one `fault` through `hook` on a small float field.
Corruption corrupt_through(Hook hook, FaultClass fault) {
  FaultInjectorConfig cfg;
  cfg.fault = fault;
  cfg.seed = 9;
  FaultInjector inj(cfg);
  FermionField<float> f(4);
  gaussian(f, 4);
  float* reals = reinterpret_cast<float*>(f.data());
  const std::int64_t n = f.size() * kSpinorReals;
  Corruption c;
  c.before.assign(reals, reals + n);
  switch (hook) {
    case Hook::kField:
      c.fired = inj.maybe_corrupt(f);
      break;
    case Hook::kReals:
      c.fired = inj.maybe_corrupt_reals(reals, n, FaultSite::kGeneric);
      break;
    case Hook::kScope: {
      ParallelFaultScope scope(&inj, FaultSite::kDomainSolve, 1);
      c.fired = scope.maybe_corrupt_reals(0, reals, n);
      break;
    }
  }
  c.after.assign(reals, reals + n);
  return c;
}

/// Indices of the reals a corruption changed.
std::vector<std::size_t> changed_reals(const Corruption& c) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < c.before.size(); ++i)
    if (std::bit_cast<std::uint32_t>(c.before[i]) !=
        std::bit_cast<std::uint32_t>(c.after[i]))
      idx.push_back(i);
  return idx;
}

constexpr Hook kHooks[] = {Hook::kField, Hook::kReals, Hook::kScope};

TEST(FaultInjector, BitFlipChangesExactlyOneComponent) {
  FaultInjectorConfig cfg;
  cfg.fault = FaultClass::kSpinorBitFlip;
  cfg.seed = 9;
  FaultInjector inj(cfg);
  FermionField<double> f(16), orig(16);
  gaussian(f, 4);
  copy(f, orig);
  ASSERT_TRUE(inj.maybe_corrupt(f));
  int changed = 0;
  for (std::int64_t i = 0; i < f.size(); ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        if (f[i].s[sp].c[c].real() != orig[i].s[sp].c[c].real()) ++changed;
        if (f[i].s[sp].c[c].imag() != orig[i].s[sp].c[c].imag()) ++changed;
      }
  EXPECT_EQ(changed, 1);

  // Every hook: one real, one bit.
  for (const Hook hook : kHooks) {
    const Corruption c = corrupt_through(hook, FaultClass::kSpinorBitFlip);
    ASSERT_TRUE(c.fired);
    const auto idx = changed_reals(c);
    ASSERT_EQ(idx.size(), 1u) << static_cast<int>(hook);
    EXPECT_EQ(std::popcount(std::bit_cast<std::uint32_t>(c.before[idx[0]]) ^
                            std::bit_cast<std::uint32_t>(c.after[idx[0]])),
              1);
  }
}

TEST(FaultInjector, Fp16OverflowWritesInfinity) {
  FaultInjectorConfig cfg;
  cfg.fault = FaultClass::kFp16Overflow;
  FaultInjector inj(cfg);
  FermionField<float> f(8);
  gaussian(f, 6);
  ASSERT_TRUE(inj.maybe_corrupt(f));
  EXPECT_FALSE(all_finite(f));

  // Every hook: one real becomes an infinity.
  for (const Hook hook : kHooks) {
    const Corruption c = corrupt_through(hook, FaultClass::kFp16Overflow);
    ASSERT_TRUE(c.fired);
    const auto idx = changed_reals(c);
    ASSERT_EQ(idx.size(), 1u) << static_cast<int>(hook);
    EXPECT_TRUE(std::isinf(c.after[idx[0]]));
  }
  // kZeroField, the other class that writes a fixed value, zeroes every
  // real through every hook.
  for (const Hook hook : kHooks) {
    const Corruption c = corrupt_through(hook, FaultClass::kZeroField);
    ASSERT_TRUE(c.fired);
    EXPECT_EQ(changed_reals(c).size(), c.before.size())
        << static_cast<int>(hook);
    for (const float v : c.after)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0u);
  }
}

TEST(FaultInjector, GaugeBitFlipChangesOneLinkEntry) {
  Geometry geom({4, 4, 4, 4});
  auto gauge = random_gauge_field<double>(geom, 0.3, 11);
  auto orig = gauge;
  FaultInjectorConfig cfg;
  cfg.fault = FaultClass::kGaugeBitFlip;
  cfg.seed = 13;
  FaultInjector inj(cfg);
  ASSERT_TRUE(inj.maybe_corrupt(gauge));
  int changed = 0;
  for (std::int32_t s = 0; s < geom.volume(); ++s)
    for (int mu = 0; mu < kNumDims; ++mu)
      for (int i = 0; i < kNumColors; ++i)
        for (int j = 0; j < kNumColors; ++j) {
          const auto a = gauge.link(s, mu).m[i][j];
          const auto b = orig.link(s, mu).m[i][j];
          if (a.real() != b.real()) ++changed;
          if (a.imag() != b.imag()) ++changed;
        }
  EXPECT_EQ(changed, 1);
}

// ---------------------------------------------------------------------------
// Breakdown detection in the Krylov kernels
// ---------------------------------------------------------------------------

/// Operator that always produces NaN — the fully poisoned matvec.
template <class T>
class NanOperator final : public LinearOperator<T> {
 public:
  explicit NanOperator(std::int64_t n) : n_(n) {}
  void apply(const FermionField<T>&, FermionField<T>& out) const override {
    for (std::int64_t i = 0; i < out.size(); ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          out[i].s[sp].c[c] =
              Complex<T>(std::numeric_limits<T>::quiet_NaN(), 0);
  }
  std::int64_t vector_size() const override { return n_; }

 private:
  std::int64_t n_;
};

TEST(BiCGstab, ReportsRhoBreakdownOnAdversarialRhs) {
  // Eigenvalues alternate +-1 and every component of b is identical, so
  // at the very first iteration <r0, A p> = sum_i lambda_i |b_i|^2 = 0
  // exactly: the classic rho-breakdown. The seed code fell through a
  // silent `break` and reported max-iteration-like failure; it must now
  // be a structured kRhoBreakdown.
  const std::int64_t n = 16;
  std::vector<Complex<double>> d(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = Complex<double>(i % 2 == 0 ? 1 : -1, 0);
  DiagonalOperator<double> op(d);
  FermionField<double> b(n), x(n);
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        b[i].s[sp].c[c] = Complex<double>(1.0, 0.0);
  BiCGstabParams p;
  p.tolerance = 1e-10;
  const auto stats = bicgstab_solve(op, b, x, p);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.breakdown, Breakdown::kRhoBreakdown);
  // And it must not have burned the whole iteration budget discovering it.
  EXPECT_LT(stats.iterations, 3);
}

TEST(BiCGstab, ReportsNanInsteadOfLooping) {
  NanOperator<double> op(16);
  FermionField<double> b(16), x(16);
  gaussian(b, 7);
  BiCGstabParams p;
  const auto stats = bicgstab_solve(op, b, x, p);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.breakdown, Breakdown::kNanDetected);
  EXPECT_GE(stats.nonfinite_events, 1);
}

template <class T>
class ConstantPreconditioner final : public Preconditioner<T> {
 public:
  explicit ConstantPreconditioner(T value) : value_(value) {}
  void apply(const FermionField<T>&, FermionField<T>& out) override {
    for (std::int64_t i = 0; i < out.size(); ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          out[i].s[sp].c[c] = Complex<T>(value_, 0);
  }

 private:
  T value_;
};

TEST(FGMRESDR, NanRhsDetectedBeforeAnyWork) {
  const std::int64_t n = 16;
  std::vector<Complex<double>> d(static_cast<std::size_t>(n),
                                 Complex<double>(1, 0));
  DiagonalOperator<double> op(d);
  FermionField<double> b(n), x(n);
  gaussian(b, 12);
  b[0].s[0].c[0] =
      Complex<double>(std::numeric_limits<double>::quiet_NaN(), 0);
  FGMRESDRParams p;
  const auto stats = fgmres_dr_solve<double>(op, nullptr, b, x, p);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.breakdown, Breakdown::kNanDetected);
  EXPECT_EQ(stats.iterations, 0);
}

TEST(FGMRESDR, UnusablePreconditionerEndsWithTypedBreakdown) {
  // A preconditioner that never returns a usable direction — every output
  // NaN, or every output zero — must end the solve after
  // kMaxStagnantCycles degenerate cycles instead of restarting until
  // max_iterations.
  const std::int64_t n = 16;
  DiagonalOperator<double> op(std::vector<Complex<double>>(
      static_cast<std::size_t>(n), Complex<double>(2, 0)));
  FermionField<double> b(n);
  gaussian(b, 19);
  const FGMRESDRParams p;
  const struct {
    double value;
    Breakdown breakdown;
  } cases[] = {{std::numeric_limits<double>::quiet_NaN(),
                Breakdown::kNanDetected},
               {0.0, Breakdown::kStagnation}};
  for (const auto& c : cases) {
    ConstantPreconditioner<double> m(c.value);
    FermionField<double> x(n);
    const auto stats = fgmres_dr_solve<double>(op, &m, b, x, p);
    EXPECT_FALSE(stats.converged);
    EXPECT_EQ(stats.breakdown, c.breakdown) << to_string(stats.breakdown);
    EXPECT_LE(stats.precond_applications, kMaxStagnantCycles + 1);
  }
}

TEST(FGMRESDR, RepeatedDirectionForcesStagnationRestart) {
  // A preconditioner that returns the same direction every time confines
  // x to one line. With one Arnoldi step per cycle the first cycle
  // minimizes the residual along it, later cycles cannot reduce it, and
  // kMaxStagnantCycles stagnant cycles in a row force a plain restart
  // with residual replacement.
  const std::int64_t n = 16;
  std::vector<Complex<double>> d(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = Complex<double>(1.0 + 0.25 * i, 0);
  DiagonalOperator<double> op(d);
  FermionField<double> b(n), x(n);
  gaussian(b, 23);
  FGMRESDRParams p;
  p.basis_size = 1;
  p.max_iterations = 40;
  ConstantPreconditioner<double> m(1.0);
  const auto stats = fgmres_dr_solve<double>(op, &m, b, x, p);
  EXPECT_FALSE(stats.converged);
  EXPECT_GT(stats.stagnation_restarts, 0);
  EXPECT_EQ(stats.breakdown, Breakdown::kMaxIterations);
}

TEST(Richardson, SkipsPoisonedInnerCorrection) {
  // First inner solve hands back NaN (a broken-down inner solver); the
  // outer defect-correction loop must skip that update and still converge
  // on the retries.
  const std::int64_t n = 32;
  std::vector<Complex<double>> dd(static_cast<std::size_t>(n));
  std::vector<Complex<float>> df(static_cast<std::size_t>(n));
  Rng rng(13);
  for (std::int64_t i = 0; i < n; ++i) {
    const double ev = 1.0 + 3.0 * rng.uniform();
    dd[static_cast<std::size_t>(i)] = Complex<double>(ev, 0);
    df[static_cast<std::size_t>(i)] =
        Complex<float>(static_cast<float>(ev), 0);
  }
  DiagonalOperator<double> op_d(dd);
  DiagonalOperator<float> op_f(df);
  FermionField<double> b(n), x(n);
  gaussian(b, 14);

  int calls = 0;
  InnerSolver<float> inner = [&](const FermionField<float>& rhs,
                                 FermionField<float>& corr) {
    if (calls++ == 0) {
      for (std::int64_t i = 0; i < corr.size(); ++i)
        corr[i].s[0].c[0] =
            Complex<float>(std::numeric_limits<float>::quiet_NaN(), 0);
      SolverStats s;
      s.breakdown = Breakdown::kNanDetected;
      return s;
    }
    BiCGstabParams pi;
    pi.tolerance = 0.1;
    return bicgstab_solve(op_f, rhs, corr, pi);
  };
  RichardsonParams pr;
  pr.tolerance = 1e-10;
  const auto stats = richardson_solve<double, float>(op_d, b, x, inner, pr);
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(calls, 2);
  EXPECT_LT(true_residual(op_d, b, x), 1e-9);
}

// ---------------------------------------------------------------------------
// CheckpointMonitor and the precision bridge, in isolation
// ---------------------------------------------------------------------------

TEST(CheckpointMonitor, ChecksPointsOnImprovementRollsBackOnDivergence) {
  CheckpointMonitor<double> mon;
  FermionField<double> x(8), snapshot(8);
  gaussian(x, 15);
  copy(x, snapshot);

  // Healthy cycles: true tracks the estimate, residual improving.
  EXPECT_FALSE(mon.on_cycle(1, 1e-2, 1.1e-2, x));
  EXPECT_FALSE(mon.on_cycle(2, 1e-3, 1.1e-3, x));
  EXPECT_EQ(mon.stats().checkpoints, 2);
  EXPECT_EQ(mon.stats().rollbacks, 0);
  copy(x, snapshot);  // state at the best checkpoint

  // Corrupt the iterate, then report the divergence a real solver would
  // see: the recursion still claims 1e-4 while the truth exploded.
  gaussian(x, 99);
  EXPECT_TRUE(mon.on_cycle(3, 1e-4, 5.0, x));
  EXPECT_EQ(mon.stats().rollbacks, 1);
  sub(x, snapshot, snapshot);
  EXPECT_EQ(norm(snapshot), 0.0);  // x restored exactly
}

TEST(CheckpointMonitor, NonFiniteTrueResidualTriggersRollback) {
  CheckpointMonitor<double> mon;
  FermionField<double> x(8);
  gaussian(x, 16);
  EXPECT_FALSE(mon.on_cycle(1, 1e-2, 1e-2, x));
  EXPECT_TRUE(mon.on_cycle(
      2, 1e-3, std::numeric_limits<double>::quiet_NaN(), x));
  EXPECT_TRUE(all_finite(x));
}

TEST(PrecisionBridge, FallsBackWhenPrimaryOutputNonFinite) {
  const std::int64_t n = 8;
  ConstantPreconditioner<float> primary(
      std::numeric_limits<float>::infinity());
  ConstantPreconditioner<float> fallback(2.0f);
  int fallbacks = 0;
  PrecisionBridge bridge(primary, n, /*resilient=*/true, &fallback,
                         [&] { ++fallbacks; });
  FermionField<double> in(n), out(n);
  gaussian(in, 17);
  bridge.apply(in, out);
  EXPECT_EQ(fallbacks, 1);
  EXPECT_TRUE(all_finite(out));
  EXPECT_DOUBLE_EQ(out[0].s[0].c[0].real(), 2.0);
}

TEST(PrecisionBridge, ZeroesCorrectionWithoutFallback) {
  // A poisoned output is zeroed when there is no fallback, and when the
  // fallback's output is poisoned too.
  const std::int64_t n = 8;
  ConstantPreconditioner<float> primary(
      std::numeric_limits<float>::quiet_NaN());
  ConstantPreconditioner<float> poisoned(
      std::numeric_limits<float>::infinity());
  for (Preconditioner<float>* fallback :
       {static_cast<Preconditioner<float>*>(nullptr),
        static_cast<Preconditioner<float>*>(&poisoned)}) {
    PrecisionBridge bridge(primary, n, /*resilient=*/true, fallback);
    FermionField<double> in(n), out(n);
    gaussian(in, 18);
    bridge.apply(in, out);
    EXPECT_TRUE(all_finite(out));
    EXPECT_EQ(norm(out), 0.0);
  }
}

TEST(PrecisionBridge, ApplyIsBatchOfOneAndPlainBridgePassesNonFinite) {
  // apply() equals apply_batch() of one bit for bit, on the primary
  // DDSolver passes: a half-precision Schwarz preconditioner.
  const Geometry geom({4, 4, 4, 8});
  const Checkerboard cb(geom);
  auto gauge_d = random_gauge_field<double>(geom, 0.7, 251);
  gauge_d.make_time_antiperiodic();
  const auto gauge = convert<float>(gauge_d);
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.1f, 1.0f);
  op.prepare_schur();
  const DomainPartition part(geom, {2, 2, 2, 4});
  SchwarzPreconditioner<Half> schwarz(part, op, SchwarzParams{});
  PrecisionBridge plain(schwarz, geom.volume(), /*resilient=*/false);
  FermionField<double> in(geom.volume()), one(geom.volume()),
      batch(geom.volume());
  gaussian(in, 252);
  plain.apply(in, one);
  plain.apply_batch({&in}, {&batch});
  ASSERT_TRUE(all_finite(one));
  EXPECT_EQ(std::memcmp(one.data(), batch.data(),
                        static_cast<std::size_t>(one.size()) *
                            sizeof(Spinor<double>)),
            0);

  // A plain bridge does not scan: a non-finite output passes through
  // unchanged, and neither the fallback nor its notification runs.
  const std::int64_t n = 8;
  ConstantPreconditioner<float> primary(
      std::numeric_limits<float>::infinity());
  ConstantPreconditioner<float> fallback(2.0f);
  int fallbacks = 0;
  PrecisionBridge unscanned(primary, n, /*resilient=*/false, &fallback,
                            [&] { ++fallbacks; });
  FermionField<double> in8(n), out8(n);
  gaussian(in8, 253);
  unscanned.apply(in8, out8);
  EXPECT_EQ(fallbacks, 0);
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        EXPECT_EQ(out8[i].s[sp].c[c].real(),
                  std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// DDSolver end-to-end resilience
// ---------------------------------------------------------------------------

struct Problem {
  Geometry geom;
  GaugeField<double> gauge;
  FermionField<double> b;

  Problem(const Coord& dims, double disorder, std::uint64_t seed)
      : geom(dims),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        b(geom.volume()) {
    gaussian(b, seed + 1);
  }
};

/// A weak preconditioner setting that needs several outer FGMRES cycles —
/// the regime where checkpoints, rollbacks and restarts actually engage.
DDSolverConfig multi_cycle_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 2;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-10;
  return cfg;
}

TEST(DDSolverResilience, RecoversFromInjectedSdcBitFlip) {
  // Flip a high exponent bit of the outer iterate between cycles: the
  // recursion keeps reporting convergence while the true residual blows
  // up. The monitor must detect the divergence, roll back, and the solve
  // must still reach the double-precision target.
  Problem prob({8, 8, 8, 8}, 0.7, 211);
  DDSolverConfig cfg = multi_cycle_config();
  cfg.max_iterations = 4000;

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.seed = 23;
  fic.bit = 62;  // exponent MSB: a catastrophic, silently absorbed upset
  // Fire at the first cycle boundary: the monitor checkpoints the healthy
  // iterate before the injection lands, and the next cycle's
  // true-vs-recursive divergence exposes it. (Corruption after the FINAL
  // residual check is outside any solver's detection window.)
  fic.first_opportunity = 0;
  fic.max_events = 1;
  FaultInjector injector(fic);

  cfg.resilience.enabled = true;
  cfg.resilience.iterate_injector = &injector;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  FermionField<double> x(prob.geom.volume());
  const auto stats = solver.solve(prob.b, x);

  EXPECT_EQ(injector.stats().events, 1);
  ASSERT_NE(solver.checkpoint_stats(), nullptr);
  EXPECT_GE(solver.checkpoint_stats()->rollbacks, 1);
  EXPECT_GE(stats.rollback_restarts, 1);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(solver.op(), prob.b, x), 2e-10);
}

TEST(DDSolverResilience, RecoversFromFp16OverflowViaPrecisionFallback) {
  // Inject an fp16-saturation infinity into the Schwarz sweep residual:
  // the half-precision preconditioner output goes non-finite, the bridge
  // retries on the single-precision matrices, and the outer solve
  // proceeds to the target.
  Problem prob({8, 8, 8, 8}, 0.7, 221);
  DDSolverConfig cfg = multi_cycle_config();
  cfg.half_precision_matrices = true;
  cfg.max_iterations = 4000;

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kFp16Overflow;
  fic.seed = 29;
  fic.first_opportunity = 2;
  fic.max_events = 2;
  FaultInjector injector(fic);

  cfg.resilience.enabled = true;
  cfg.resilience.schwarz_injector = &injector;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  FermionField<double> x(prob.geom.volume());
  const auto stats = solver.solve(prob.b, x);

  EXPECT_EQ(injector.stats().events, 2);
  EXPECT_EQ(solver.schwarz_stats().injected_faults, 2);
  EXPECT_GE(solver.schwarz_stats().precision_fallbacks, 1);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(solver.op(), prob.b, x), 2e-10);
}

TEST(DDSolverResilience, Fp16OverflowEndsTypedOrFallsBack) {
  // Mass 7e4 puts the clover diagonal past the fp16 range (65504), so
  // every half-precision Schwarz output is non-finite. Without resilience
  // the solve must end at once with kNanDetected, not restart until
  // max_iterations; with resilience the precision fallback converges.
  Problem prob({8, 8, 8, 8}, 0.7, 241);
  DDSolverConfig resilient;
  resilient.resilience.enabled = true;
  const auto setup = std::make_shared<DDSolverSetup>(prob.geom, prob.gauge,
                                                     7e4, 1.0, resilient);
  const int few = kMaxStagnantCycles + 1;

  DDSolver plain(setup, DDSolverConfig{});
  FermionField<double> x(prob.geom.volume());
  const auto st_plain = plain.solve(prob.b, x);
  EXPECT_FALSE(st_plain.converged);
  EXPECT_EQ(st_plain.breakdown, Breakdown::kNanDetected);
  EXPECT_LE(st_plain.precond_applications, few);

  DDSolver hardened(setup, resilient);
  x.zero();
  const auto st_hard = hardened.solve(prob.b, x);
  EXPECT_TRUE(st_hard.converged);
  EXPECT_GE(hardened.schwarz_stats().precision_fallbacks, 1);
  EXPECT_LT(true_residual(hardened.op(), prob.b, x), 2e-10);
}

TEST(DDSolverResilience, RecoversFromDegenerateZeroCorrection) {
  // Zero the whole sweep residual: the preconditioner returns a zero
  // correction, a degenerate Krylov direction the outer solver must
  // discard (restart) rather than poison its least-squares with.
  Problem prob({8, 8, 8, 8}, 0.7, 231);
  DDSolverConfig cfg = multi_cycle_config();
  cfg.half_precision_matrices = false;
  cfg.max_iterations = 4000;

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kZeroField;
  fic.seed = 31;
  fic.first_opportunity = 1;
  fic.max_events = 1;
  FaultInjector injector(fic);

  cfg.resilience.enabled = true;
  cfg.resilience.schwarz_injector = &injector;
  DDSolver solver(prob.geom, prob.gauge, 0.1, 1.0, cfg);
  FermionField<double> x(prob.geom.volume());
  const auto stats = solver.solve(prob.b, x);

  EXPECT_EQ(injector.stats().events, 1);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(true_residual(solver.op(), prob.b, x), 2e-10);
}

// ---------------------------------------------------------------------------
// Cluster-level fault model
// ---------------------------------------------------------------------------

cluster::DDSolveSpec cluster_dd_spec() {
  cluster::DDSolveSpec spec;
  spec.lattice = {32, 32, 32, 32};
  spec.block = {8, 4, 4, 4};
  spec.outer_iterations = 40;
  return spec;
}

TEST(ClusterFaults, DefaultSpecIsFaultFree) {
  cluster::ClusterSimParams params;
  cluster::ClusterSim sim(params);
  const auto part = cluster::NodePartition::uniform({32, 32, 32, 32},
                                                    {2, 2, 2, 2});
  const auto res = sim.simulate_dd(cluster_dd_spec(), part);
  EXPECT_EQ(res.fault_overhead_seconds, 0.0);
  EXPECT_EQ(res.expected_failures, 0.0);
}

TEST(ClusterFaults, StragglerStretchesBulkSynchronousSolve) {
  const auto part = cluster::NodePartition::uniform({32, 32, 32, 32},
                                                    {2, 2, 2, 2});
  cluster::ClusterSimParams params;
  cluster::ClusterSim healthy(params);
  params.faults.straggler_nodes = 1;
  params.faults.straggler_slowdown = 1.5;
  cluster::ClusterSim degraded(params);

  const auto spec = cluster_dd_spec();
  const auto r0 = healthy.simulate_dd(spec, part);
  const auto r1 = degraded.simulate_dd(spec, part);
  EXPECT_GT(r1.fault_overhead_seconds, 0.0);
  // One slow node gates every barrier: the whole solve stretches by the
  // slowdown factor.
  EXPECT_NEAR(r1.total_seconds / r0.total_seconds, 1.5, 1e-9);
  // Achieved rate drops accordingly.
  EXPECT_LT(r1.tflops_total, r0.tflops_total);
}

TEST(ClusterFaults, PacketLossRaisesMessageCost) {
  cluster::NetworkSpec net;
  const double clean = cluster::message_seconds(net, 64.0 * 1024);
  net.packet_loss_probability = 0.1;
  const double lossy = cluster::message_seconds(net, 64.0 * 1024);
  // E[attempts] = 1/(1-p) plus backoff for the expected retransmits.
  const double expected = clean / 0.9 +
                          (1.0 / 0.9 - 1.0) * net.retransmit_backoff_us * 1e-6;
  EXPECT_NEAR(lossy, expected, 1e-12);
  EXPECT_GT(lossy, clean);
}

TEST(ClusterFaults, PacketLossSlowsCommBoundSolves) {
  const auto part = cluster::NodePartition::uniform({32, 32, 32, 32},
                                                    {2, 2, 2, 2});
  cluster::ClusterSimParams params;
  cluster::ClusterSim healthy(params);
  params.network.packet_loss_probability = 0.2;
  cluster::ClusterSim lossy(params);
  const auto spec = cluster_dd_spec();
  EXPECT_GT(lossy.simulate_dd(spec, part).total_seconds,
            healthy.simulate_dd(spec, part).total_seconds);
}

TEST(ClusterFaults, NodeFailuresAddRecoveryAndReworkCost) {
  const auto part = cluster::NodePartition::uniform({32, 32, 32, 32},
                                                    {4, 4, 4, 4});
  cluster::ClusterSimParams params;
  params.faults.node_mtbf_hours = 0.5;  // aggressively failure-prone
  params.faults.recovery_seconds = 60.0;
  params.faults.checkpoint_interval_seconds = 120.0;
  cluster::ClusterSim sim(params);
  auto spec = cluster_dd_spec();
  spec.outer_iterations = 4000;  // long enough run to see failures
  const auto res = sim.simulate_dd(spec, part);
  EXPECT_GT(res.expected_failures, 0.0);
  EXPECT_GT(res.fault_overhead_seconds, 0.0);

  // Checkpointing more often than never must reduce the penalty.
  params.faults.checkpoint_interval_seconds = 0.0;  // no checkpoints
  cluster::ClusterSim no_ckpt(params);
  EXPECT_GT(no_ckpt.simulate_dd(spec, part).fault_overhead_seconds,
            res.fault_overhead_seconds);
}

TEST(ClusterFaults, NonDDSolverAlsoPaysFaultOverhead) {
  const auto part = cluster::NodePartition::uniform({32, 32, 32, 32},
                                                    {2, 2, 2, 2});
  cluster::ClusterSimParams params;
  params.faults.straggler_nodes = 1;
  params.faults.straggler_slowdown = 2.0;
  cluster::ClusterSim sim(params);
  cluster::NonDDSolveSpec spec;
  spec.lattice = {32, 32, 32, 32};
  spec.iterations = 500;
  const auto res = sim.simulate_nondd(spec, part);
  EXPECT_GT(res.fault_overhead_seconds, 0.0);
  EXPECT_NEAR(res.fault_overhead_seconds,
              res.total_seconds - res.fault_overhead_seconds, 1e-9);
}

}  // namespace
}  // namespace lqcd
