#include "lqcd/core/dd_solver.h"

#include <algorithm>
#include <cmath>

#include "lqcd/base/checksum.h"

namespace lqcd {

namespace {

/// Fletcher-32 over a recycled deflation subspace (basis vectors, the
/// preconditioned images, and the projected Hessenberg): the
/// check_deflation scope of the ABFT layer.
std::uint32_t deflation_checksum(const DeflationSpace<double>& s) {
  Fletcher32 f;
  for (const auto& v : s.v) f.update(v.data(), v.size() * sizeof(Spinor<double>));
  for (const auto& z : s.z) f.update(z.data(), z.size() * sizeof(Spinor<double>));
  for (int r = 0; r < s.h.rows(); ++r)
    for (int c = 0; c < s.h.cols(); ++c) {
      const densela::Cplx e = s.h(r, c);
      f.update(&e, sizeof(e));
    }
  return f.value();
}

/// All-lane structured failure for an unrepairable data-corruption ladder.
SolverStats data_corruption_stats() {
  SolverStats st;
  st.converged = false;
  st.breakdown = Breakdown::kDataCorruption;
  return st;
}

/// Structured refusal when the gauge field was mutated under the solver:
/// no arithmetic ran, nothing was written to x.
SolverStats stale_setup_stats() {
  SolverStats st;
  st.converged = false;
  st.breakdown = Breakdown::kStaleSetup;
  return st;
}

/// Cost of one ABFT checksum sweep, in units of one preconditioner
/// application: the C of the Young/Daly verify-interval tuner
/// (AbftConfig::verify_interval = 0). A sweep streams the packed matrices
/// once (~1/20 of an application's memory traffic).
constexpr double kAbftVerifyCostApplications = 0.05;

}  // namespace

DDSolverSetup::DDSolverSetup(const Geometry& geom,
                             const GaugeField<double>& gauge, double mass,
                             double csw, const DDSolverConfig& config)
    : geom_(&geom), master_(&gauge), mass_(mass), csw_(csw), cb_(geom) {
  LQCD_CHECK(&gauge.geometry() == &geom);
  op_d_ = std::make_unique<WilsonCloverOperator<double>>(geom, cb_, gauge,
                                                         mass, csw);
  gauge_f_ = std::make_unique<GaugeField<float>>(convert<float>(gauge));
  op_f_ = std::make_unique<WilsonCloverOperator<float>>(
      geom, cb_, *gauge_f_, static_cast<float>(mass),
      static_cast<float>(csw));
  op_f_->prepare_schur();
  part_ = std::make_unique<DomainPartition>(geom, config.block);
  // Pack exactly the precisions this config's solve path can touch: half
  // as the primary when half_precision_matrices, single as the primary
  // otherwise — plus single as the fp16-overflow retry target of a
  // resilient solve on half matrices.
  if (config.half_precision_matrices) {
    schwarz_half_ = std::make_shared<SchwarzSetup<Half>>(*part_, *op_f_);
    if (config.resilience.enabled)
      schwarz_single_ = std::make_shared<SchwarzSetup<float>>(*part_, *op_f_);
  } else {
    schwarz_single_ = std::make_shared<SchwarzSetup<float>>(*part_, *op_f_);
  }
  gauge_checksum_ = gauge.content_checksum();
}

bool DDSolverSetup::repair_from_master() {
  if (master_->content_checksum() != gauge_checksum_) return false;
  // Rebuild the float source from the verified double master, the
  // derived clover term from it, then re-pack every store.
  *gauge_f_ = convert<float>(*master_);
  op_f_->rebuild_clover();
  if (schwarz_half_) schwarz_half_->repack_all();
  if (schwarz_single_) schwarz_single_->repack_all();
  return true;
}

DDSolverSetup::DDSolverSetup(std::unique_ptr<const Geometry> geom,
                             std::unique_ptr<const GaugeField<double>> gauge,
                             double mass, double csw,
                             const DDSolverConfig& config)
    : DDSolverSetup(*geom, *gauge, mass, csw, config) {
  owned_geom_ = std::move(geom);
  owned_master_ = std::move(gauge);
}

std::shared_ptr<DDSolverSetup> DDSolverSetup::make_owning(
    const Geometry& geom, const GaugeField<double>& gauge, double mass,
    double csw, const DDSolverConfig& config) {
  auto g = std::make_unique<const Geometry>(geom);
  // Rebase the link copy onto the owned geometry so nothing in the setup
  // can dangle on caller storage.
  auto u = std::make_unique<const GaugeField<double>>(*g, gauge);
  return std::make_shared<DDSolverSetup>(std::move(g), std::move(u), mass, csw,
                                         config);
}

DDSolver::DDSolver(const Geometry& geom, const GaugeField<double>& gauge,
                   double mass, double csw, const DDSolverConfig& config)
    : DDSolver(std::make_shared<DDSolverSetup>(geom, gauge, mass, csw, config),
               config) {}

DDSolver::DDSolver(std::shared_ptr<DDSolverSetup> setup,
                   const DDSolverConfig& config)
    : config_(config), setup_(std::move(setup)) {
  LQCD_CHECK(setup_ != nullptr);
  SchwarzParams sp;
  sp.schwarz_iterations = config.schwarz_iterations;
  sp.block_mr_iterations = config.block_mr_iterations;
  sp.additive = config.additive_schwarz;
  sp.half_precision_spinors = config.half_precision_spinors;
  const ResilienceConfig& rc = config.resilience;
  if (rc.enabled) {
    sp.fault_injector = rc.schwarz_injector;
    sp.packed_fault_injector = rc.packed_injector;
  }
  Preconditioner<float>* inner = nullptr;
  if (config.half_precision_matrices) {
    LQCD_CHECK_MSG(setup_->schwarz_half() != nullptr,
                   "setup was built without half-precision matrices");
    schwarz_half_ = std::make_unique<SchwarzPreconditioner<Half>>(
        setup_->schwarz_half(), sp);
    inner = schwarz_half_.get();
    if (rc.enabled) {
      LQCD_CHECK_MSG(setup_->schwarz_single() != nullptr,
                     "setup was built without the single-precision fallback");
      // Single-precision fallback matrices, fault-free: the retry target
      // when a half-precision sweep output goes non-finite.
      SchwarzParams sp_clean = sp;
      sp_clean.fault_injector = nullptr;
      sp_clean.packed_fault_injector = nullptr;
      schwarz_single_ = std::make_unique<SchwarzPreconditioner<float>>(
          setup_->schwarz_single(), sp_clean);
    }
  } else {
    LQCD_CHECK_MSG(setup_->schwarz_single() != nullptr,
                   "setup was built without single-precision matrices");
    schwarz_single_ = std::make_unique<SchwarzPreconditioner<float>>(
        setup_->schwarz_single(), sp);
    inner = schwarz_single_.get();
  }
  // With half-precision primary matrices, schwarz_single_ exists only as
  // the armed precision fallback.
  bridge_ = std::make_unique<PrecisionBridge>(
      *inner, setup_->geometry().volume(), rc.enabled,
      schwarz_half_ ? schwarz_single_.get() : nullptr,
      [this] {
        if (schwarz_half_) schwarz_half_->note_precision_fallback();
      });
  if (rc.enabled) {
    checkpoint_stats_.emplace();
    if (rc.abft.enabled) {
      AbftConfig ac = rc.abft;
      if (ac.verify_interval == 0) {
        // Young/Daly in application units: verify cost C against a packed
        // -upset MTBF of 1/p applications. Falls back to the default
        // period when no fault rate was supplied.
        ac.verify_interval =
            ac.fault_probability_per_application > 0.0
                ? std::max<int>(
                      1, static_cast<int>(std::llround(
                             daly_checkpoint_interval(
                                 kAbftVerifyCostApplications,
                                 1.0 / ac.fault_probability_per_application))))
                : AbftConfig{}.verify_interval;
      }
      abft_guard_ = std::make_unique<AbftGuard>(ac);
      if (schwarz_half_) abft_guard_->add_store(schwarz_half_->setup().get());
      if (schwarz_single_)
        abft_guard_->add_store(schwarz_single_->setup().get());
      abft_guard_->set_source_repair(
          [this]() -> bool { return setup_->repair_from_master(); });
      bridge_->set_abft_guard(abft_guard_.get());
    }
  }
}

bool DDSolver::setup_is_stale() const {
  return setup_->master().content_checksum() != setup_->gauge_checksum();
}

SolverStats DDSolver::solve(const FermionField<double>& b,
                            FermionField<double>& x) {
  const FermionField<double>* pb = &b;
  FermionField<double>* px = &x;
  SolverStats st;
  solve_lanes({&pb, 1}, {&px, 1}, BatchSolveOptions{}, {&st, 1});
  return st;
}

std::vector<SolverStats> DDSolver::solve_batch(
    const std::vector<FermionField<double>>& b,
    std::vector<FermionField<double>>& x) {
  return solve_batch(b, x, BatchSolveOptions{});
}

std::vector<SolverStats> DDSolver::solve_batch(
    const std::vector<FermionField<double>>& b,
    std::vector<FermionField<double>>& x, const BatchSolveOptions& options) {
  LQCD_CHECK_MSG(b.size() == x.size(), "solve_batch needs |b| == |x|");
  std::vector<const FermionField<double>*> pb;
  std::vector<FermionField<double>*> px;
  for (std::size_t i = 0; i < b.size(); ++i) {
    pb.push_back(&b[i]);
    px.push_back(&x[i]);
  }
  std::vector<SolverStats> out(b.size());
  solve_lanes(pb, px, options, out);
  return out;
}

void DDSolver::solve_lanes(std::span<const FermionField<double>* const> b,
                           std::span<FermionField<double>* const> x,
                           const BatchSolveOptions& options,
                           std::span<SolverStats> out) {
  LQCD_CHECK_MSG(
      options.tolerances.empty() || options.tolerances.size() == b.size(),
      "solve_batch options need one tolerance per RHS (or none)");
  const int nrhs = static_cast<int>(b.size());
  if (nrhs == 0) return;
  if (setup_is_stale()) {
    for (auto& st : out) st = stale_setup_stats();
    return;
  }

  // Per-lane outer parameters: each RHS converges at its OWN tolerance —
  // the engines are per-lane, so a tight lane keeps iterating (and a
  // converged loose lane stops consuming preconditioner work) no matter
  // what the rest of the batch targets.
  const auto lane_params = [&](std::size_t i) {
    FGMRESDRParams p;
    p.basis_size = config_.basis_size;
    p.deflation_size = config_.deflation_size;
    p.max_iterations = config_.max_iterations;
    p.tolerance = options.tolerances.empty() ? config_.tolerance
                                             : options.tolerances[i];
    return p;
  };

  // Resolve the deflation-recycle space. A caller-provided persistent
  // cache is keyed by the configuration checksum: presenting a subspace
  // harvested on a different gauge configuration discards it instead of
  // poisoning this solve with meaningless deflation directions. One RHS
  // without a cache gets none: no later lane would read its harvest.
  DeflationSpace<double> local_recycle;
  DeflationSpace<double>* rec = nullptr;
  RecycleCache* cache = options.recycle;
  if (config_.deflation_size > 0) {
    if (cache != nullptr) {
      if (cache->gauge_key != setup_->gauge_checksum()) {
        cache->clear();
        cache->gauge_key = setup_->gauge_checksum();
      }
      rec = &cache->space;
    } else if (nrhs > 1) {
      rec = &local_recycle;
    }
  }

  // Runs RHS [first, last) in lockstep: every preconditioner application
  // is one batched Schwarz sweep over the lanes still iterating. Each lane
  // has its own CheckpointMonitor (the checkpoint is per-iterate state),
  // whose counters are added to checkpoint_stats() when the lane finishes.
  const ResilienceConfig& rc = config_.resilience;
  const auto lockstep = [&](int first, int last) {
    const auto nlanes = static_cast<std::size_t>(last - first);
    std::vector<std::unique_ptr<CheckpointMonitor<double>>> monitors(nlanes);
    std::vector<std::unique_ptr<FgmresDrEngine<double>>> lanes(nlanes);
    for (std::size_t i = 0; i < nlanes; ++i) {
      const auto r = static_cast<std::size_t>(first) + i;
      if (checkpoint_stats_) {
        monitors[i] =
            std::make_unique<CheckpointMonitor<double>>(rc.iterate_injector);
        if (abft_guard_) monitors[i]->set_abft_guard(abft_guard_.get());
      }
      lanes[i] = std::make_unique<FgmresDrEngine<double>>(
          setup_->op_d(), *b[r], *x[r], lane_params(r), monitors[i].get(),
          rec);
    }
    std::vector<const FermionField<double>*> pin;
    std::vector<FermionField<double>*> pout;
    for (;;) {
      pin.clear();
      pout.clear();
      for (const auto& e : lanes)
        if (!e->done()) {
          pin.push_back(&e->precond_input());
          pout.push_back(&e->precond_output());
        }
      if (pin.empty()) break;
      bridge_->apply_batch(pin, pout);
      for (const auto& e : lanes)
        if (!e->done()) {
          e->note_precond_application();
          e->advance();
        }
    }
    for (std::size_t i = 0; i < nlanes; ++i) {
      out[static_cast<std::size_t>(first) + i] = lanes[i]->finish();
      if (monitors[i]) *checkpoint_stats_ += monitors[i]->stats();
    }
  };

  try {
    if (abft_guard_) abft_guard_->begin_solve();

    // Cross-batch check_deflation scope: a persistent subspace is
    // re-verified against the checksum stamped when the previous batch
    // harvested it. A mismatch discards the subspace (recycled deflation
    // is an optimization — dropping it costs iterations, never
    // correctness).
    if (cache != nullptr && cache->abft_stamped && rec != nullptr &&
        rec->valid() && abft_guard_ && abft_guard_->config().check_deflation) {
      const bool intact = deflation_checksum(*rec) == cache->abft_sum;
      abft_guard_->note_deflation_verification(intact);
      if (!intact) rec->clear();
    }

    // Without a valid subspace RHS 0 runs alone, a lockstep of one lane:
    // its solve seeds the recycled deflation subspace the rest of the
    // batch projects against. With a valid subspace from a previous batch
    // on this configuration, EVERY lane runs in lockstep from the first
    // preconditioner application (the persistent-service fast path).
    const int seed_lanes = rec == nullptr || !rec->valid() ? 1 : 0;
    lockstep(0, seed_lanes);
    lockstep(seed_lanes, nrhs);
    // Stamp the persistent cache against whatever the last finisher
    // harvested, so the NEXT batch's entry verification has a reference.
    if (cache != nullptr && rec != nullptr && rec->valid() && abft_guard_ &&
        abft_guard_->config().check_deflation) {
      cache->abft_sum = deflation_checksum(*rec);
      cache->abft_stamped = true;
    }
    // Closing sweep: corruption after the last periodic sweep must not
    // survive into the next solve (or go unreported) — every upset is
    // repaired or escalates before this call returns.
    if (abft_guard_) abft_guard_->sweep();
  } catch (const AbftError&) {
    // Unrepairable ladder mid-batch: no lane's iterate is trustworthy.
    for (auto& st : out) st = data_corruption_stats();
  }
}

SchwarzStats DDSolver::schwarz_stats() const {
  SchwarzStats s;
  if (schwarz_half_) s += schwarz_half_->stats();
  if (schwarz_single_) s += schwarz_single_->stats();
  return s;
}

void DDSolver::reset_stats() {
  if (schwarz_half_) schwarz_half_->reset_stats();
  if (schwarz_single_) schwarz_single_->reset_stats();
  if (checkpoint_stats_) *checkpoint_stats_ = {};
}

}  // namespace lqcd
