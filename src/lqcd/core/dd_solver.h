// DDSolver — the paper's complete solver pipeline, as a single public API.
//
//   outer:  flexible GMRES with deflated restarts, double precision
//   precond: multiplicative Schwarz, ISchwarz sweeps, float arithmetic,
//            gauge links + clover blocks stored in half precision
//            (configurable), even-odd MR block solves (Idomain iterations)
//
// Mirrors Table I of the paper. Construct once per gauge configuration,
// then call solve() per right-hand side.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "lqcd/resilience/resilient_solve.h"
#include "lqcd/schwarz/schwarz.h"
#include "lqcd/solver/fgmres_dr.h"

namespace lqcd {

/// Resilient-solve layer configuration. With enabled = false (default)
/// the solver pipeline is exactly the fault-oblivious one: same objects,
/// same arithmetic, bit-identical iteration counts.
struct ResilienceConfig {
  /// Arms the layer, including its CheckpointMonitor: the outer iterate
  /// is checkpointed at every FGMRES cycle whose true residual improved
  /// and rolled back when recursive and true residuals diverge (silent
  /// data corruption of the iterate). With half-precision matrices it
  /// also retries a Schwarz apply on the single-precision matrices when
  /// the half-precision one produces NaN/Inf (fp16 overflow), recorded in
  /// SchwarzStats::precision_fallbacks.
  bool enabled = false;
  /// Optional fault injection (testing/benchmarking): `schwarz_injector`
  /// corrupts the preconditioner's sweep residual, `iterate_injector`
  /// corrupts the outer iterate between cycles, `packed_injector` flips
  /// bits in the packed gauge/clover matrices between Schwarz sweeps
  /// (FaultSite::kPackedData — the corruption class the ABFT layer
  /// catches). Caller-owned; packed_injector must be a distinct instance
  /// from schwarz_injector.
  FaultInjector* schwarz_injector = nullptr;
  FaultInjector* iterate_injector = nullptr;
  FaultInjector* packed_injector = nullptr;
  /// In-solve ABFT: periodic checksum re-verification of the packed
  /// domain matrices with localized repair (see AbftGuard). Requires
  /// `enabled`.
  AbftConfig abft;

  /// Young/Daly optimizer (daly_checkpoint_interval): the wall-clock
  /// checkpoint interval minimizing expected fault overhead for `nodes`
  /// nodes of `node_mtbf_hours` per-node MTBF and one checkpoint write
  /// costing `checkpoint_cost_seconds`. The cluster model applies it when
  /// NodeFaultSpec::auto_tune_checkpoint_interval is set; the same
  /// optimizer (in units of preconditioner applications) picks
  /// AbftConfig::verify_interval when that is left at 0.
  static double auto_tune_checkpoint_interval(
      double node_mtbf_hours, int nodes,
      double checkpoint_cost_seconds) noexcept {
    if (node_mtbf_hours <= 0.0 || nodes <= 0) return 0.0;
    return daly_checkpoint_interval(checkpoint_cost_seconds,
                                    node_mtbf_hours * 3600.0 / nodes);
  }
};

struct DDSolverConfig {
  /// Schwarz domain size; must tile the lattice with even grid extents.
  /// The paper's production choice is {8,4,4,4} (fits KNC L2).
  Coord block = {4, 4, 4, 4};
  int basis_size = 16;         ///< outer FGMRES basis m
  int deflation_size = 4;      ///< k deflated harmonic Ritz vectors
  int schwarz_iterations = 16; ///< ISchwarz
  int block_mr_iterations = 5; ///< Idomain
  bool additive_schwarz = false;
  /// Store the preconditioner's gauge+clover in IEEE half (paper default);
  /// spinors stay single precision either way.
  bool half_precision_matrices = true;
  /// Paper Sec. VI future work: store the preconditioner's spinors in
  /// half precision as well (emulated; see SchwarzParams).
  bool half_precision_spinors = false;
  double tolerance = 1e-10;    ///< relative residual target (outer, double)
  int max_iterations = 2000;   ///< outer Arnoldi steps
  ResilienceConfig resilience; ///< breakdown detection & recovery layer
};

/// Immutable per-configuration solver state: the double/float operators,
/// the domain partition, and the packed Schwarz setups — everything whose
/// construction cost should be paid once per gauge configuration and
/// shared by every DDSolver instance (and thus every solve) on it. Which
/// Schwarz precisions are packed follows the config the setup was built
/// with; a DDSolver attached later must use a config needing no more.
///
/// Mutability exception: the ABFT repair ladder (repair_from_master(),
/// per-domain re-packs inside the Schwarz setups) heals corrupted packed
/// data in place, so solves that may trigger in-solve repair must not run
/// concurrently on a shared setup.
class DDSolverSetup {
 public:
  /// `geom` and `gauge` must outlive the setup. The gauge field should
  /// already carry its boundary phases (make_time_antiperiodic()).
  DDSolverSetup(const Geometry& geom, const GaugeField<double>& gauge,
                double mass, double csw, const DDSolverConfig& config);

  /// Owning form: geometry and master gauge field transferred into the
  /// setup, so its lifetime is independent of any caller state. Prefer
  /// make_owning(); this overload exists so it can go through make_shared.
  DDSolverSetup(std::unique_ptr<const Geometry> geom,
                std::unique_ptr<const GaugeField<double>> gauge, double mass,
                double csw, const DDSolverConfig& config);

  /// Build a setup that deep-copies `geom` and `gauge` and owns the
  /// copies. The setup-cache path uses this: a cached entry may outlive
  /// the client request (and gauge field) that created it, so master()
  /// must never reference client storage.
  static std::shared_ptr<DDSolverSetup> make_owning(
      const Geometry& geom, const GaugeField<double>& gauge, double mass,
      double csw, const DDSolverConfig& config);

  const Geometry& geometry() const noexcept { return *geom_; }
  /// The caller's double-precision gauge field (the repair ladder's
  /// authoritative master copy).
  const GaugeField<double>& master() const noexcept { return *master_; }
  double mass() const noexcept { return mass_; }
  double csw() const noexcept { return csw_; }
  const WilsonCloverOperator<double>& op_d() const noexcept { return *op_d_; }
  const DomainPartition& partition() const noexcept { return *part_; }
  const std::shared_ptr<SchwarzSetup<Half>>& schwarz_half() const noexcept {
    return schwarz_half_;
  }
  const std::shared_ptr<SchwarzSetup<float>>& schwarz_single() const noexcept {
    return schwarz_single_;
  }
  /// Field-level Fletcher-32 of the master gauge field, stamped at
  /// construction: the setup-cache key and the stale-setup detector.
  std::uint32_t gauge_checksum() const noexcept { return gauge_checksum_; }

  /// Rung-2 ABFT repair: verify the double master against the
  /// construction-time checksum, rebuild the float gauge/clover source
  /// from it, and re-pack every Schwarz store. False if the master itself
  /// no longer verifies (nothing trustworthy to repair from).
  bool repair_from_master();

 private:
  /// Set only in the owning form: the deep copies geom_/master_ point at.
  std::unique_ptr<const Geometry> owned_geom_;
  std::unique_ptr<const GaugeField<double>> owned_master_;
  const Geometry* geom_;
  const GaugeField<double>* master_;
  double mass_;
  double csw_;
  Checkerboard cb_;
  std::unique_ptr<WilsonCloverOperator<double>> op_d_;
  std::unique_ptr<GaugeField<float>> gauge_f_;
  std::unique_ptr<WilsonCloverOperator<float>> op_f_;
  std::unique_ptr<DomainPartition> part_;
  std::shared_ptr<SchwarzSetup<Half>> schwarz_half_;
  std::shared_ptr<SchwarzSetup<float>> schwarz_single_;
  std::uint32_t gauge_checksum_ = 0;
};

/// Persistent deflation-recycle state a caller can thread through
/// consecutive solve_batch() calls so later batches on the same gauge
/// configuration skip the solo seeding solve and project against the
/// subspace harvested by the previous batch. The cache is keyed by the
/// configuration checksum: presenting it to a solver on a DIFFERENT
/// configuration silently discards the subspace (a harmonic-Ritz space of
/// configuration A is meaningless — and convergence-poisoning — on B).
struct RecycleCache {
  DeflationSpace<double> space;
  std::uint32_t gauge_key = 0;  ///< configuration the space was harvested on
  std::uint32_t abft_sum = 0;   ///< checksum stamped at harvest (ABFT)
  bool abft_stamped = false;
  void clear() {
    space.clear();
    abft_sum = 0;
    abft_stamped = false;
  }
};

/// Per-call options of DDSolver::solve_batch().
struct BatchSolveOptions {
  /// Per-RHS relative-residual targets. Empty = the config tolerance for
  /// every lane; otherwise must have one entry per RHS. Each lane's
  /// engine converges (and stops consuming preconditioner applications)
  /// at ITS OWN target — a tight-tolerance lane is never declared done at
  /// a looser lane's threshold.
  std::vector<double> tolerances;
  /// Optional cross-batch deflation recycling (see RecycleCache);
  /// nullptr = recycle only within this call.
  RecycleCache* recycle = nullptr;
};

/// The precision bridge between the double-precision outer solver and the
/// float Schwarz preconditioner (the paper's Sec. III precision split): it
/// converts a batch to float, hands it to the preconditioner's
/// apply_batch — so one Schwarz sweep streams each domain's matrices once
/// for all RHS — and converts the outputs back. apply() is a batch of one.
///
/// A resilient bridge (ResilienceConfig::enabled) also scans every output
/// for NaN/Inf (fp16 overflow saturates to inf and propagates). A poisoned
/// RHS is retried alone on the single-precision `fallback`; without a
/// fallback, or if its output is poisoned too, the correction is zeroed —
/// the flexible outer solver then discards the degenerate direction and
/// restarts (Lüscher's observation that the Schwarz preconditioner
/// tolerates inexact block solves is what makes both degradation paths
/// safe). A plain bridge does not scan: a non-finite output reaches the
/// outer solver, which ends the solve with Breakdown::kNanDetected.
class PrecisionBridge final : public Preconditioner<double> {
 public:
  /// `on_fallback` is told of every poisoned output of a resilient bridge.
  PrecisionBridge(Preconditioner<float>& primary, std::int64_t n,
                  bool resilient, Preconditioner<float>* fallback = nullptr,
                  std::function<void()> on_fallback = {})
      : primary_(&primary),
        fallback_(fallback),
        on_fallback_(std::move(on_fallback)),
        n_(n),
        resilient_(resilient) {
    // One RHS's staging is allocated with the rest of the solver state.
    // Allocated at the first apply instead, between FGMRES-DR's per-solve
    // buffers, it fragmented the heap: +6 MB peak RSS on perfbench
    // single_rhs.
    in_f_.emplace_back(n);
    out_f_.emplace_back(n);
  }

  /// Attach the ABFT guard, notified once per completed application (per
  /// RHS for batches) — the clock that drives the periodic checksum
  /// sweeps. Notification happens after the output conversion, outside
  /// any parallel region, so a sweep's repair never races an apply.
  void set_abft_guard(AbftGuard* guard) noexcept { abft_ = guard; }

  void apply(const FermionField<double>& in,
             FermionField<double>& out) override {
    apply_batch({&in}, {&out});
  }

  void apply_batch(const std::vector<const FermionField<double>*>& in,
                   const std::vector<FermionField<double>*>& out) override {
    const std::size_t nrhs = in.size();
    while (in_f_.size() < nrhs) {
      in_f_.emplace_back(n_);
      out_f_.emplace_back(n_);
    }
    std::vector<const FermionField<float>*> fin(nrhs);
    std::vector<FermionField<float>*> fout(nrhs);
    for (std::size_t b = 0; b < nrhs; ++b) {
      convert(*in[b], in_f_[b]);
      fin[b] = &in_f_[b];
      fout[b] = &out_f_[b];
    }
    primary_->apply_batch(fin, fout);
    for (std::size_t b = 0; b < nrhs; ++b) {
      if (resilient_ && !all_finite(out_f_[b])) {
        if (on_fallback_) on_fallback_();
        if (fallback_ != nullptr) fallback_->apply(in_f_[b], out_f_[b]);
        if (fallback_ == nullptr || !all_finite(out_f_[b])) out_f_[b].zero();
      }
      convert(out_f_[b], *out[b]);
    }
    if (abft_ != nullptr)
      for (std::size_t b = 0; b < nrhs; ++b) abft_->note_application();
  }

 private:
  Preconditioner<float>* primary_;
  Preconditioner<float>* fallback_;
  std::function<void()> on_fallback_;
  AbftGuard* abft_ = nullptr;
  std::int64_t n_;
  bool resilient_;
  std::vector<FermionField<float>> in_f_, out_f_;
};

class DDSolver {
 public:
  /// One-shot form: build (and own) a private DDSolverSetup. `geom` and
  /// `gauge` must outlive the solver; the gauge field should already
  /// carry its boundary phases (make_time_antiperiodic()).
  DDSolver(const Geometry& geom, const GaugeField<double>& gauge, double mass,
           double csw, const DDSolverConfig& config);

  /// Shared-setup form: attach to an existing per-configuration setup
  /// (solver-service path). Only mutable per-solve state is allocated —
  /// Schwarz sweep scratch, precision-bridge staging, monitors — so
  /// constructing additional solvers on a configuration costs no
  /// operator rebuild or re-packing. `config` must not require packed
  /// precisions the setup was built without.
  DDSolver(std::shared_ptr<DDSolverSetup> setup, const DDSolverConfig& config);

  /// Solve A x = b to the configured relative residual: solve_batch()
  /// of one right-hand side, without copying b.
  SolverStats solve(const FermionField<double>& b, FermionField<double>& x);

  /// Solve A x[i] = b[i] for a batch of right-hand sides (paper Sec. VI).
  /// The first RHS is solved alone and seeds a recycled harmonic-Ritz
  /// deflation subspace (its initial-residual projection gives the later
  /// RHS a head start); the remaining RHS then advance in lockstep so
  /// every preconditioner application is one batched Schwarz sweep that
  /// streams each domain's packed matrices once for the whole batch.
  /// With b.size() == 1 this is solve().
  std::vector<SolverStats> solve_batch(
      const std::vector<FermionField<double>>& b,
      std::vector<FermionField<double>>& x);

  /// solve_batch with per-lane tolerances and/or persistent cross-batch
  /// deflation recycling. When options.recycle presents a subspace that
  /// is valid for THIS configuration, the solo seeding phase is skipped
  /// and every RHS advances in lockstep from the first preconditioner
  /// application.
  std::vector<SolverStats> solve_batch(
      const std::vector<FermionField<double>>& b,
      std::vector<FermionField<double>>& x,
      const BatchSolveOptions& options);

  const DDSolverConfig& config() const noexcept { return config_; }
  const std::shared_ptr<DDSolverSetup>& setup() const noexcept {
    return setup_;
  }
  const WilsonCloverOperator<double>& op() const noexcept {
    return setup_->op_d();
  }
  const DomainPartition& partition() const noexcept {
    return setup_->partition();
  }

  /// Counters accumulated inside the Schwarz preconditioner(s). Merged
  /// across the half-precision primary AND the single-precision fallback,
  /// so sweeps executed during precision-fallback retries are reported.
  SchwarzStats schwarz_stats() const;
  void reset_stats();

  /// Checkpoint/rollback counters, summed over every right-hand side's
  /// CheckpointMonitor; nullptr when resilience is disabled.
  const CheckpointMonitorStats* checkpoint_stats() const noexcept {
    return checkpoint_stats_ ? &*checkpoint_stats_ : nullptr;
  }

  /// ABFT sweep/repair counters; nullptr when ABFT is disabled.
  const AbftStats* abft_stats() const noexcept {
    return abft_guard_ ? &abft_guard_->stats() : nullptr;
  }
  /// The guard itself (detection-latency probes in tests/bench); nullptr
  /// when ABFT is disabled.
  const AbftGuard* abft_guard() const noexcept { return abft_guard_.get(); }

 private:
  /// The one solve path behind solve() and solve_batch(): the right-hand
  /// sides and solutions by pointer, each lane's stats into `out`;
  /// |b| == |x| == |out|.
  void solve_lanes(std::span<const FermionField<double>* const> b,
                   std::span<FermionField<double>* const> x,
                   const BatchSolveOptions& options,
                   std::span<SolverStats> out);
  /// True when the caller's double-precision gauge field no longer
  /// matches the checksum stamped when the setup was packed (the caller
  /// mutated it, e.g. another HMC trajectory, without rebuilding the
  /// solver). solve() and solve_batch() check it first and return
  /// Breakdown::kStaleSetup instead of solving against stale packed data;
  /// the check is one Fletcher-32 pass over the gauge field per call.
  bool setup_is_stale() const;

  DDSolverConfig config_;
  /// Shared immutable per-configuration state; everything below is
  /// per-solver mutable scratch.
  std::shared_ptr<DDSolverSetup> setup_;
  std::unique_ptr<SchwarzPreconditioner<float>> schwarz_single_;
  std::unique_ptr<SchwarzPreconditioner<Half>> schwarz_half_;
  std::unique_ptr<PrecisionBridge> bridge_;
  std::optional<CheckpointMonitorStats> checkpoint_stats_;
  std::unique_ptr<AbftGuard> abft_guard_;
};

}  // namespace lqcd
