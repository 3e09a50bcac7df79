// Checkpoint/rollback monitor for restarted outer solvers.
//
// FGMRES-DR recomputes the TRUE residual b - A x at every cycle boundary
// while its Arnoldi recursion maintains a projected ESTIMATE of the same
// quantity. For a healthy solve the two agree to rounding; an undetected
// corruption of the iterate (SDC) leaves the recursion converging happily
// while the true residual runs away. The monitor exploits exactly that
// redundancy:
//
//   * each cycle whose true residual improves on the best checkpoint is
//     checkpointed (one extra field copy per cycle);
//   * a cycle whose true residual is non-finite, or exceeds the projected
//     estimate by `kCheckpointDetectRatio` AND is worse than the best
//     checkpoint, is declared corrupted: x is rolled back to the checkpoint
//     and the solver is told to discard its subspace and restart from
//     there.
//
// An optional FaultInjector is invoked after the detection step, so an
// injected SDC lands between cycles and must be caught by the NEXT
// cycle's divergence check — the adversarial ordering.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "lqcd/base/error.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/solver/linear_operator.h"

namespace lqcd {

// ---------------------------------------------------------------------------
// End-to-end ABFT: in-solve re-verification of the packed domain matrices
// with a detect -> localize -> repair escalation ladder.
//
// PR 4 stamped pack-time Fletcher-32 checksums on the Schwarz
// preconditioner's packed gauge/clover blocks but never re-checked them
// during a solve, so an in-solve upset was only caught — expensively — by
// the true-residual SDC detector and a full rollback. The AbftGuard closes
// the loop: every `verify_interval` preconditioner applications it sweeps
// the per-domain checksums (OpenMP-parallel, thread-count-invariant) and
// climbs the cheapest repair rung that restores integrity:
//
//   rung 1  localized repair: re-pack ONLY the bad domains from the
//           authoritative float source field (itself verified by its own
//           field-level checksum) — no rollback, no restart;
//   rung 2  source repair: the float source is corrupt too, so rebuild it
//           from the double master (verified against the checksum stamped
//           at solver construction), re-pack everything, and request a
//           CheckpointMonitor rollback of the iterate;
//   rung 3  the rollback request finds no checkpoint: the monitor restarts
//           the iterate from zero instead (flexible outer, still correct);
//   rung 4  the double master itself fails verification: throw AbftError —
//           a structured failure (Breakdown::kDataCorruption), never a
//           silent wrong answer, mirroring the collectives contract.
// ---------------------------------------------------------------------------

struct AbftConfig {
  bool enabled = false;
  /// Checksum-sweep period, counted in preconditioner applications (one
  /// per RHS for batched applies). 0 = auto-tune at solver construction
  /// from fault_probability_per_application via the Young/Daly optimizer.
  int verify_interval = 16;
  /// Verify a RecycleCache's deflation subspace when the next batch picks
  /// it up; a mismatch discards the subspace (it is an optimization, not
  /// a correctness requirement) and counts as a detection.
  bool check_deflation = false;
  /// Expected packed-data upset probability per preconditioner
  /// application; the lambda of the Young/Daly verify-interval tuner.
  double fault_probability_per_application = 0.0;
};

struct AbftStats {
  std::int64_t verifications = 0;  ///< checksum sweeps run
  std::int64_t detections = 0;     ///< corrupt domains (or subspaces) found
  std::int64_t repacks = 0;        ///< rung-1 localized domain re-packs
  std::int64_t rollbacks = 0;      ///< rung-2/3 iterate rollbacks serviced
  std::int64_t escalations = 0;    ///< rung-2+ source repairs required

  bool operator==(const AbftStats&) const = default;
  AbftStats& operator+=(const AbftStats& o) noexcept {
    verifications += o.verifications;
    detections += o.detections;
    repacks += o.repacks;
    rollbacks += o.rollbacks;
    escalations += o.escalations;
    return *this;
  }
};

inline AbftStats operator+(AbftStats a, const AbftStats& b) noexcept {
  a += b;
  return a;
}

/// Outcome of one checksum sweep, ordered by escalation rung.
enum class AbftStatus {
  kClean = 0,      ///< every checksum verified
  kRepaired,       ///< bad domains re-packed from an intact source
  kSourceRepaired, ///< source rebuilt from the master; rollback requested
  kFailed,         ///< master corrupt too — AbftError was thrown
};

inline const char* to_string(AbftStatus s) noexcept {
  switch (s) {
    case AbftStatus::kClean: return "clean";
    case AbftStatus::kRepaired: return "repaired";
    case AbftStatus::kSourceRepaired: return "source-repaired";
    case AbftStatus::kFailed: return "failed";
  }
  return "?";
}

/// Unrecoverable integrity failure: packed data corrupt and no verified
/// source to repair from. DDSolver converts it into a structured
/// SolverStats failure (Breakdown::kDataCorruption).
class AbftError : public Error {
 public:
  using Error::Error;
};

/// What the AbftGuard needs from a packed per-domain matrix store (the
/// Schwarz setups implement this): per-domain corruption
/// localization, per-domain re-pack, and verification of the store's own
/// pack source.
class PackedDomainStore {
 public:
  virtual ~PackedDomainStore() = default;
  virtual int num_domains() const = 0;
  /// Storage-precision tag ("half"/"single") for diagnostics.
  virtual const char* store_name() const = 0;
  /// Append the indices of domains whose packed checksums no longer
  /// match. Must be callable concurrently with nothing (the guard sweeps
  /// between applications, never inside one).
  virtual void find_corrupt_domains(std::vector<int>& bad) const = 0;
  /// Re-pack one domain from the source field and restamp its checksums.
  virtual void repack_domain(int domain) = 0;
  /// Re-verify the pack source (float gauge + clover) against the
  /// field-level checksums stamped at pack time.
  virtual bool source_intact() const = 0;
};

/// Young/Daly optimal checkpoint interval.
///
/// For checkpoint cost C and system MTBF M (same time units), the
/// expected overhead per unit of useful work,
///   h(T) = C/T + (T/2 + R)/M,
/// is minimized at Young's T* = sqrt(2 C M). Daly's second-order solution
/// refines it for C not << M:
///   T* = sqrt(2 C M) [1 + (1/3) sqrt(C/(2M)) + (1/9) (C/(2M))] - C,
/// valid for C < 2M; beyond that checkpointing every MTBF is the sane
/// floor. Units cancel, so the same function tunes the cluster model's
/// wall-clock interval (seconds) and the ABFT verify interval
/// (preconditioner applications).
inline double daly_checkpoint_interval(double cost, double mtbf) noexcept {
  if (cost <= 0.0 || mtbf <= 0.0) return 0.0;
  if (cost >= 2.0 * mtbf) return mtbf;
  const double x = cost / (2.0 * mtbf);
  return std::sqrt(2.0 * cost * mtbf) *
             (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
         cost;
}

/// Drives periodic checksum sweeps over registered PackedDomainStores and
/// executes the repair ladder. Owned by DDSolver; note_application() is
/// called from the precision bridge after every preconditioner
/// application (outside any parallel region).
class AbftGuard {
 public:
  explicit AbftGuard(const AbftConfig& config) : config_(config) {}

  const AbftConfig& config() const noexcept { return config_; }
  const AbftStats& stats() const noexcept { return stats_; }
  std::int64_t applications() const noexcept { return applications_; }
  AbftStatus last_status() const noexcept { return last_status_; }
  /// Application count at the most recent sweep that found corruption
  /// (for detection-latency measurements); -1 if none yet.
  std::int64_t last_detection_application() const noexcept {
    return last_detection_application_;
  }

  void add_store(PackedDomainStore* store) {
    if (store != nullptr) stores_.push_back(store);
  }

  /// Rung-2 callback: rebuild the float source from the verified double
  /// master and re-pack every store. Returns false if the master itself
  /// fails verification (rung 4).
  void set_source_repair(std::function<bool()> repair) {
    source_repair_ = std::move(repair);
  }

  /// New outer solve: clear any rollback request left unserviced (the
  /// previous solve may have ended before its next cycle boundary).
  void begin_solve() noexcept { rollback_requested_ = false; }

  /// One preconditioner application happened; sweep when the interval
  /// divides. Throws AbftError on an unrepairable ladder (rung 4).
  void note_application() {
    ++applications_;
    if (!config_.enabled || config_.verify_interval <= 0) return;
    if (applications_ % config_.verify_interval == 0) sweep();
  }

  /// A deflation-subspace verification ran; `intact` is its outcome. The
  /// caller (DDSolver) discards the subspace on mismatch — recycled
  /// deflation is an optimization, so discard IS the repair.
  void note_deflation_verification(bool intact) noexcept {
    ++stats_.verifications;
    if (!intact) {
      ++stats_.detections;
      last_detection_application_ = applications_;
    }
  }

  /// Run one checksum sweep over every registered store and climb the
  /// repair ladder as far as needed. Returns the worst rung reached.
  AbftStatus sweep() {
    ++stats_.verifications;
    AbftStatus status = AbftStatus::kClean;
    for (PackedDomainStore* store : stores_) {
      bad_.clear();
      store->find_corrupt_domains(bad_);
      if (bad_.empty()) continue;
      stats_.detections += static_cast<std::int64_t>(bad_.size());
      last_detection_application_ = applications_;
      if (store->source_intact()) {
        // Rung 1: the packed copy is stale but its source is good —
        // re-pack just the bad domains, the solve never notices.
        for (int d : bad_) {
          store->repack_domain(d);
          ++stats_.repacks;
        }
        if (status == AbftStatus::kClean) status = AbftStatus::kRepaired;
        continue;
      }
      // Rung 2: the float source is corrupt too. Rebuild it from the
      // double master and re-pack EVERY store (they share the source),
      // then ask the checkpoint monitor to roll the iterate back — sweeps
      // already ran against bad matrices, so the iterate is suspect.
      ++stats_.escalations;
      if (!source_repair_ || !source_repair_()) {
        last_status_ = AbftStatus::kFailed;
        throw AbftError(
            "ABFT: packed matrices corrupt and no verified repair source "
            "(double master checksum mismatch)");
      }
      rollback_requested_ = true;
      status = AbftStatus::kSourceRepaired;
      break;  // source repair re-packed and restamped everything
    }
    last_status_ = status;
    return status;
  }

  /// Consumed by CheckpointMonitor::on_cycle at the next cycle boundary.
  bool take_rollback_request() noexcept {
    const bool r = rollback_requested_;
    rollback_requested_ = false;
    return r;
  }
  void note_rollback_serviced() noexcept { ++stats_.rollbacks; }

 private:
  AbftConfig config_;
  AbftStats stats_;
  std::vector<PackedDomainStore*> stores_;
  std::function<bool()> source_repair_;
  std::vector<int> bad_;  ///< scratch: corrupt domains of the current store
  std::int64_t applications_ = 0;
  std::int64_t last_detection_application_ = -1;
  AbftStatus last_status_ = AbftStatus::kClean;
  bool rollback_requested_ = false;
};

struct CheckpointMonitorStats {
  int checkpoints = 0;   ///< iterate snapshots taken
  int rollbacks = 0;     ///< corruptions detected and rolled back
  std::int64_t injected = 0;  ///< faults the attached injector fired

  bool operator==(const CheckpointMonitorStats&) const = default;
  CheckpointMonitorStats& operator+=(const CheckpointMonitorStats& o) noexcept {
    checkpoints += o.checkpoints;
    rollbacks += o.rollbacks;
    injected += o.injected;
    return *this;
  }
};

/// CheckpointMonitor's divergence test: the true residual must exceed
/// this multiple of the solver's estimate. Healthy flexible-GMRES cycles
/// keep the two within a few percent, so 10x is far outside the
/// fault-free envelope.
inline constexpr double kCheckpointDetectRatio = 10.0;

template <class T>
class CheckpointMonitor final : public SolveMonitor<T> {
 public:
  explicit CheckpointMonitor(FaultInjector* injector = nullptr)
      : injector_(injector) {}

  const CheckpointMonitorStats& stats() const noexcept { return stats_; }

  /// Attach the ABFT guard whose escalated (rung-2) repairs request an
  /// iterate rollback at the next cycle boundary.
  void set_abft_guard(AbftGuard* guard) noexcept { abft_ = guard; }

  bool on_cycle(int /*iterations*/, double estimated_rel_residual,
                double true_rel_residual, FermionField<T>& x) override {
    if (abft_ != nullptr && abft_->take_rollback_request()) {
      // The guard had to rebuild the pack source mid-solve: sweeps already
      // ran against corrupt matrices, so discard the suspect iterate.
      // Rung 2 rolls back to the checkpoint; rung 3 (no checkpoint yet)
      // restarts from zero — the flexible outer tolerates both.
      if (has_checkpoint_) {
        copy(checkpoint_, x);
      } else {
        x.zero();
      }
      abft_->note_rollback_serviced();
      ++stats_.rollbacks;
      return true;
    }
    bool rolled_back = false;
    const bool diverged =
        !std::isfinite(true_rel_residual) ||
        (true_rel_residual >
             kCheckpointDetectRatio *
                 std::max(estimated_rel_residual, 1e-300) &&
         has_checkpoint_ && true_rel_residual > checkpoint_rel_residual_);
    if (diverged && has_checkpoint_) {
      copy(checkpoint_, x);
      ++stats_.rollbacks;
      rolled_back = true;
    } else if (!diverged &&
               (!has_checkpoint_ ||
                true_rel_residual < checkpoint_rel_residual_)) {
      if (checkpoint_.size() != x.size())
        checkpoint_ = FermionField<T>(x.size());
      copy(x, checkpoint_);
      checkpoint_rel_residual_ = true_rel_residual;
      has_checkpoint_ = true;
      ++stats_.checkpoints;
    }
    // Inject AFTER detection: the corruption is silent until the next
    // cycle's true-residual recompute exposes it.
    if (injector_ != nullptr && injector_->maybe_corrupt(x, FaultSite::kIterate))
      ++stats_.injected;
    return rolled_back;
  }

 private:
  FaultInjector* injector_;
  AbftGuard* abft_ = nullptr;
  CheckpointMonitorStats stats_;
  FermionField<T> checkpoint_;
  double checkpoint_rel_residual_ = 0.0;
  bool has_checkpoint_ = false;
};

}  // namespace lqcd
