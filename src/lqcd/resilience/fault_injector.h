// Seedable fault injection for the resilient-solve layer.
//
// The paper's production setting — 1024 KNCs running a mixed
// half/single/double solver stack for days — is a regime where silent data
// corruption (SDC), fp16 range exhaustion, and node-level failures are
// operational facts, not corner cases. This injector lets tests and
// benchmarks create those faults deterministically:
//
//   * kSpinorBitFlip: flip one bit of one real component of a fermion
//     field (the classic SDC model — a DRAM/cache upset that ECC missed).
//   * kFp16Overflow:  overwrite one component with the result of storing
//     an out-of-range value through binary16, i.e. +-inf (the hardware
//     saturating down-convert of Sec. III-B).
//   * kZeroField:     zero the entire field (a defective block solve /
//     dropped message — the degenerate-direction breakdown class).
//   * kGaugeBitFlip:  flip one bit of one gauge-link component.
//   * kRankDeath:     a virtual rank stops responding mid-collective /
//                     mid-exchange (node failure detected by timeout).
//   * kMessageDrop:   one message is lost in the fabric (timeout +
//                     retransmit with bounded backoff).
//   * kMessageCorrupt: one message arrives bit-flipped (caught by the
//                     Fletcher payload checksum, then retransmitted).
//
// The last three are MESSAGE faults: they fire at communication hook
// sites (maybe_fault) and are inert at field-corruption hooks, which only
// note the opportunity. Every fault decision is drawn from the injector's
// own Rng, so a given (seed, schedule) reproduces the same fault sequence
// regardless of threading. Opportunities are counted at every hook
// invocation; faults fire only inside the configured
// [first_opportunity, ...] window, with the configured probability, until
// max_events is exhausted. Each hook reports its FaultSite so coverage is
// visible per site in FaultInjectorStats.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "lqcd/base/rng.h"
#include "lqcd/gauge/gauge_field.h"
#include "lqcd/linalg/fermion_field.h"
#include "lqcd/linalg/fp16.h"

namespace lqcd {

enum class FaultClass {
  kSpinorBitFlip,
  kFp16Overflow,
  kZeroField,
  kGaugeBitFlip,
  kRankDeath,
  kMessageDrop,
  kMessageCorrupt,
};

/// Message faults target the communication layer (collective hops, halo
/// exchanges); they never fire at field-corruption hooks.
inline constexpr bool is_message_fault(FaultClass c) noexcept {
  return c == FaultClass::kRankDeath || c == FaultClass::kMessageDrop ||
         c == FaultClass::kMessageCorrupt;
}

/// Hook sites an injector can be attached to, for the per-site coverage
/// breakdown in FaultInjectorStats.
enum class FaultSite {
  kGeneric = 0,        ///< unattributed legacy hooks
  kIterate,            ///< outer-solver iterate (CheckpointMonitor)
  kSchwarzSweep,       ///< Schwarz sweep residual
  kGaugeField,         ///< gauge-link storage
  kDistributedSolver,  ///< vnode distributed BiCGstab residual
  kCollectiveHop,      ///< one hop of the proxy-tree allreduce
  kHaloExchange,       ///< one halo-exchange message
  kPackedMatrices,     ///< packed half/single gauge+clover blocks
  kDomainSolve,        ///< one domain visit inside a parallel Schwarz sweep
  kPackedData,         ///< in-solve upset of one packed component between sweeps
};

inline constexpr int kNumFaultSites = 10;

inline const char* to_string(FaultSite s) noexcept {
  switch (s) {
    case FaultSite::kGeneric: return "generic";
    case FaultSite::kIterate: return "iterate";
    case FaultSite::kSchwarzSweep: return "schwarz-sweep";
    case FaultSite::kGaugeField: return "gauge-field";
    case FaultSite::kDistributedSolver: return "distributed-solver";
    case FaultSite::kCollectiveHop: return "collective-hop";
    case FaultSite::kHaloExchange: return "halo-exchange";
    case FaultSite::kPackedMatrices: return "packed-matrices";
    case FaultSite::kDomainSolve: return "domain-solve";
    case FaultSite::kPackedData: return "packed-data";
  }
  return "?";
}

/// Sites whose hooks are pure event decisions (maybe_fault) rather than
/// field corruptions; at these the fault CLASS gate is the caller's job.
inline constexpr bool is_message_site(FaultSite s) noexcept {
  return s == FaultSite::kCollectiveHop || s == FaultSite::kHaloExchange;
}

struct FaultInjectorConfig {
  FaultClass fault = FaultClass::kSpinorBitFlip;
  std::uint64_t seed = 1;
  double probability = 1.0;   ///< chance of firing per eligible opportunity
  int max_events = 1;         ///< total fault budget (<0: unlimited)
  int first_opportunity = 0;  ///< hook calls to skip before arming
  /// Bit to flip for the bit-flip classes; -1 draws a random bit. High
  /// exponent bits (e.g. 62 for double, 30 for float) model the
  /// catastrophic upsets ABFT-style detection must catch.
  int bit = -1;
};

struct FaultInjectorStats {
  std::int64_t opportunities = 0;  ///< hook invocations seen
  std::int64_t events = 0;         ///< faults actually injected
  /// Per-hook-site breakdown, indexed by FaultSite.
  std::int64_t site_opportunities[kNumFaultSites] = {};
  std::int64_t site_events[kNumFaultSites] = {};

  std::int64_t opportunities_at(FaultSite s) const noexcept {
    return site_opportunities[static_cast<int>(s)];
  }
  std::int64_t events_at(FaultSite s) const noexcept {
    return site_events[static_cast<int>(s)];
  }
  bool operator==(const FaultInjectorStats&) const = default;

  /// Merge another shard's counters, preserving the per-site
  /// opportunity/event breakdown — the per-thread injector shards of a
  /// ParallelFaultScope are combined with exactly this.
  FaultInjectorStats& operator+=(const FaultInjectorStats& o) noexcept {
    opportunities += o.opportunities;
    events += o.events;
    for (int s = 0; s < kNumFaultSites; ++s) {
      site_opportunities[s] += o.site_opportunities[s];
      site_events[s] += o.site_events[s];
    }
    return *this;
  }
};

inline FaultInjectorStats operator+(FaultInjectorStats a,
                                    const FaultInjectorStats& b) noexcept {
  a += b;
  return a;
}

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectorConfig& config = {})
      : config_(config), rng_(config.seed) {}

  const FaultInjectorConfig& config() const noexcept { return config_; }
  const FaultInjectorStats& stats() const noexcept { return stats_; }

  /// Re-arm: restore the fault budget and the deterministic stream.
  void reset() noexcept {
    stats_ = FaultInjectorStats{};
    rng_ = Rng(config_.seed);
    scope_epochs_ = 0;
  }

  /// Pure event-decision hook for message sites (collective hops, halo
  /// messages): returns true iff a fault fires at this opportunity. The
  /// caller interprets the configured FaultClass (drop / corrupt / death).
  bool maybe_fault(FaultSite site) {
    if (!should_fire(site)) return false;
    record_event(site);
    return true;
  }

  /// Injection hook for fermion fields. Returns true iff a fault fired.
  template <class T>
  bool maybe_corrupt(FermionField<T>& f,
                     FaultSite site = FaultSite::kGeneric) {
    if (is_message_fault(config_.fault)) {
      note_opportunity(site);
      return false;
    }
    if (!should_fire(site) || f.size() == 0) return false;
    switch (config_.fault) {
      case FaultClass::kZeroField:
        f.zero();
        break;
      case FaultClass::kFp16Overflow: {
        // What the saturating binary16 down-convert makes of any value
        // beyond the half range: a signed infinity in the stored field.
        T* reals = reinterpret_cast<T*>(f.data());
        const auto idx = rng_.uniform_u64(
            static_cast<std::uint64_t>(f.size()) * kSpinorReals);
        reals[idx] = static_cast<T>(half_round_trip(1.0e6f));
        break;
      }
      case FaultClass::kSpinorBitFlip:
      case FaultClass::kGaugeBitFlip: {
        T* reals = reinterpret_cast<T*>(f.data());
        const auto idx = rng_.uniform_u64(
            static_cast<std::uint64_t>(f.size()) * kSpinorReals);
        reals[idx] = flip_bit(reals[idx]);
        break;
      }
      case FaultClass::kRankDeath:
      case FaultClass::kMessageDrop:
      case FaultClass::kMessageCorrupt:
        return false;  // unreachable: guarded above
    }
    record_event(site);
    return true;
  }

  /// Injection hook for gauge fields: one bit of one link component.
  template <class T>
  bool maybe_corrupt(GaugeField<T>& gauge,
                     FaultSite site = FaultSite::kGaugeField) {
    if (is_message_fault(config_.fault)) {
      note_opportunity(site);
      return false;
    }
    if (!should_fire(site)) return false;
    const auto volume = gauge.geometry().volume();
    const auto site_idx = static_cast<std::int32_t>(
        rng_.uniform_u64(static_cast<std::uint64_t>(volume)));
    const int mu = static_cast<int>(rng_.uniform_u64(kNumDims));
    auto& link = gauge.link(site_idx, mu);
    const int i = static_cast<int>(rng_.uniform_u64(kNumColors));
    const int j = static_cast<int>(rng_.uniform_u64(kNumColors));
    if (rng_.uniform() < 0.5) {
      link.m[i][j] = Complex<T>(flip_bit(link.m[i][j].real()),
                                link.m[i][j].imag());
    } else {
      link.m[i][j] = Complex<T>(link.m[i][j].real(),
                                flip_bit(link.m[i][j].imag()));
    }
    record_event(site);
    return true;
  }

  /// Injection hook for raw scalar storage (packed half/single-precision
  /// matrix blocks): corrupts one element — or the whole range for
  /// kZeroField — per the configured class. U is float, double, or Half
  /// (binary16 storage scalar).
  template <class U>
  bool maybe_corrupt_reals(U* data, std::int64_t count, FaultSite site) {
    if (is_message_fault(config_.fault)) {
      note_opportunity(site);
      return false;
    }
    if (!should_fire(site) || count <= 0 || data == nullptr) return false;
    const auto idx = rng_.uniform_u64(static_cast<std::uint64_t>(count));
    switch (config_.fault) {
      case FaultClass::kZeroField:
        for (std::int64_t i = 0; i < count; ++i) data[i] = U{};
        break;
      case FaultClass::kFp16Overflow:
        if constexpr (std::is_same_v<U, Half>) {
          data[idx] = float_to_half(1.0e6f);
        } else {
          data[idx] = static_cast<U>(half_round_trip(1.0e6f));
        }
        break;
      case FaultClass::kSpinorBitFlip:
      case FaultClass::kGaugeBitFlip:
        data[idx] = flip_bit(data[idx]);
        break;
      case FaultClass::kRankDeath:
      case FaultClass::kMessageDrop:
      case FaultClass::kMessageCorrupt:
        return false;  // unreachable: guarded above
    }
    record_event(site);
    return true;
  }

 private:
  void note_opportunity(FaultSite site) noexcept {
    ++stats_.opportunities;
    ++stats_.site_opportunities[static_cast<int>(site)];
  }
  void record_event(FaultSite site) noexcept {
    ++stats_.events;
    ++stats_.site_events[static_cast<int>(site)];
  }

  bool should_fire(FaultSite site) {
    const std::int64_t opportunity = stats_.opportunities;
    note_opportunity(site);
    if (opportunity < config_.first_opportunity) return false;
    if (config_.max_events >= 0 && stats_.events >= config_.max_events)
      return false;
    return config_.probability >= 1.0 || rng_.uniform() < config_.probability;
  }

  float flip_bit(float v) { return flip_bit_with(rng_, config_.bit, v); }
  double flip_bit(double v) { return flip_bit_with(rng_, config_.bit, v); }
  std::uint16_t flip_bit(std::uint16_t v) {
    return flip_bit_with(rng_, config_.bit, v);
  }

  static float flip_bit_with(Rng& rng, int cfg_bit, float v) noexcept {
    const int bit = cfg_bit >= 0 && cfg_bit < 32
                        ? cfg_bit
                        : static_cast<int>(rng.uniform_u64(32));
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) ^
                                (std::uint32_t{1} << bit));
  }
  static double flip_bit_with(Rng& rng, int cfg_bit, double v) noexcept {
    const int bit = cfg_bit >= 0 && cfg_bit < 64
                        ? cfg_bit
                        : static_cast<int>(rng.uniform_u64(64));
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                                 (std::uint64_t{1} << bit));
  }
  /// Half (binary16) storage scalar: flip one of its 16 bits.
  static std::uint16_t flip_bit_with(Rng& rng, int cfg_bit,
                                     std::uint16_t v) noexcept {
    const int bit = cfg_bit >= 0 && cfg_bit < 16
                        ? cfg_bit
                        : static_cast<int>(rng.uniform_u64(16));
    return static_cast<std::uint16_t>(v ^ (std::uint16_t{1} << bit));
  }

  friend class ParallelFaultScope;

  FaultInjectorConfig config_;
  Rng rng_;
  FaultInjectorStats stats_;
  std::int64_t scope_epochs_ = 0;  ///< ParallelFaultScopes opened so far
};

/// Blessed thread-safe fault-hook API for OpenMP regions.
///
/// The serial FaultInjector hooks mutate a shared RNG and shared counters
/// and therefore MUST NOT be called from inside `omp parallel` regions
/// (tools/analyze enforces this). A ParallelFaultScope is the
/// race-free alternative for loops whose trip count is known up front —
/// e.g. the Schwarz sweep over the domains of one color:
///
///   * Construction (serial, before the region) pre-draws the fire
///     decision of every opportunity key in [0, num_keys), in key order,
///     from the injector's own RNG stream, honoring `probability`,
///     `first_opportunity` (against the injector's global opportunity
///     counter), and the `max_events` budget exactly as the serial hooks
///     would. The fault pattern is therefore a pure function of
///     (seed, schedule, key) — identical for ANY thread count or
///     iteration interleaving.
///   * Inside the region, thread `tid` calls maybe_corrupt_reals /
///     maybe_fault with its unique key. Corruption randomness (element,
///     bit) comes from a per-key forked RNG, never from shared state, and
///     counters accumulate in cache-line-padded per-thread shards. Hooks
///     are lock-free: no atomics, no mutexes.
///   * merge() (serial, at region exit — also run by the destructor)
///     folds the shards into the injector's FaultInjectorStats via the
///     commutative FaultInjectorStats::operator+=, so the merged counters
///     are deterministic and exactly equal across thread counts
///     (tests/test_thread_safety.cpp asserts this contract).
///
/// Each key must be visited at most once; serial injector hooks must not
/// run between construction and merge() (the pre-drawn budget assumes
/// the event counter is frozen for the scope's lifetime).
class ParallelFaultScope {
 public:
  /// Padded per-thread counter slot: one cache line per thread, so hot
  /// hooks never false-share.
  struct alignas(64) Shard {
    FaultInjectorStats stats;
  };

  /// `injector` may be nullptr: the scope is inert and every hook
  /// returns false without recording anything.
  ParallelFaultScope(FaultInjector* injector, FaultSite site,
                     std::int64_t num_keys, int num_threads)
      : injector_(injector), site_(site) {
    if (injector_ == nullptr || num_keys <= 0) return;
    shards_.resize(
        static_cast<std::size_t>(num_threads > 0 ? num_threads : 1));
    fire_.assign(static_cast<std::size_t>(num_keys), 0);
    epoch_ = injector_->scope_epochs_++;
    const FaultInjectorConfig& cfg = injector_->config_;
    // A corruption site is inert for message fault classes (mirrors the
    // serial maybe_corrupt* hooks): opportunities count, nothing fires,
    // no RNG draws.
    if (!is_message_site(site) && is_message_fault(cfg.fault)) return;
    const std::int64_t base_opportunity = injector_->stats_.opportunities;
    const std::int64_t base_events = injector_->stats_.events;
    std::int64_t fired = 0;
    for (std::int64_t k = 0; k < num_keys; ++k) {
      if (base_opportunity + k < cfg.first_opportunity) continue;
      if (cfg.max_events >= 0 && base_events + fired >= cfg.max_events)
        continue;
      if (cfg.probability >= 1.0 ||
          injector_->rng_.uniform() < cfg.probability) {
        fire_[static_cast<std::size_t>(k)] = 1;
        ++fired;
      }
    }
  }

  ~ParallelFaultScope() { merge(); }

  ParallelFaultScope(const ParallelFaultScope&) = delete;
  ParallelFaultScope& operator=(const ParallelFaultScope&) = delete;

  /// Pure event-decision hook (message sites). Thread-safe for distinct
  /// (tid, key) pairs.
  bool maybe_fault(int tid, std::int64_t key) noexcept {
    if (shards_.empty()) return false;
    note_opportunity(tid);
    return fire_[static_cast<std::size_t>(key)] != 0;
  }

  /// Corruption hook for raw scalar storage, the parallel counterpart of
  /// FaultInjector::maybe_corrupt_reals. U is float, double, or Half.
  template <class U>
  bool maybe_corrupt_reals(int tid, std::int64_t key, U* data,
                           std::int64_t count) {
    if (shards_.empty()) return false;
    note_opportunity(tid);
    if (fire_[static_cast<std::size_t>(key)] == 0 || count <= 0 ||
        data == nullptr)
      return false;
    const FaultInjectorConfig& cfg = injector_->config_;
    Rng sub = key_rng(cfg.seed, epoch_, key);
    const auto idx = sub.uniform_u64(static_cast<std::uint64_t>(count));
    switch (cfg.fault) {
      case FaultClass::kZeroField:
        for (std::int64_t i = 0; i < count; ++i) data[i] = U{};
        break;
      case FaultClass::kFp16Overflow:
        if constexpr (std::is_same_v<U, Half>) {
          data[idx] = float_to_half(1.0e6f);
        } else {
          data[idx] = static_cast<U>(half_round_trip(1.0e6f));
        }
        break;
      case FaultClass::kSpinorBitFlip:
      case FaultClass::kGaugeBitFlip:
        data[idx] = FaultInjector::flip_bit_with(sub, cfg.bit, data[idx]);
        break;
      case FaultClass::kRankDeath:
      case FaultClass::kMessageDrop:
      case FaultClass::kMessageCorrupt:
        return false;  // unreachable: such scopes pre-draw no fires
    }
    record_event(tid);
    return true;
  }

  /// Fold the per-thread shards into the injector's counters. Serial;
  /// idempotent (the destructor calls it too). Integer sums over a
  /// partition of the keys, so the result is independent of which thread
  /// visited which key.
  void merge() noexcept {
    if (injector_ == nullptr || merged_) return;
    for (const Shard& sh : shards_) injector_->stats_ += sh.stats;
    merged_ = true;
  }

 private:
  void note_opportunity(int tid) noexcept {
    FaultInjectorStats& st = shards_[static_cast<std::size_t>(tid)].stats;
    ++st.opportunities;
    ++st.site_opportunities[static_cast<int>(site_)];
  }
  void record_event(int tid) noexcept {
    FaultInjectorStats& st = shards_[static_cast<std::size_t>(tid)].stats;
    ++st.events;
    ++st.site_events[static_cast<int>(site_)];
  }

  /// Independent per-key RNG: splitmix64 over (seed, epoch, key) so the
  /// corruption detail (element, bit) is reproducible for any threading.
  static Rng key_rng(std::uint64_t seed, std::int64_t epoch,
                     std::int64_t key) noexcept {
    std::uint64_t sm = seed;
    sm ^= splitmix64(sm) + static_cast<std::uint64_t>(epoch);
    sm ^= splitmix64(sm) + static_cast<std::uint64_t>(key);
    return Rng(splitmix64(sm));
  }

  FaultInjector* injector_;
  FaultSite site_;
  std::int64_t epoch_ = 0;
  std::vector<char> fire_;     ///< pre-drawn decision per key
  std::vector<Shard> shards_;  ///< per-thread counter slots
  bool merged_ = false;
};

}  // namespace lqcd
