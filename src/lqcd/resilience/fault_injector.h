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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "lqcd/base/per_thread.h"
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

namespace detail {

/// `v` with one bit flipped: bit `cfg_bit` when it is one of v's bits,
/// else one drawn from `rng`. U is float, double, or Half.
template <class U>
U flip_bit(Rng& rng, int cfg_bit, U v) noexcept {
  using Bits = std::conditional_t<
      sizeof(U) == 8, std::uint64_t,
      std::conditional_t<sizeof(U) == 4, std::uint32_t, std::uint16_t>>;
  constexpr int kBits = 8 * static_cast<int>(sizeof(U));
  const int bit = cfg_bit >= 0 && cfg_bit < kBits
                      ? cfg_bit
                      : static_cast<int>(rng.uniform_u64(kBits));
  return std::bit_cast<U>(
      static_cast<Bits>(std::bit_cast<Bits>(v) ^ (Bits{1} << bit)));
}

/// The corruption every field hook applies: cfg.fault on the `n` reals at
/// `data`, with every random choice drawn from `rng`.
///   * kZeroField zeroes all n reals and draws nothing.
///   * kFp16Overflow overwrites one drawn real with what the saturating
///     binary16 down-convert makes of an out-of-range value: a signed
///     infinity.
///   * The bit-flip classes flip one bit of one drawn real.
/// Returns false, touching nothing, for an empty range or a message fault
/// class. U is float, double, or Half (binary16 storage scalar).
template <class U>
bool corrupt_reals(Rng& rng, const FaultInjectorConfig& cfg, U* data,
                   std::int64_t n) {
  if (data == nullptr || n <= 0) return false;
  auto drawn = [&]() -> U& {
    return data[rng.uniform_u64(static_cast<std::uint64_t>(n))];
  };
  switch (cfg.fault) {
    case FaultClass::kZeroField:
      std::fill_n(data, n, U{});
      return true;
    case FaultClass::kFp16Overflow:
      if constexpr (std::is_same_v<U, Half>) {
        drawn() = float_to_half(1.0e6f);
      } else {
        drawn() = static_cast<U>(half_round_trip(1.0e6f));
      }
      return true;
    case FaultClass::kSpinorBitFlip:
    case FaultClass::kGaugeBitFlip: {
      U& v = drawn();
      v = flip_bit(rng, cfg.bit, v);
      return true;
    }
    case FaultClass::kRankDeath:
    case FaultClass::kMessageDrop:
    case FaultClass::kMessageCorrupt:
      return false;
  }
  return false;
}

}  // namespace detail

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

  /// Injection hook for fermion fields: detail::corrupt_reals() on the
  /// field's reals. Returns true iff a fault fired.
  template <class T>
  bool maybe_corrupt(FermionField<T>& f,
                     FaultSite site = FaultSite::kGeneric) {
    return maybe_corrupt_reals(reinterpret_cast<T*>(f.data()),
                               f.size() * kSpinorReals, site);
  }

  /// Injection hook for gauge fields: detail::corrupt_reals() on the
  /// reals of all links.
  template <class T>
  bool maybe_corrupt(GaugeField<T>& gauge,
                     FaultSite site = FaultSite::kGaugeField) {
    const auto links =
        static_cast<std::int64_t>(gauge.geometry().volume()) * kNumDims;
    return maybe_corrupt_reals(
        reinterpret_cast<T*>(&gauge.link(0, 0)),
        links * static_cast<std::int64_t>(sizeof(SU3<T>) / sizeof(T)), site);
  }

  /// Injection hook for raw scalar storage (packed half/single-precision
  /// matrix blocks): detail::corrupt_reals() on data[0, count). U is
  /// float, double, or Half.
  template <class U>
  bool maybe_corrupt_reals(U* data, std::int64_t count, FaultSite site) {
    if (is_message_fault(config_.fault)) {
      note_opportunity(site);
      return false;
    }
    if (!should_fire(site) ||
        !detail::corrupt_reals(rng_, config_, data, count))
      return false;
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
///   * Inside the region, each visit calls maybe_corrupt_reals with its
///     unique key. Corruption randomness (element, bit) comes from a
///     per-key forked RNG, never from shared state, and counters
///     accumulate in the calling thread's PerThread shard. Hooks are
///     lock-free: no atomics, no mutexes.
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
  /// `injector` may be nullptr: the scope is inert and every hook
  /// returns false without recording anything.
  ParallelFaultScope(FaultInjector* injector, FaultSite site,
                     std::int64_t num_keys)
      : injector_(injector), site_(site) {
    if (injector_ == nullptr || num_keys <= 0) return;
    fire_.assign(static_cast<std::size_t>(num_keys), 0);
    epoch_ = injector_->scope_epochs_++;
    const FaultInjectorConfig& cfg = injector_->config_;
    // Inert for message fault classes (mirrors the serial maybe_corrupt*
    // hooks): opportunities count, nothing fires, no RNG draws.
    if (is_message_fault(cfg.fault)) return;
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

  /// Corruption hook for raw scalar storage, the parallel counterpart of
  /// FaultInjector::maybe_corrupt_reals: detail::corrupt_reals() with the
  /// key's own RNG. Thread-safe for distinct keys. U is float, double, or
  /// Half.
  template <class U>
  bool maybe_corrupt_reals(std::int64_t key, U* data, std::int64_t count) {
    if (fire_.empty()) return false;
    FaultInjectorStats& st = shards_.local();
    ++st.opportunities;
    ++st.site_opportunities[static_cast<int>(site_)];
    if (fire_[static_cast<std::size_t>(key)] == 0) return false;
    Rng rng = key_rng(injector_->config_.seed, epoch_, key);
    if (!detail::corrupt_reals(rng, injector_->config_, data, count))
      return false;
    ++st.events;
    ++st.site_events[static_cast<int>(site_)];
    return true;
  }

  /// Fold the per-thread shards into the injector's counters. Serial;
  /// idempotent (the destructor calls it too). Integer sums over a
  /// partition of the keys, so the result is independent of which thread
  /// visited which key.
  void merge() noexcept {
    if (injector_ == nullptr || merged_) return;
    injector_->stats_ = shards_.merged(injector_->stats_);
    merged_ = true;
  }

 private:
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
  std::vector<char> fire_;  ///< pre-drawn decision per key
  PerThread<FaultInjectorStats> shards_;
  bool merged_ = false;
};

}  // namespace lqcd
