// Fault-tolerant collectives over the virtual rank grid.
//
// The paper routes all inter-KNC traffic through one communicating core
// per chip and a host-proxy tree (Sec. V). This header functionally
// emulates that allreduce hop by hop: every virtual rank reduces its
// subtree's contributions and forwards them up a ProxyTree; the root
// (rank 0, the host proxy) completes the sum and broadcasts it back down.
//
// Messages are ITEMIZED — a hop carries (rank, value) entries for the
// sender's whole subtree rather than a pre-reduced scalar. That costs
// subtree-proportional bytes (counted, and mirrored analytically by
// knc::allreduce_tree_work) and buys two properties at once:
//   * bit-identity: the root reduces entries in rank order from zero,
//     executing exactly the flat `for r: acc += part[r]` of the trivial
//     sum, so the fault-free tree result is bit-identical to it;
//   * local recovery: after a failure the survivors know precisely which
//     leaf entries are missing and replay only those.
//
// Every hop is a FaultInjector site (FaultSite::kCollectiveHop):
//   * kMessageDrop    — the hop times out; retried with bounded backoff,
//                       kRetriesExhausted after max_retries.
//   * kMessageCorrupt — the payload arrives bit-flipped; the Fletcher-32
//                       payload checksum exposes it and the hop is
//                       retried (with verification disabled the corrupt
//                       value is silently reduced — the ABFT motivation).
//   * kRankDeath      — the sender dies mid-hop. Its parent adopts the
//                       orphaned children, which replay their buffered
//                       payloads directly to the adopter; the dead rank's
//                       own contribution is re-fetched from its host-side
//                       checkpoint (the PR-1 checkpoint/rollback tie-in).
//                       Every replayed hop is counted as a rewire hop —
//                       the measured recovery cost that replaces the
//                       cluster model's flat recovery_seconds constant.
// More simultaneous deaths than max_rank_deaths degrade gracefully into a
// structured kTooManyRankDeaths status (never a hang, never a silent
// wrong sum).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "lqcd/base/checksum.h"
#include "lqcd/base/error.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/vnode/virtual_grid.h"

namespace lqcd {

/// Communication accounting of the vnode layer. `messages`/`bytes` count
/// halo point-to-point traffic only (the quantities validated against the
/// cluster model's geometry formulas); collective traffic is itemized
/// separately so the tree's extra hops never perturb the halo accounting.
struct CommStats {
  std::int64_t messages = 0;        ///< halo messages sent
  std::int64_t bytes = 0;           ///< halo payload bytes sent
  std::int64_t halo_exchanges = 0;  ///< halo exchange rounds completed
  std::int64_t allreduces = 0;      ///< collective operations performed
  std::int64_t allreduce_messages = 0;  ///< tree hops sent (up + down)
  std::int64_t allreduce_bytes = 0;     ///< payload bytes over those hops
  std::int64_t retransmits = 0;     ///< hops resent after drop/corruption
  std::int64_t rewire_hops = 0;     ///< hops replayed around dead ranks
  std::int64_t rank_deaths = 0;     ///< dead ranks detected and rewired
  void reset() { *this = CommStats{}; }

  /// Commutative merge, so per-thread CommStats shards accumulated outside
  /// a parallel region (the blessed pattern — see DESIGN.md "Concurrency &
  /// static-analysis gates") fold into one total deterministically.
  CommStats& operator+=(const CommStats& o) noexcept {
    messages += o.messages;
    bytes += o.bytes;
    halo_exchanges += o.halo_exchanges;
    allreduces += o.allreduces;
    allreduce_messages += o.allreduce_messages;
    allreduce_bytes += o.allreduce_bytes;
    retransmits += o.retransmits;
    rewire_hops += o.rewire_hops;
    rank_deaths += o.rank_deaths;
    return *this;
  }
};

inline CommStats operator+(CommStats a, const CommStats& b) noexcept {
  a += b;
  return a;
}

enum class CollectiveStatus {
  kOk,
  kRetriesExhausted,   ///< a hop kept failing past max_retries
  kTooManyRankDeaths,  ///< deaths exceeded the max_rank_deaths budget
};

inline const char* to_string(CollectiveStatus s) noexcept {
  switch (s) {
    case CollectiveStatus::kOk: return "ok";
    case CollectiveStatus::kRetriesExhausted: return "retries-exhausted";
    case CollectiveStatus::kTooManyRankDeaths: return "too-many-rank-deaths";
  }
  return "?";
}

struct CollectiveConfig {
  int fanout = 2;           ///< proxy-tree arity
  int max_retries = 3;      ///< retransmit budget per hop (drop/corrupt)
  int max_rank_deaths = 1;  ///< rewire budget before structured failure
  /// Verify the Fletcher-32 payload checksum on receive. Disabling it
  /// lets kMessageCorrupt propagate silently — the ABFT counterexample.
  bool verify_checksums = true;
  /// Re-fetch a dead rank's own contribution from its host-side
  /// checkpoint (one extra rewire hop). When false the sum completes
  /// with the surviving contribution set only (result.complete = false).
  bool recover_dead_contribution = true;
  /// Per-hop fault site; nullptr (or a non-message fault class) leaves
  /// the collective fault-free and consumes no injector opportunities.
  FaultInjector* injector = nullptr;
};

/// Per-call emulation record. Fault-free: up_hops = down_hops = n-1 and
/// payload_bytes matches knc::allreduce_tree_work exactly.
struct CollectiveStats {
  int ranks = 0;
  int fanout = 2;
  int tree_depth = 0;
  std::int64_t up_hops = 0;          ///< first-attempt upward sends
  std::int64_t down_hops = 0;        ///< broadcast hops to survivors
  std::int64_t retransmit_hops = 0;  ///< retry attempts (drop/corrupt)
  std::int64_t rewire_hops = 0;      ///< replayed hops + checkpoint fetches
  std::int64_t payload_bytes = 0;    ///< bytes over ALL attempts
  int drops = 0;
  int corruptions = 0;
  int rank_deaths = 0;

  std::int64_t total_messages() const noexcept {
    return up_hops + down_hops + retransmit_hops + rewire_hops;
  }
};

/// Measured recovery cost of the rewire protocol: hops replayed x the
/// per-hop latency. Feed cluster::NodeFaultSpec::rewire_hops /
/// rewire_rework_seconds with this instead of a flat recovery constant.
inline double rewire_seconds(const CollectiveStats& s,
                             double hop_seconds) noexcept {
  return static_cast<double>(s.rewire_hops) * hop_seconds;
}

template <class T>
struct AllreduceResult {
  T value{};
  CollectiveStatus status = CollectiveStatus::kOk;
  bool complete = true;   ///< every rank's contribution made it into value
  int missing_ranks = 0;  ///< contributions absent from value
  CollectiveStats stats;
};

/// Bytes one itemized (rank, value) payload entry occupies on the wire:
/// the value plus a 4-byte rank tag.
template <class T>
constexpr std::int64_t allreduce_entry_bytes() noexcept {
  return static_cast<std::int64_t>(sizeof(T)) + 4;
}

/// How one message of the vnode layer ended.
enum class SendOutcome { kDelivered, kSenderDied, kRetriesExhausted };

struct SendResult {
  SendOutcome outcome = SendOutcome::kDelivered;
  int attempts = 0;     ///< transmissions, the first one included
  int drops = 0;        ///< attempts lost in the fabric
  int corruptions = 0;  ///< attempts that arrived bit-flipped
  /// Delivered with its first byte flipped: checksum verification was
  /// off, so the corruption went unnoticed.
  bool silent_flip = false;
};

/// The retransmit loop of every message the vnode layer sends — a proxy-
/// tree hop or a halo face. Each attempt is one FaultInjector opportunity
/// at `site`; an unarmed injector (nullptr or a non-message class)
/// delivers at the first attempt and consumes none. A kRankDeath fault
/// ends the message with kSenderDied. A kMessageDrop, or a kMessageCorrupt
/// that the Fletcher-32 payload checksum exposes, is retried up to
/// `max_retries` times, then ends with kRetriesExhausted. With
/// `verify_checksums` off a corrupted attempt is delivered as is. The
/// caller counts the attempts and reacts to the outcome.
inline SendResult send_message(const void* payload, std::size_t bytes,
                               FaultInjector* injector, FaultSite site,
                               int max_retries,
                               bool verify_checksums = true) {
  LQCD_CHECK_MSG(bytes > 0, "send_message: empty payload");
  SendResult res;
  const bool armed =
      injector != nullptr && is_message_fault(injector->config().fault);
  for (;;) {
    ++res.attempts;
    if (!armed || !injector->maybe_fault(site)) return res;
    const FaultClass fc = injector->config().fault;
    if (fc == FaultClass::kRankDeath) {
      res.outcome = SendOutcome::kSenderDied;
      return res;
    }
    if (fc == FaultClass::kMessageDrop) {
      ++res.drops;
    } else {  // kMessageCorrupt
      ++res.corruptions;
      // Flip one bit in transit and check the Fletcher-32 checksum that
      // travels with the message.
      const auto* p = static_cast<const unsigned char*>(payload);
      std::vector<unsigned char> wire(p, p + bytes);
      const std::uint32_t sent = fletcher32_bytes(wire.data(), bytes);
      wire[0] ^= 1u;
      if (!verify_checksums || fletcher32_bytes(wire.data(), bytes) == sent) {
        res.silent_flip = true;
        return res;
      }
      // Detected: discard and retransmit, like a drop.
    }
    if (res.attempts > max_retries) {
      res.outcome = SendOutcome::kRetriesExhausted;
      return res;
    }
  }
}

/// Fault-tolerant allreduce of one scalar contribution per virtual rank
/// over the host-proxy tree. Fault-free, the returned value is
/// bit-identical to `acc = T{}; for (r) acc += contributions[r];`.
template <class T>
AllreduceResult<T> tree_allreduce(const std::vector<T>& contributions,
                                  CommStats& comm,
                                  const CollectiveConfig& cfg = {}) {
  const int n = static_cast<int>(contributions.size());
  LQCD_CHECK_MSG(n >= 1, "tree_allreduce needs >= 1 contribution");
  AllreduceResult<T> res;
  res.stats.ranks = n;
  res.stats.fanout = cfg.fanout;
  ++comm.allreduces;

  const ProxyTree tree(n, cfg.fanout);
  res.stats.tree_depth = tree.depth();

  // Per-rank emulation state. carry[r]: the subtree entry ranks r has
  // buffered (its own plus everything its children delivered) — kept
  // after sending so a rewire can replay it. kids[r]: r's CURRENT
  // children, updated as orphans are adopted. flipped[r]: rank r's entry
  // passed through an undetected corruption somewhere en route.
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  std::vector<char> flipped(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> carry(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> kids(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) carry[static_cast<std::size_t>(r)] = {r};
  for (int r = 1; r < n; ++r)
    kids[static_cast<std::size_t>(tree.parent(r))].push_back(r);

  // Root-side collection: entry slot per rank, filled as payloads arrive.
  std::vector<char> have(static_cast<std::size_t>(n), 0);
  have[0] = 1;  // the root's own contribution never travels

  auto payload_values = [&](const std::vector<int>& entry_ranks) {
    std::vector<T> v;
    v.reserve(entry_ranks.size());
    for (const int e : entry_ranks)
      v.push_back(contributions[static_cast<std::size_t>(e)]);
    return v;
  };
  auto deliver = [&](const std::vector<int>& entry_ranks, int dest,
                     bool silent_flip) {
    if (dest == 0) {
      for (const int e : entry_ranks) have[static_cast<std::size_t>(e)] = 1;
    } else {
      auto& c = carry[static_cast<std::size_t>(dest)];
      c.insert(c.end(), entry_ranks.begin(), entry_ranks.end());
    }
    if (silent_flip) flipped[static_cast<std::size_t>(entry_ranks.front())] = 1;
  };

  // Upward pass: deepest senders first, so every sender has already
  // received its (possibly adopted) children's payloads, and every
  // sender's parent is still unprocessed — hence adoptable.
  struct Send {
    int sender;
    int dest;
    bool rewire;
  };
  for (const int s : tree.bottom_up()) {
    if (!alive[static_cast<std::size_t>(s)]) continue;
    std::vector<Send> work{{s, tree.parent(s), false}};
    while (!work.empty() && res.status == CollectiveStatus::kOk) {
      const Send snd = work.back();
      work.pop_back();
      if (!alive[static_cast<std::size_t>(snd.sender)]) continue;
      const auto& entry_ranks = carry[static_cast<std::size_t>(snd.sender)];
      const std::vector<T> values = payload_values(entry_ranks);
      const SendResult sent = send_message(
          values.data(), values.size() * sizeof(T), cfg.injector,
          FaultSite::kCollectiveHop, cfg.max_retries, cfg.verify_checksums);
      ++(snd.rewire ? res.stats.rewire_hops : res.stats.up_hops);
      res.stats.retransmit_hops += sent.attempts - 1;
      res.stats.payload_bytes += sent.attempts *
                                 static_cast<std::int64_t>(entry_ranks.size()) *
                                 allreduce_entry_bytes<T>();
      res.stats.drops += sent.drops;
      res.stats.corruptions += sent.corruptions;
      switch (sent.outcome) {
        case SendOutcome::kDelivered:
          deliver(entry_ranks, snd.dest, sent.silent_flip);
          break;
        case SendOutcome::kRetriesExhausted:
          res.status = CollectiveStatus::kRetriesExhausted;
          break;
        case SendOutcome::kSenderDied: {
          alive[static_cast<std::size_t>(snd.sender)] = 0;
          ++res.stats.rank_deaths;
          if (res.stats.rank_deaths > cfg.max_rank_deaths) {
            res.status = CollectiveStatus::kTooManyRankDeaths;
            break;
          }
          // Parent adoption: the dead sender's buffered subtree payloads
          // died with it. Its current children rewire to snd.dest and
          // replay their own buffers (each replay is a fresh hop — and a
          // fresh fault opportunity, so deaths can cascade). Entries no
          // surviving child can replay — the dead rank's own, plus
          // anything it had already recovered from earlier deaths — are
          // re-fetched from the host-side checkpoint store (one rewire
          // hop, host-local, so no fault opportunity).
          auto& orphans = kids[static_cast<std::size_t>(snd.sender)];
          std::vector<char> covered(static_cast<std::size_t>(n), 0);
          for (const int c : orphans) {
            if (!alive[static_cast<std::size_t>(c)]) continue;
            for (const int e : carry[static_cast<std::size_t>(c)])
              covered[static_cast<std::size_t>(e)] = 1;
            work.push_back({c, snd.dest, true});
            kids[static_cast<std::size_t>(snd.dest)].push_back(c);
          }
          orphans.clear();
          if (cfg.recover_dead_contribution) {
            std::vector<int> fetch;
            for (const int e : carry[static_cast<std::size_t>(snd.sender)])
              if (!covered[static_cast<std::size_t>(e)]) fetch.push_back(e);
            if (!fetch.empty()) {
              ++res.stats.rewire_hops;
              res.stats.payload_bytes +=
                  static_cast<std::int64_t>(fetch.size()) *
                  allreduce_entry_bytes<T>();
              deliver(fetch, snd.dest, false);
            }
          }
          break;
        }
      }
    }
    if (res.status != CollectiveStatus::kOk) break;
  }

  // Root reduction, in rank order from zero — the exact operation
  // sequence of the trivial linear sum, hence bit-identical fault-free.
  T acc{};
  for (int r = 0; r < n; ++r) {
    if (have[static_cast<std::size_t>(r)]) {
      T v = contributions[static_cast<std::size_t>(r)];
      if (flipped[static_cast<std::size_t>(r)]) {
        unsigned char raw[sizeof(T)];
        std::memcpy(raw, &v, sizeof(T));
        raw[0] ^= 1u;
        std::memcpy(&v, raw, sizeof(T));
      }
      acc += v;
    } else {
      ++res.missing_ranks;
    }
  }
  res.value = acc;
  res.complete = res.missing_ranks == 0;

  // Downward broadcast of the result to the surviving non-root ranks.
  if (res.status == CollectiveStatus::kOk) {
    for (int r = 1; r < n; ++r)
      if (alive[static_cast<std::size_t>(r)]) ++res.stats.down_hops;
    res.stats.payload_bytes +=
        res.stats.down_hops * allreduce_entry_bytes<T>();
  }

  comm.allreduce_messages += res.stats.total_messages();
  comm.allreduce_bytes += res.stats.payload_bytes;
  comm.retransmits += res.stats.retransmit_hops;
  comm.rewire_hops += res.stats.rewire_hops;
  comm.rank_deaths += res.stats.rank_deaths;
  return res;
}

}  // namespace lqcd
