// Fault-tolerant collectives: ProxyTree topology, Fletcher-32 checksums,
// bit-identity of the host-proxy tree allreduce, dead-rank rewiring at
// every tree position, bounded retransmits, structured degradation, the
// analytic traffic mirror (knc::allreduce_tree_work), the distributed
// BiCGstab against the single-node solve, and the fault hooks threaded
// through the halo exchange, the distributed BiCGstab and the Schwarz
// packed-matrix ABFT checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "lqcd/base/checksum.h"
#include "lqcd/gauge/gauge_field.h"
#include "lqcd/knc/work_model.h"
#include "lqcd/schwarz/schwarz.h"
#include "lqcd/solver/even_odd.h"
#include "lqcd/vnode/distributed_solver.h"

namespace lqcd {
namespace {

// ---------------------------------------------------------------------------
// ProxyTree topology
// ---------------------------------------------------------------------------

TEST(ProxyTree, BinaryHeapTopology) {
  const ProxyTree t(8, 2);
  EXPECT_EQ(t.num_ranks(), 8);
  EXPECT_EQ(t.fanout(), 2);
  EXPECT_EQ(t.parent(0), -1);
  EXPECT_EQ(t.parent(1), 0);
  EXPECT_EQ(t.parent(2), 0);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.parent(7), 3);
  EXPECT_EQ(t.children(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<int>{3, 4}));
  EXPECT_TRUE(t.children(7).empty());
  EXPECT_EQ(t.level(0), 0);
  EXPECT_EQ(t.level(2), 1);
  EXPECT_EQ(t.level(7), 3);
  EXPECT_EQ(t.depth(), 3);
  EXPECT_EQ(t.subtree_size(0), 8);
  EXPECT_EQ(t.subtree_size(1), 4);  // {1, 3, 4, 7}
  EXPECT_EQ(t.subtree_size(3), 2);  // {3, 7}
  EXPECT_EQ(t.subtree_size(7), 1);
  // Upward schedule: deepest level first, by rank within a level.
  EXPECT_EQ(t.bottom_up(), (std::vector<int>{7, 3, 4, 5, 6, 1, 2}));
}

TEST(ProxyTree, QuaternaryTreeAndEdgeCases) {
  const ProxyTree t(16, 4);
  for (int r = 1; r < 16; ++r) EXPECT_EQ(t.parent(r), (r - 1) / 4);
  EXPECT_EQ(t.children(0), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t.depth(), 2);
  EXPECT_EQ(t.subtree_size(0), 16);
  EXPECT_EQ(static_cast<int>(t.bottom_up().size()), 15);

  const ProxyTree one(1, 2);
  EXPECT_EQ(one.depth(), 0);
  EXPECT_TRUE(one.bottom_up().empty());

  EXPECT_THROW(ProxyTree(0, 2), Error);
  EXPECT_THROW(ProxyTree(8, 0), Error);
}

// ---------------------------------------------------------------------------
// Fletcher-32
// ---------------------------------------------------------------------------

TEST(Fletcher32, SplitInvariantAndOddLengths) {
  unsigned char data[37];
  for (std::size_t i = 0; i < sizeof data; ++i)
    data[i] = static_cast<unsigned char>(7 * i + 3);
  const std::uint32_t whole = fletcher32_bytes(data, sizeof data);
  // Any split of the byte stream — including at odd offsets — must give
  // the same checksum as the one-shot computation.
  for (std::size_t cut = 0; cut <= sizeof data; ++cut) {
    Fletcher32 f;
    f.update(data, cut);
    f.update(data + cut, sizeof data - cut);
    EXPECT_EQ(f.value(), whole) << "cut=" << cut;
  }
  Fletcher32 empty;
  EXPECT_EQ(empty.value(), 0u);
}

/// Per-word reference: both sums reduced mod 65535 after every 16-bit
/// little-endian word, an odd trailing byte zero-padded.
std::uint32_t fletcher32_reference(const std::vector<unsigned char>& data) {
  std::uint32_t a = 0, b = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    const std::uint32_t lo = data[i];
    const std::uint32_t hi = i + 1 < data.size() ? data[i + 1] : 0u;
    a = (a + (lo | (hi << 8))) % 65535u;
    b = (b + a) % 65535u;
  }
  return (b << 16) | a;
}

/// Fletcher32 fed `data` in pieces cut at the given byte offsets.
std::uint32_t fletcher32_split(const std::vector<unsigned char>& data,
                               std::vector<std::size_t> cuts) {
  std::sort(cuts.begin(), cuts.end());
  Fletcher32 f;
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    f.update(data.data() + at, cut - at);
    at = cut;
  }
  f.update(data.data() + at, data.size() - at);
  return f.value();
}

TEST(Fletcher32, MatchesPerWordReferenceOnAnySplit) {
  Rng rng(4711);
  auto random_bytes = [&rng](std::size_t n) {
    std::vector<unsigned char> data(n);
    for (auto& byte : data)
      byte = static_cast<unsigned char>(rng.uniform_u64(256));
    return data;
  };
  for (int trial = 0; trial < 60; ++trial) {
    // Random lengths, odd ones included, and random cuts across update().
    const auto n = static_cast<std::size_t>(rng.uniform_u64(5001));
    const std::vector<unsigned char> data = random_bytes(n);
    std::vector<std::size_t> cuts(
        static_cast<std::size_t>(rng.uniform_u64(7)));
    for (auto& cut : cuts)
      cut = static_cast<std::size_t>(rng.uniform_u64(n + 1));
    const std::uint32_t ref = fletcher32_reference(data);
    EXPECT_EQ(fletcher32_bytes(data.data(), n), ref) << "n=" << n;
    EXPECT_EQ(fletcher32_split(data, cuts), ref) << "n=" << n;
  }
  // All-0xFF words (65535 == 0 mod 65535), odd and even lengths.
  for (const std::size_t n : {1u, 2u, 3u, 4096u, 4097u}) {
    const std::vector<unsigned char> ones(n, 0xFF);
    EXPECT_EQ(fletcher32_bytes(ones.data(), n), fletcher32_reference(ones))
        << "n=" << n;
  }
  // Streams longer than the 2^20-word reduction block: all-0xFF (the
  // largest sums) and random, one-shot and cut at odd offsets.
  const std::size_t big = (std::size_t{1} << 21) + 2 * 12345 + 1;
  const std::vector<unsigned char> ones(big, 0xFF);
  EXPECT_EQ(fletcher32_bytes(ones.data(), big), fletcher32_reference(ones));
  EXPECT_EQ(fletcher32_split(ones, {(std::size_t{1} << 20) + 1}),
            fletcher32_reference(ones));
  const std::vector<unsigned char> noise = random_bytes(big);
  EXPECT_EQ(fletcher32_bytes(noise.data(), big), fletcher32_reference(noise));
  EXPECT_EQ(fletcher32_split(noise, {3, big / 2 + 1}),
            fletcher32_reference(noise));
}

TEST(Fletcher32, DetectsEverySingleBitFlip) {
  double payload[3] = {1.25, -7.5, 3.0e-3};
  const std::uint32_t clean = fletcher32_bytes(payload, sizeof payload);
  auto* bytes = reinterpret_cast<unsigned char*>(payload);
  for (std::size_t i = 0; i < sizeof payload; ++i)
    for (int b = 0; b < 8; ++b) {
      bytes[i] ^= static_cast<unsigned char>(1u << b);
      EXPECT_NE(fletcher32_bytes(payload, sizeof payload), clean)
          << "byte " << i << " bit " << b;
      bytes[i] ^= static_cast<unsigned char>(1u << b);
    }
}

// ---------------------------------------------------------------------------
// Fault-free tree allreduce: bit-identity + analytic traffic mirror
// ---------------------------------------------------------------------------

std::vector<double> irregular_parts(int n) {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    p[static_cast<std::size_t>(r)] =
        std::sin(1.0 + r) * std::pow(10.0, (r % 5) - 2);
  return p;
}

TEST(TreeAllreduce, FaultFreeBitIdenticalToTrivialSum) {
  for (const int n : {1, 2, 3, 8, 16, 33})
    for (const int fanout : {2, 3}) {
      const auto parts = irregular_parts(n);
      double trivial = 0.0;
      for (const double v : parts) trivial += v;
      CommStats comm;
      CollectiveConfig cfg;
      cfg.fanout = fanout;
      const auto res = tree_allreduce(parts, comm, cfg);
      EXPECT_EQ(res.status, CollectiveStatus::kOk);
      EXPECT_TRUE(res.complete);
      EXPECT_EQ(res.value, trivial) << "n=" << n << " fanout=" << fanout;
    }
}

TEST(TreeAllreduce, ComplexContributionsBitIdentical) {
  const int n = 12;
  std::vector<std::complex<double>> parts(n);
  for (int r = 0; r < n; ++r)
    parts[static_cast<std::size_t>(r)] = {std::sin(1.0 + r),
                                          std::cos(2.0 + r)};
  std::complex<double> trivial{};
  for (const auto& v : parts) trivial += v;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm);
  EXPECT_EQ(res.value, trivial);
}

TEST(TreeAllreduce, FaultFreeStatsMatchAnalyticWorkModel) {
  for (const int n : {2, 5, 8, 16, 31})
    for (const int fanout : {2, 3, 4}) {
      CommStats comm;
      CollectiveConfig cfg;
      cfg.fanout = fanout;
      const auto res = tree_allreduce(irregular_parts(n), comm, cfg);
      const auto w = knc::allreduce_tree_work(
          n, static_cast<double>(allreduce_entry_bytes<double>()), fanout);
      EXPECT_EQ(static_cast<double>(res.stats.total_messages()), w.messages)
          << "n=" << n << " fanout=" << fanout;
      EXPECT_EQ(static_cast<double>(res.stats.payload_bytes), w.bytes)
          << "n=" << n << " fanout=" << fanout;
      EXPECT_EQ(res.stats.tree_depth, w.depth);
      EXPECT_EQ(res.stats.up_hops, n - 1);
      EXPECT_EQ(res.stats.down_hops, n - 1);
      EXPECT_EQ(res.stats.retransmit_hops, 0);
      EXPECT_EQ(res.stats.rewire_hops, 0);
      EXPECT_EQ(comm.allreduce_messages, res.stats.total_messages());
      EXPECT_EQ(comm.allreduce_bytes, res.stats.payload_bytes);
      // Collective traffic must never leak into the halo counters.
      EXPECT_EQ(comm.messages, 0);
      EXPECT_EQ(comm.bytes, 0);
    }
}

TEST(TreeAllreduce, NonMessageInjectorConsumesNoOpportunities) {
  // A field-corruption injector attached to the collective is inert and
  // must not perturb its deterministic fault schedule.
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  const auto parts = irregular_parts(8);
  double trivial = 0.0;
  for (const double v : parts) trivial += v;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.value, trivial);
  EXPECT_EQ(inj.stats().opportunities, 0);
}

// ---------------------------------------------------------------------------
// Dead-rank rewiring
// ---------------------------------------------------------------------------

// Hop attempts consume injector opportunities in bottom_up() order, so
// first_opportunity = k kills sender bottom_up()[k]: sweeping k over
// [0, n-2] kills every non-root rank exactly once.
void sweep_every_death_position(int n) {
  const auto parts = irregular_parts(n);
  CommStats clean;
  const double exact = tree_allreduce(parts, clean).value;
  for (int k = 0; k + 1 < n; ++k) {
    FaultInjectorConfig fic;
    fic.fault = FaultClass::kRankDeath;
    fic.first_opportunity = k;
    fic.max_events = 1;
    FaultInjector inj(fic);
    CollectiveConfig cfg;
    cfg.injector = &inj;
    CommStats comm;
    const auto res = tree_allreduce(parts, comm, cfg);
    ASSERT_EQ(res.status, CollectiveStatus::kOk) << "n=" << n << " k=" << k;
    EXPECT_TRUE(res.complete);
    // Every contribution was recovered (replay or checkpoint fetch) and
    // the root reduces in rank order: the sum is BIT-identical, not
    // merely within 1e-12.
    EXPECT_EQ(res.value, exact) << "n=" << n << " k=" << k;
    EXPECT_EQ(res.stats.rank_deaths, 1);
    EXPECT_GE(res.stats.rewire_hops, 1);
    EXPECT_EQ(comm.rank_deaths, 1);
    EXPECT_GE(comm.rewire_hops, 1);
    EXPECT_EQ(inj.stats().events_at(FaultSite::kCollectiveHop), 1);
  }
}

TEST(TreeAllreduce, SingleDeathAtEveryPositionEightRanks) {
  sweep_every_death_position(8);
}

TEST(TreeAllreduce, SingleDeathAtEveryPositionSixteenRanks) {
  sweep_every_death_position(16);
}

TEST(TreeAllreduce, DeathWithoutCheckpointRecoveryReportsMissingRank) {
  const int n = 8;
  const auto parts = irregular_parts(n);
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kRankDeath;
  fic.first_opportunity = 0;  // kills bottom_up()[0] = rank 7, a leaf
  fic.max_events = 1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  cfg.recover_dead_contribution = false;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kOk);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.missing_ranks, 1);
  double survivors = 0.0;
  for (int r = 0; r < n - 1; ++r)
    survivors += parts[static_cast<std::size_t>(r)];
  EXPECT_EQ(res.value, survivors);
}

TEST(TreeAllreduce, CascadeDeathWithinBudgetStillExact) {
  // first_opportunity = 5 kills rank 1 (subtree {1,3,4,7}, all of whose
  // children already sent); the second death fires on child 4's replay
  // hop — a cascade the work stack must rewire through the checkpoint.
  const int n = 8;
  const auto parts = irregular_parts(n);
  CommStats clean;
  const double exact = tree_allreduce(parts, clean).value;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kRankDeath;
  fic.first_opportunity = 5;
  fic.max_events = 2;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  cfg.max_rank_deaths = 2;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kOk);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.value, exact);
  EXPECT_EQ(res.stats.rank_deaths, 2);
  EXPECT_EQ(comm.rank_deaths, 2);
}

TEST(TreeAllreduce, DoubleDeathOverBudgetDegradesStructured) {
  // Same double-death schedule with the default budget of one: a
  // structured kTooManyRankDeaths, never a hang or a silent wrong sum.
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kRankDeath;
  fic.first_opportunity = 5;
  fic.max_events = 2;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  const auto res = tree_allreduce(irregular_parts(8), comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kTooManyRankDeaths);
  EXPECT_FALSE(res.complete);
  EXPECT_STREQ(to_string(res.status), "too-many-rank-deaths");
}

// ---------------------------------------------------------------------------
// Drops and corruptions
// ---------------------------------------------------------------------------

TEST(TreeAllreduce, DropsRetransmitAndConverge) {
  const auto parts = irregular_parts(8);
  CommStats clean;
  const double exact = tree_allreduce(parts, clean).value;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.first_opportunity = 3;
  fic.max_events = 2;  // two consecutive drops of one hop, then delivery
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kOk);
  EXPECT_EQ(res.value, exact);
  EXPECT_EQ(res.stats.drops, 2);
  EXPECT_EQ(res.stats.retransmit_hops, 2);
  EXPECT_EQ(comm.retransmits, 2);
}

TEST(TreeAllreduce, DropStormExhaustsRetriesNeverHangs) {
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.max_events = -1;  // every attempt drops
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  const auto res = tree_allreduce(irregular_parts(8), comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kRetriesExhausted);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.missing_ranks, 7);  // only the root's own entry survives
  EXPECT_EQ(res.stats.retransmit_hops, cfg.max_retries);
}

TEST(TreeAllreduce, DetectedCorruptionRetransmitsExactly) {
  const auto parts = irregular_parts(8);
  CommStats clean;
  const double exact = tree_allreduce(parts, clean).value;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageCorrupt;
  fic.first_opportunity = 2;
  fic.max_events = 1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kOk);
  EXPECT_EQ(res.value, exact);
  EXPECT_EQ(res.stats.corruptions, 1);
  EXPECT_EQ(res.stats.retransmit_hops, 1);
}

TEST(TreeAllreduce, UndetectedCorruptionPropagatesSilently) {
  // With checksum verification off, the flipped payload is reduced as-is
  // — the counterexample motivating the ABFT checksums. All-zero
  // contributions make the single-bit flip unambiguous in the sum.
  const std::vector<double> parts(8, 0.0);
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageCorrupt;
  fic.first_opportunity = 0;
  fic.max_events = 1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  cfg.verify_checksums = false;
  CommStats comm;
  const auto res = tree_allreduce(parts, comm, cfg);
  EXPECT_EQ(res.status, CollectiveStatus::kOk);
  EXPECT_TRUE(res.complete);
  EXPECT_NE(res.value, 0.0);
  EXPECT_EQ(res.stats.corruptions, 1);
  EXPECT_EQ(res.stats.retransmit_hops, 0);
}

// ---------------------------------------------------------------------------
// Distributed layer: dot, halo exchange, BiCGstab
// ---------------------------------------------------------------------------

TEST(DistributedCollectives, DotCountsTreeTraffic) {
  const Geometry geom({4, 4, 4, 8});
  const VirtualGrid vg(geom, {2, 1, 1, 2});
  FermionField<double> x(geom.volume()), y(geom.volume());
  gaussian(x, 55);
  gaussian(y, 56);
  DistributedField<double> dx(vg), dy(vg);
  scatter(vg, x, dx);
  scatter(vg, y, dy);
  CommStats comm;
  const auto d = dot(vg, dx, dy, comm);
  EXPECT_NEAR(std::abs(d - dot(x, y)), 0.0, 1e-9 * std::abs(dot(x, y)));
  EXPECT_EQ(comm.allreduces, 1);
  const int nr = vg.num_ranks();
  EXPECT_EQ(comm.allreduce_messages, 2 * (nr - 1));
  const auto w = knc::allreduce_tree_work(
      nr,
      static_cast<double>(allreduce_entry_bytes<std::complex<double>>()));
  EXPECT_EQ(static_cast<double>(comm.allreduce_bytes), w.bytes);
  EXPECT_EQ(comm.messages, 0);  // halo counters untouched
}

TEST(DistributedCollectives, DotThrowsOnCollectiveFailure) {
  const Geometry geom({4, 4, 4, 8});
  const VirtualGrid vg(geom, {2, 1, 1, 2});
  DistributedField<double> dx(vg), dy(vg);
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.max_events = -1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  CommStats comm;
  EXPECT_THROW(dot(vg, dx, dy, comm, cfg), Error);
}

struct HaloFixture {
  Geometry geom{{4, 4, 4, 8}};
  GaugeField<double> gauge;
  VirtualGrid vg;
  DistributedField<double> in, out;

  HaloFixture()
      : gauge([&] {
          auto g = random_gauge_field<double>(geom, 0.5, 77);
          g.make_time_antiperiodic();
          return g;
        }()),
        vg(geom, {1, 1, 2, 2}),
        in(vg),
        out(vg) {
    FermionField<double> global(geom.volume());
    gaussian(global, 78);
    scatter(vg, global, in);
  }
};

TEST(DistributedCollectives, HaloDropRetransmitsBitIdentical) {
  HaloFixture f;
  DistributedWilsonClover<double> ref(f.vg, f.gauge, 0.2, 1.0);
  ref.apply(f.in, f.out);
  FermionField<double> expect(f.geom.volume());
  gather(f.vg, f.out, expect);

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.first_opportunity = 4;
  fic.max_events = 2;
  FaultInjector inj(fic);
  DistributedWilsonClover<double> dop(f.vg, f.gauge, 0.2, 1.0);
  dop.set_fault_injector(&inj);
  dop.apply(f.in, f.out);
  FermionField<double> got(f.geom.volume());
  gather(f.vg, f.out, got);
  sub(expect, got, got);
  EXPECT_EQ(norm(got), 0.0);

  const int geometry_messages = f.vg.num_ranks() * 2 * 2;  // 2 cut dims
  EXPECT_EQ(dop.comm().retransmits, 2);
  EXPECT_EQ(dop.comm().messages, geometry_messages + 2);
  EXPECT_EQ(dop.comm().halo_exchanges, 1);
  EXPECT_EQ(inj.stats().events_at(FaultSite::kHaloExchange), 2);
}

TEST(DistributedCollectives, HaloCorruptionDetectedAndRetransmitted) {
  HaloFixture f;
  DistributedWilsonClover<double> ref(f.vg, f.gauge, 0.2, 1.0);
  ref.apply(f.in, f.out);
  FermionField<double> expect(f.geom.volume());
  gather(f.vg, f.out, expect);

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageCorrupt;
  fic.first_opportunity = 7;
  fic.max_events = 1;
  FaultInjector inj(fic);
  DistributedWilsonClover<double> dop(f.vg, f.gauge, 0.2, 1.0);
  dop.set_fault_injector(&inj);
  dop.apply(f.in, f.out);
  FermionField<double> got(f.geom.volume());
  gather(f.vg, f.out, got);
  sub(expect, got, got);
  EXPECT_EQ(norm(got), 0.0);
  EXPECT_EQ(dop.comm().retransmits, 1);
}

TEST(DistributedCollectives, HaloNeighborDeathThrowsStructured) {
  HaloFixture f;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kRankDeath;
  fic.first_opportunity = 3;
  fic.max_events = 1;
  FaultInjector inj(fic);
  DistributedWilsonClover<double> dop(f.vg, f.gauge, 0.2, 1.0);
  dop.set_fault_injector(&inj);
  EXPECT_THROW(dop.apply(f.in, f.out), Error);
  EXPECT_EQ(dop.comm().rank_deaths, 1);
}

struct SolveFixture {
  Geometry geom{{4, 4, 4, 8}};
  GaugeField<double> gauge;
  VirtualGrid vg;
  DistributedField<double> b;
  BiCGstabParams params;

  SolveFixture()
      : gauge([&] {
          auto g = random_gauge_field<double>(geom, 0.5, 91);
          g.make_time_antiperiodic();
          return g;
        }()),
        vg(geom, {1, 1, 2, 2}),
        b(vg) {
    FermionField<double> global(geom.volume());
    gaussian(global, 92);
    scatter(vg, global, b);
    params.tolerance = 1e-8;
    params.max_iterations = 4000;
  }

  FermionField<double> solve(const CollectiveConfig& collectives,
                             DistributedSolveResult<double>* out = nullptr) {
    DistributedWilsonClover<double> op(vg, gauge, 0.3, 1.0);
    DistributedField<double> x(vg);
    const auto res = distributed_bicgstab(vg, op, b, x, params, collectives);
    EXPECT_TRUE(res.stats.converged);
    if (out != nullptr) *out = res;
    FermionField<double> global(geom.volume());
    gather(vg, x, global);
    return global;
  }
};

TEST(DistributedSolver, MatchesSingleNodeBiCGstab) {
  const Geometry geom({4, 4, 8, 8});
  const Checkerboard cb(geom);
  auto gauge = random_gauge_field<double>(geom, 0.5, 71);
  gauge.make_time_antiperiodic();
  const WilsonCloverOperator<double> op(geom, cb, gauge, 0.3, 1.0);
  const LinearOperator<double>& a = op;
  FermionField<double> b(geom.volume());
  gaussian(b, 72);
  BiCGstabParams p;
  p.tolerance = 1e-10;
  p.max_iterations = 4000;
  FermionField<double> x_ref(geom.volume());
  const auto st_ref = bicgstab_solve(a, b, x_ref, p);

  const VirtualGrid vg(geom, {1, 1, 2, 2});
  DistributedWilsonClover<double> dop(vg, gauge, 0.3, 1.0);
  DistributedField<double> db(vg), dx(vg);
  scatter(vg, b, db);
  const auto res = distributed_bicgstab(vg, dop, db, dx, p);

  EXPECT_TRUE(res.stats.converged);
  // Same iteration count (identical arithmetic up to rounding) ...
  EXPECT_NEAR(res.stats.iterations, st_ref.iterations, 2);
  // ... and the same solution.
  FermionField<double> x_dist(geom.volume()), r(geom.volume());
  gather(vg, dx, x_dist);
  op.apply(x_dist, r);
  sub(b, r, r);
  EXPECT_LT(norm(r) / norm(b), 2e-10);
  sub(x_ref, x_dist, x_dist);
  EXPECT_LT(norm(x_dist), 1e-6 * norm(x_ref));

  // Comm accounting: one halo exchange and 4 messages per rank per apply
  // (2 cut dims), and multiple allreduces per iteration (BiCGstab's
  // weakness).
  EXPECT_EQ(res.comm.halo_exchanges, res.stats.matvecs);
  EXPECT_EQ(res.comm.messages,
            res.stats.matvecs * vg.num_ranks() * 2 * 2);
  EXPECT_GT(res.comm.allreduces,
            4 * static_cast<std::int64_t>(res.stats.iterations));
}

TEST(DistributedCollectives, BicgstabFanoutInvariantBitwise) {
  // The tree reduces in rank order regardless of arity, so the whole
  // solve trajectory — every iterate — is bitwise independent of fanout.
  SolveFixture f;
  CollectiveConfig c2, c3;
  c3.fanout = 3;
  auto x2 = f.solve(c2);
  const auto x3 = f.solve(c3);
  sub(x3, x2, x2);
  EXPECT_EQ(norm(x2), 0.0);
}

TEST(DistributedCollectives, BicgstabSurvivesRankDeathBitwise) {
  SolveFixture f;
  auto clean = f.solve(CollectiveConfig{});

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kRankDeath;
  fic.first_opportunity = 5;  // mid-solve collective hop
  fic.max_events = 1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  DistributedSolveResult<double> res;
  const auto survived = f.solve(cfg, &res);
  sub(survived, clean, clean);
  EXPECT_EQ(norm(clean), 0.0);
  EXPECT_EQ(res.comm.rank_deaths, 1);
  EXPECT_GE(res.comm.rewire_hops, 1);
}

TEST(DistributedCollectives, BicgstabDropsRetransmitBitwise) {
  SolveFixture f;
  auto clean = f.solve(CollectiveConfig{});

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.first_opportunity = 10;
  fic.max_events = 3;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  DistributedSolveResult<double> res;
  const auto survived = f.solve(cfg, &res);
  sub(survived, clean, clean);
  EXPECT_EQ(norm(clean), 0.0);
  EXPECT_EQ(res.comm.retransmits, 3);
}

TEST(DistributedCollectives, BicgstabCollectiveStormThrows) {
  SolveFixture f;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kMessageDrop;
  fic.max_events = -1;
  FaultInjector inj(fic);
  CollectiveConfig cfg;
  cfg.injector = &inj;
  DistributedWilsonClover<double> op(f.vg, f.gauge, 0.3, 1.0);
  DistributedField<double> x(f.vg);
  EXPECT_THROW(distributed_bicgstab(f.vg, op, f.b, x, f.params, cfg),
               Error);
}

TEST(DistributedCollectives, IterateInjectorHitsDistributedSolverSite) {
  SolveFixture f;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kSpinorBitFlip;
  fic.bit = 2;  // low mantissa bit: perturbs without derailing the solve
  fic.first_opportunity = 1;
  fic.max_events = 1;
  FaultInjector inj(fic);
  DistributedWilsonClover<double> op(f.vg, f.gauge, 0.3, 1.0);
  DistributedField<double> x(f.vg);
  const auto res = distributed_bicgstab(f.vg, op, f.b, x, f.params,
                                        CollectiveConfig{}, &inj);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(inj.stats().events_at(FaultSite::kDistributedSolver), 1);
  EXPECT_EQ(inj.stats().events, 1);
}

TEST(DistributedSolver, NonFiniteResidualEndsWithNanDetected) {
  // An fp16-overflow upset puts an infinity into the recursive residual
  // at the second iteration; the solve must stop and say so, not run
  // its 4000-iteration budget out on NaNs.
  SolveFixture f;
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kFp16Overflow;
  fic.first_opportunity = 1;
  fic.max_events = 1;
  FaultInjector inj(fic);
  DistributedWilsonClover<double> op(f.vg, f.gauge, 0.3, 1.0);
  DistributedField<double> x(f.vg);
  const auto res = distributed_bicgstab(f.vg, op, f.b, x, f.params,
                                        CollectiveConfig{}, &inj);
  ASSERT_EQ(inj.stats().events_at(FaultSite::kDistributedSolver), 1);
  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.breakdown, Breakdown::kNanDetected);
  EXPECT_GE(res.stats.nonfinite_events, 1);
  // Injected at iteration 1: detected by the end of iteration 3.
  EXPECT_LE(res.stats.iterations, 1 + 2);
}

TEST(DistributedSolver, ExhaustedBudgetEndsWithMaxIterations) {
  SolveFixture f;
  f.params.max_iterations = 3;
  DistributedWilsonClover<double> op(f.vg, f.gauge, 0.3, 1.0);
  DistributedField<double> x(f.vg);
  const auto res = distributed_bicgstab(f.vg, op, f.b, x, f.params);
  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.breakdown, Breakdown::kMaxIterations);
  EXPECT_EQ(res.stats.iterations, 3);
}

TEST(DistributedSolver, StopsWithTheSingleNodeCounters) {
  // One BiCGstab body: on the same problem and budget the distributed
  // solve stops for the same reason after the same work, global sums
  // included, as the single-node solve.
  SolveFixture f;
  f.params.max_iterations = 3;
  const Checkerboard cb(f.geom);
  const WilsonCloverOperator<double> op(f.geom, cb, f.gauge, 0.3, 1.0);
  const LinearOperator<double>& a = op;
  FermionField<double> b(f.geom.volume()), x(f.geom.volume());
  gather(f.vg, f.b, b);
  const SolverStats single = bicgstab_solve(a, b, x, f.params);

  DistributedWilsonClover<double> dop(f.vg, f.gauge, 0.3, 1.0);
  DistributedField<double> dx(f.vg);
  const SolverStats dist =
      distributed_bicgstab(f.vg, dop, f.b, dx, f.params).stats;
  EXPECT_EQ(dist.breakdown, single.breakdown);
  EXPECT_EQ(dist.iterations, single.iterations);
  EXPECT_EQ(dist.matvecs, single.matvecs);
  EXPECT_EQ(dist.global_sum_events, single.global_sum_events);
  EXPECT_GT(single.global_sum_events, 0);
}

// ---------------------------------------------------------------------------
// Schwarz packed-matrix ABFT checksums
// ---------------------------------------------------------------------------

struct SchwarzFixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<float> gauge;
  WilsonCloverOperator<float> op;
  DomainPartition part;

  SchwarzFixture()
      : geom({8, 8, 8, 8}),
        cb(geom),
        gauge([&] {
          auto gd = random_gauge_field<double>(geom, 0.7, 131);
          gd.make_time_antiperiodic();
          return convert<float>(gd);
        }()),
        op(geom, cb, gauge, 0.2f, 1.0f),
        part(geom, {4, 4, 4, 4}) {
    op.prepare_schur();
  }
};

template <class S>
void abft_detects_post_pack_flip(const SchwarzFixture& f) {
  SchwarzPreconditioner<S> m(f.part, f.op, SchwarzParams{});
  SchwarzSetup<S>& setup = *m.setup();
  EXPECT_EQ(setup.verify_checksums(), 0);  // pristine after packing

  FaultInjectorConfig fic;
  fic.fault = FaultClass::kGaugeBitFlip;
  fic.max_events = 1;
  FaultInjector inj(fic);
  EXPECT_TRUE(setup.corrupt_packed(inj));
  EXPECT_EQ(inj.stats().events_at(FaultSite::kPackedMatrices), 1);
  EXPECT_GT(setup.verify_checksums(), 0);  // the flip is detected
}

TEST(SchwarzAbft, DetectsGaugeBitFlipAfterPackHalf) {
  SchwarzFixture f;
  abft_detects_post_pack_flip<Half>(f);
}

TEST(SchwarzAbft, DetectsGaugeBitFlipAfterPackFloat) {
  SchwarzFixture f;
  abft_detects_post_pack_flip<float>(f);
}

}  // namespace
}  // namespace lqcd
