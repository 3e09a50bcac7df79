// Domain partition: tiling, coloring, local/global consistency, faces.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "lqcd/lattice/domain_partition.h"

namespace lqcd {
namespace {

TEST(DomainPartition, RejectsBadBlocks) {
  const Geometry g({8, 8, 8, 8});
  EXPECT_THROW(DomainPartition(g, {3, 4, 4, 4}), Error);  // odd block
  EXPECT_THROW(DomainPartition(g, {6, 4, 4, 4}), Error);  // not dividing
  EXPECT_THROW(DomainPartition(g, {8, 4, 4, 4}), Error);  // grid extent 1
}

TEST(DomainPartition, TilesLatticeExactly) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 4, 4});
  EXPECT_EQ(p.num_domains(), 16);
  EXPECT_EQ(p.domain_volume(), 256);
  std::vector<int> covered(static_cast<size_t>(g.volume()), 0);
  for (int d = 0; d < p.num_domains(); ++d)
    for (std::int32_t l = 0; l < p.domain_volume(); ++l)
      covered[static_cast<size_t>(p.global_site(d, l))]++;
  for (const int c : covered) EXPECT_EQ(c, 1);
}

TEST(DomainPartition, SiteMapsAreInverse) {
  const Geometry g({8, 4, 8, 8});
  const DomainPartition p(g, {4, 2, 4, 4});
  for (std::int32_t full = 0; full < g.volume(); ++full) {
    const int d = p.domain_of_site(full);
    const std::int32_t l = p.local_of_site(full);
    EXPECT_EQ(p.global_site(d, l), full);
  }
}

TEST(DomainPartition, LocalOrderingIsEvenThenOdd) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 4, 4});
  const std::int32_t hv = p.domain_half_volume();
  for (int d = 0; d < p.num_domains(); ++d)
    for (std::int32_t l = 0; l < p.domain_volume(); ++l) {
      const int parity = g.parity(p.global_site(d, l));
      EXPECT_EQ(parity, l < hv ? 0 : 1) << "d=" << d << " l=" << l;
    }
}

TEST(DomainPartition, NeighborDomainsHaveOppositeColor) {
  const Geometry g({8, 8, 8, 16});
  const DomainPartition p(g, {4, 4, 4, 8});
  for (int d = 0; d < p.num_domains(); ++d)
    for (int mu = 0; mu < kNumDims; ++mu)
      for (Dir dir : {Dir::kForward, Dir::kBackward}) {
        const int nd = p.neighbor_domain(d, mu, dir);
        EXPECT_NE(p.color(d), p.color(nd));
      }
}

TEST(DomainPartition, ColorsSplitDomainsInHalf) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 4, 4});
  EXPECT_EQ(p.domains_of_color(0).size(), 8u);
  EXPECT_EQ(p.domains_of_color(1).size(), 8u);
}

TEST(DomainPartition, LocalNeighborsMatchGlobalGeometry) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 4, 4});
  for (int d = 0; d < p.num_domains(); ++d)
    for (std::int32_t l = 0; l < p.domain_volume(); ++l) {
      const std::int32_t full = p.global_site(d, l);
      for (int mu = 0; mu < kNumDims; ++mu)
        for (Dir dir : {Dir::kForward, Dir::kBackward}) {
          const std::int32_t gn = g.neighbor(full, mu, dir);
          const std::int32_t ln = p.local_neighbor(l, mu, dir);
          if (ln >= 0) {
            // In-domain hop: local table must agree with global geometry.
            EXPECT_EQ(p.global_site(d, ln), gn);
          } else {
            // Boundary-crossing hop: the global neighbor must live in the
            // neighboring domain.
            EXPECT_EQ(p.domain_of_site(gn), p.neighbor_domain(d, mu, dir));
          }
        }
    }
}

TEST(DomainPartition, FaceSizesMatchBlockGeometry) {
  const Geometry g({8, 8, 8, 16});
  const DomainPartition p(g, {4, 4, 4, 8});
  const std::int32_t vd = p.domain_volume();
  for (int mu = 0; mu < kNumDims; ++mu) {
    EXPECT_EQ(p.face_size(mu), vd / p.block()[static_cast<size_t>(mu)]);
    EXPECT_EQ(p.face_sites(mu, Dir::kForward).size(),
              static_cast<size_t>(p.face_size(mu)));
    EXPECT_EQ(p.face_sites(mu, Dir::kBackward).size(),
              static_cast<size_t>(p.face_size(mu)));
  }
}

TEST(DomainPartition, FaceSitesAreOnTheRightPlane) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 4, 4});
  for (int mu = 0; mu < kNumDims; ++mu) {
    for (const std::int32_t l : p.face_sites(mu, Dir::kForward))
      EXPECT_EQ(p.local_coord(l)[static_cast<size_t>(mu)],
                p.block()[static_cast<size_t>(mu)] - 1);
    for (const std::int32_t l : p.face_sites(mu, Dir::kBackward))
      EXPECT_EQ(p.local_coord(l)[static_cast<size_t>(mu)], 0);
  }
}

TEST(DomainPartition, FlatFaceListFollowsFaceBufferOrder) {
  const Geometry g({8, 4, 8, 16});
  const DomainPartition p(g, {4, 2, 2, 4});
  // face_sites() is every face back to back, mu-major, forward first;
  // each face view and its partner view sit at face_offset().
  std::vector<std::int32_t> expect;
  for (int mu = 0; mu < kNumDims; ++mu)
    for (const Dir dir : {Dir::kForward, Dir::kBackward}) {
      EXPECT_EQ(p.face_offset(mu, dir), static_cast<int>(expect.size()));
      const auto face = p.face_sites(mu, dir);
      EXPECT_EQ(face.data(), p.face_sites().data() + expect.size());
      EXPECT_EQ(p.face_partners(mu, dir).size(), face.size());
      for (std::size_t i = 1; i < face.size(); ++i)
        EXPECT_LT(face[i - 1], face[i]);  // increasing local order
      expect.insert(expect.end(), face.begin(), face.end());
    }
  ASSERT_EQ(p.face_sites().size(), expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                         p.face_sites().begin()));
}

TEST(DomainPartition, PartnerIsTheSiteAcrossTheFace) {
  // Grid extents 2 and 4: with 2 domains in a direction the forward and
  // backward neighbors coincide.
  for (const auto& [dims, block] :
       {std::pair{Coord{8, 8, 8, 8}, Coord{4, 4, 4, 4}},
        std::pair{Coord{8, 4, 8, 16}, Coord{4, 2, 2, 4}}}) {
    const Geometry g(dims);
    const DomainPartition p(g, block);
    for (int d = 0; d < p.num_domains(); ++d)
      for (int mu = 0; mu < kNumDims; ++mu)
        for (const Dir dir : {Dir::kForward, Dir::kBackward}) {
          const auto face = p.face_sites(mu, dir);
          const auto partners = p.face_partners(mu, dir);
          const int nbr = p.neighbor_domain(d, mu, dir);
          for (std::size_t i = 0; i < face.size(); ++i)
            EXPECT_EQ(p.global_site(nbr, partners[i]),
                      g.neighbor(p.global_site(d, face[i]), mu, dir))
                << "d " << d << " mu " << mu << " site " << face[i];
        }
  }
}

TEST(DomainPartition, HaloSourcesListEachIncomingFaceOnceByProducer) {
  const Geometry g({8, 4, 8, 16});
  const DomainPartition p(g, {4, 2, 2, 4});
  for (int d = 0; d < p.num_domains(); ++d) {
    const auto& src = p.halo_sources(d);
    std::set<std::pair<int, int>> faces;  // (mu, forward)
    for (std::size_t k = 0; k < src.size(); ++k) {
      const HaloSource& h = src[k];
      faces.insert({h.mu, h.dir == Dir::kForward ? 1 : 0});
      // The domain behind d packed its forward face toward d; the one
      // ahead of d its backward face.
      const Dir toward_producer =
          h.dir == Dir::kForward ? Dir::kBackward : Dir::kForward;
      EXPECT_EQ(h.producer, p.neighbor_domain(d, h.mu, toward_producer));
      if (k > 0) {
        const HaloSource& prev = src[k - 1];
        // By producer; ties keep mu order, forward before backward.
        EXPECT_TRUE(prev.producer < h.producer ||
                    (prev.producer == h.producer &&
                     (prev.mu < h.mu ||
                      (prev.mu == h.mu && prev.dir == Dir::kForward))))
            << "d " << d << " entry " << k;
      }
    }
    EXPECT_EQ(faces.size(), static_cast<std::size_t>(2 * kNumDims));
  }
}

TEST(DomainPartition, LocalCoordIndexRoundTrip) {
  const Geometry g({8, 8, 8, 8});
  const DomainPartition p(g, {4, 4, 2, 4});
  for (std::int32_t l = 0; l < p.domain_volume(); ++l)
    EXPECT_EQ(p.local_index(p.local_coord(l)), l);
}

TEST(DomainPartition, PaperDomainSizeWorkingSet) {
  // Paper Sec. III-B: an 8x4^3 domain in single precision has
  // 7 half-lattice spinors (7 * 24 kB), links 144 kB, clover 144 kB.
  const Geometry g({16, 8, 8, 8});
  const DomainPartition p(g, {8, 4, 4, 4});
  EXPECT_EQ(p.domain_volume(), 512);
  const std::int64_t spinor_half_bytes =
      p.domain_half_volume() * 24 * static_cast<std::int64_t>(sizeof(float));
  EXPECT_EQ(spinor_half_bytes, 24 * 1024);
  const std::int64_t link_bytes =
      static_cast<std::int64_t>(p.domain_volume()) * 4 * 18 * sizeof(float);
  EXPECT_EQ(link_bytes, 144 * 1024);
  const std::int64_t clover_bytes =
      static_cast<std::int64_t>(p.domain_volume()) * 72 * sizeof(float);
  EXPECT_EQ(clover_bytes, 144 * 1024);
  // Total working set: 7 spinors + links + clover = 456 kB < 512 kB L2.
  EXPECT_EQ(7 * spinor_half_bytes + link_bytes + clover_bytes, 456 * 1024);
}

}  // namespace
}  // namespace lqcd
