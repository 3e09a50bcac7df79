// Decomposition of the lattice into rectangular domains (Schwarz blocks).
//
// The lattice is tiled by identical blocks (default 8x4x4x4, the paper's
// L2-resident choice, Sec. III-B). Domains are two-colored like a
// checkerboard of blocks — the multiplicative Schwarz method alternates
// between the colors, and within one color all block solves are
// independent (paper Sec. III-D).
//
// Because every domain has the same block shape and an even-aligned
// origin, the local site ordering (even sites first, then odd — matching
// the global parity), the local neighbor table and the face tables are
// shared by all domains; only the local->global site map, the neighbor
// domains and the halo order are per-domain. None of it depends on the
// precision the Schwarz matrices are stored in, so it is built once here.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "lqcd/lattice/geometry.h"

namespace lqcd {

/// One face buffer a destination domain's halo update consumes: the
/// (mu, dir) face that domain `producer` packed toward it.
struct HaloSource {
  int producer;
  int mu;
  Dir dir;
};

class DomainPartition {
 public:
  /// Each lattice dimension must be divisible by the block extent, and the
  /// resulting domain-grid extent must be even (required for two-coloring
  /// of the multiplicative method, as in Lüscher's SAP). Throws
  /// lqcd::Error otherwise (check_tiling()).
  DomainPartition(const Geometry& geom, const Coord& block);

  /// The constructor's tiling rule on its own: throws lqcd::Error unless
  /// `block` tiles `geom` into an even domain grid of even blocks.
  static void check_tiling(const Geometry& geom, const Coord& block);

  const Geometry& geometry() const noexcept { return *geom_; }
  const Coord& block() const noexcept { return block_; }
  const Coord& grid() const noexcept { return grid_; }

  int num_domains() const noexcept { return num_domains_; }
  std::int32_t domain_volume() const noexcept { return block_volume_; }
  std::int32_t domain_half_volume() const noexcept {
    return block_volume_ / 2;
  }

  /// Two-coloring: 0 (black) or 1 (white).
  int color(int domain) const noexcept {
    return colors_[static_cast<std::size_t>(domain)];
  }
  const std::vector<int>& domains_of_color(int color) const noexcept {
    return by_color_[static_cast<std::size_t>(color)];
  }

  /// Global (full-lattice) site index of local site `l` of `domain`.
  /// Local ordering: even parity sites first (lexicographic in local
  /// coords), then odd.
  std::int32_t global_site(int domain, std::int32_t l) const noexcept {
    return sites_[static_cast<std::size_t>(domain) *
                      static_cast<std::size_t>(block_volume_) +
                  static_cast<std::size_t>(l)];
  }

  /// The domain's global sites in local order: global_site(domain, l) ==
  /// domain_sites(domain)[l].
  const std::int32_t* domain_sites(int domain) const noexcept {
    return sites_.data() + static_cast<std::size_t>(domain) *
                               static_cast<std::size_t>(block_volume_);
  }

  /// Local neighbor of local site l in direction (mu, dir), or -1 when the
  /// hop crosses the domain boundary. Shared by all domains.
  std::int32_t local_neighbor(std::int32_t l, int mu, Dir dir) const noexcept {
    const std::size_t base = static_cast<std::size_t>(l) * 2 * kNumDims +
                             static_cast<std::size_t>(mu) * 2;
    return local_nbr_[base + (dir == Dir::kForward ? 0 : 1)];
  }

  /// The whole neighbor table, [local][mu][dir] with the forward hop
  /// first: local_neighbor(l, mu, dir) ==
  /// local_neighbors()[(l * kNumDims + mu) * 2 + (dir == kForward ? 0 : 1)].
  const std::int32_t* local_neighbors() const noexcept {
    return local_nbr_.data();
  }

  /// Domain that owns a full-lattice site, and its local index there.
  int domain_of_site(std::int32_t full) const noexcept {
    return site_domain_[static_cast<std::size_t>(full)];
  }
  std::int32_t local_of_site(std::int32_t full) const noexcept {
    return site_local_[static_cast<std::size_t>(full)];
  }

  /// Neighbor domain in direction (mu, dir) (periodic in the domain grid).
  int neighbor_domain(int domain, int mu, Dir dir) const noexcept {
    const std::size_t base = static_cast<std::size_t>(domain) * 2 * kNumDims +
                             static_cast<std::size_t>(mu) * 2;
    return domain_nbr_[base + (dir == Dir::kForward ? 0 : 1)];
  }

  /// Local indices of the sites on a face of the block: face(mu, fwd) is
  /// the x_mu == block_mu - 1 plane, face(mu, bwd) the x_mu == 0 plane,
  /// each in increasing local order. Shared by all domains; a view into
  /// face_sites().
  std::span<const std::int32_t> face_sites(int mu, Dir dir) const noexcept {
    return face_span(face_sites_, mu, dir);
  }

  /// Every face site, back to back in face-buffer order: mu-major, the
  /// forward face before the backward one. Face-buffer entry p (a packed
  /// half spinor) belongs to local site face_sites()[p].
  std::span<const std::int32_t> face_sites() const noexcept {
    return face_sites_;
  }

  /// Position of face (mu, dir) in face_sites().
  std::int32_t face_offset(int mu, Dir dir) const noexcept {
    return face_offset_[face_slot(mu, dir)];
  }

  /// Number of sites on a (mu) face.
  std::int32_t face_size(int mu) const noexcept {
    return face_size_[static_cast<std::size_t>(mu)];
  }

  /// Sites per face, by mu (the face_size argument of the boundary pack).
  const std::int32_t* face_sizes() const noexcept { return face_size_.data(); }

  /// Partner map of face (mu, dir): entry i is the local site, in the
  /// neighbor domain across that face, that face site i couples to — the
  /// same block coordinates with x_mu on the opposite plane.
  std::span<const std::int32_t> face_partners(int mu, Dir dir) const noexcept {
    return face_span(partners_, mu, dir);
  }

  /// The 2 * kNumDims incoming faces of destination domain d, in the
  /// order its halo update adds them: by producer index, then mu, then
  /// forward before backward. That is the per-site addition order of a
  /// serial loop over producers (then mu, then direction), so a halo
  /// update run in parallel over destinations gives the same bits at
  /// every thread count.
  const std::array<HaloSource, 2 * kNumDims>& halo_sources(
      int d) const noexcept {
    return halo_sources_[static_cast<std::size_t>(d)];
  }

  /// In-domain hops of one parity -> other parity half dslash (the hops
  /// that stay inside the block), for flop accounting.
  std::int64_t hops_per_parity() const noexcept { return hops_per_parity_; }

  /// Block-local coordinate of a local site index (shared by all domains).
  const Coord& local_coord(std::int32_t l) const noexcept {
    return local_coord_[static_cast<std::size_t>(l)];
  }

  /// Local site index of a block-local coordinate.
  std::int32_t local_index(const Coord& c) const noexcept {
    const int lex =
        c[0] + block_[0] * (c[1] + block_[1] * (c[2] + block_[2] * c[3]));
    return local_of_lex_[static_cast<std::size_t>(lex)];
  }

 private:
  static std::size_t face_slot(int mu, Dir dir) noexcept {
    return static_cast<std::size_t>(mu) * 2 + (dir == Dir::kForward ? 0 : 1);
  }
  std::span<const std::int32_t> face_span(
      const std::vector<std::int32_t>& flat, int mu, Dir dir) const noexcept {
    return std::span<const std::int32_t>(flat).subspan(
        static_cast<std::size_t>(face_offset(mu, dir)),
        static_cast<std::size_t>(face_size(mu)));
  }

  const Geometry* geom_;
  Coord block_{};
  Coord grid_{};
  int num_domains_ = 0;
  std::int32_t block_volume_ = 0;

  std::vector<Coord> local_coord_;        // [local] -> block coords
  std::vector<std::int32_t> local_of_lex_;  // [block lex] -> local
  std::vector<std::int32_t> sites_;       // [domain][local] -> global
  std::vector<std::int32_t> local_nbr_;   // [local][mu][dir] -> local or -1
  std::vector<int> colors_;               // [domain]
  std::vector<std::vector<int>> by_color_;
  std::vector<int> site_domain_;          // [global] -> domain
  std::vector<std::int32_t> site_local_;  // [global] -> local
  std::vector<int> domain_nbr_;           // [domain][mu][dir] -> domain
  std::vector<std::int32_t> face_sites_;  // face-buffer order -> local
  std::vector<std::int32_t> partners_;    // face-buffer order -> partner
  std::array<std::int32_t, 2 * kNumDims> face_offset_{};  // [mu*2+dirbit]
  std::array<std::int32_t, kNumDims> face_size_{};
  std::vector<std::array<HaloSource, 2 * kNumDims>> halo_sources_;
  std::int64_t hops_per_parity_ = 0;
};

}  // namespace lqcd
