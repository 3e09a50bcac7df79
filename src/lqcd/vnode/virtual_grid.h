// Virtual multi-node grid: a functional, in-process stand-in for the MPI
// rank grid (DESIGN.md Sec. 2 — the Stampede cluster substitution).
//
// The global lattice is split uniformly over ranks; fields are stored
// per-rank; the distributed operator exchanges *exactly* the messages the
// paper's multi-node implementation sends (projected half-spinors, with
// the link applied by whichever side owns it, Sec. III-A/III-E), so the
// byte counts feeding the network model are validated functionally, and
// distributed results are bit-comparable to single-"node" results.
#pragma once

#include <cstdint>
#include <vector>

#include "lqcd/lattice/geometry.h"

namespace lqcd {

/// Host-proxy reduction tree over the virtual ranks (paper Sec. V): the
/// per-chip communicating core forwards partial sums up a k-ary heap tree
/// rooted at rank 0 (the host proxy), then the result is broadcast back
/// down. parent(r) = (r-1)/fanout — a complete tree, so depth is
/// ceil(log_fanout) and every rank's position is implied by its index
/// (survivors can rewire around a dead rank without any coordination).
class ProxyTree {
 public:
  explicit ProxyTree(int num_ranks, int fanout = 2);

  int num_ranks() const noexcept { return num_ranks_; }
  int fanout() const noexcept { return fanout_; }
  /// Levels below the root of the deepest rank (0 for a 1-rank tree).
  int depth() const noexcept { return depth_; }

  /// Parent rank; -1 for the root (rank 0).
  int parent(int r) const noexcept {
    return parent_[static_cast<std::size_t>(r)];
  }
  const std::vector<int>& children(int r) const noexcept {
    return children_[static_cast<std::size_t>(r)];
  }
  int level(int r) const noexcept {
    return level_[static_cast<std::size_t>(r)];
  }
  /// Ranks in r's subtree, including r itself — the itemized-entry count
  /// of the upward message r sends.
  int subtree_size(int r) const noexcept {
    return subtree_[static_cast<std::size_t>(r)];
  }

  /// All non-root ranks ordered deepest level first (by rank within a
  /// level): the upward-pass send schedule. Processing senders in this
  /// order guarantees a rank has received all its children's payloads
  /// before it sends, and that every sender's parent is still pending.
  const std::vector<int>& bottom_up() const noexcept { return bottom_up_; }

 private:
  int num_ranks_ = 0;
  int fanout_ = 2;
  int depth_ = 0;
  std::vector<int> parent_, level_, subtree_;
  std::vector<std::vector<int>> children_;
  std::vector<int> bottom_up_;
};

class VirtualGrid {
 public:
  /// Each global dimension must be divisible by grid[mu]; the local
  /// extent must be >= 2 where the dimension is cut (a 1-site-deep local
  /// slab would make a site's forward and backward ghost the same
  /// message, which the real code never does either).
  VirtualGrid(const Geometry& global, const Coord& grid);

  const Geometry& global() const noexcept { return *global_; }
  const Coord& grid() const noexcept { return grid_; }
  int num_ranks() const noexcept { return num_ranks_; }
  std::int64_t local_volume() const noexcept { return local_volume_; }

  bool is_cut(int mu) const noexcept {
    return grid_[static_cast<std::size_t>(mu)] > 1;
  }

  /// Rank owning a global site / its local index there.
  int rank_of_site(std::int32_t g) const noexcept {
    return site_rank_[static_cast<std::size_t>(g)];
  }
  std::int32_t local_of_site(std::int32_t g) const noexcept {
    return site_local_[static_cast<std::size_t>(g)];
  }
  std::int32_t global_site(int rank, std::int32_t local) const noexcept {
    return rank_sites_[static_cast<std::size_t>(rank) *
                           static_cast<std::size_t>(local_volume_) +
                       static_cast<std::size_t>(local)];
  }

  int neighbor_rank(int rank, int mu, Dir dir) const noexcept {
    const std::size_t base = static_cast<std::size_t>(rank) * 2 * kNumDims +
                             static_cast<std::size_t>(mu) * 2;
    return rank_nbr_[base + (dir == Dir::kForward ? 0 : 1)];
  }

  /// Local neighbor of local site l: >= 0 in-rank local index, or
  /// -(face_pos+1) when the hop leaves the rank, where face_pos indexes
  /// the (mu, dir) face list / message buffer. Shared by all ranks.
  std::int32_t local_neighbor(std::int32_t l, int mu, Dir dir) const noexcept {
    const std::size_t base = static_cast<std::size_t>(l) * 2 * kNumDims +
                             static_cast<std::size_t>(mu) * 2;
    return local_nbr_[base + (dir == Dir::kForward ? 0 : 1)];
  }

  /// Local indices of the sites on the (mu, dir) rank face, in message
  /// order. Sender face order and receiver face order are aligned: entry
  /// i of a rank's forward face is the global neighbor of entry i of the
  /// forward-neighbor rank's backward face.
  const std::vector<std::int32_t>& face(int mu, Dir dir) const noexcept {
    return faces_[static_cast<std::size_t>(mu) * 2 +
                  (dir == Dir::kForward ? 0 : 1)];
  }

  std::int64_t face_size(int mu) const noexcept {
    return is_cut(mu)
               ? static_cast<std::int64_t>(
                     faces_[static_cast<std::size_t>(mu) * 2].size())
               : 0;
  }

 private:
  const Geometry* global_;
  Coord grid_{};
  Coord local_{};
  int num_ranks_ = 0;
  std::int64_t local_volume_ = 0;

  std::vector<int> site_rank_;
  std::vector<std::int32_t> site_local_;
  std::vector<std::int32_t> rank_sites_;
  std::vector<int> rank_nbr_;
  std::vector<std::int32_t> local_nbr_;
  std::vector<std::vector<std::int32_t>> faces_;
};

}  // namespace lqcd
