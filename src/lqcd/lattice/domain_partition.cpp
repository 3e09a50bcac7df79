#include "lqcd/lattice/domain_partition.h"

#include <algorithm>

namespace lqcd {

void DomainPartition::check_tiling(const Geometry& geom, const Coord& block) {
  for (int mu = 0; mu < kNumDims; ++mu) {
    const int b = block[static_cast<std::size_t>(mu)];
    LQCD_CHECK_MSG(b >= 2 && b % 2 == 0,
                   "block extent " << mu << " must be even and >= 2");
    LQCD_CHECK_MSG(geom.dim(mu) % b == 0,
                   "lattice dim " << mu << " (" << geom.dim(mu)
                                  << ") not divisible by block extent " << b);
    LQCD_CHECK_MSG((geom.dim(mu) / b) % 2 == 0,
                   "domain grid extent " << mu << " (" << geom.dim(mu) / b
                                         << ") must be even for two-coloring");
  }
}

DomainPartition::DomainPartition(const Geometry& geom, const Coord& block)
    : geom_(&geom), block_(block) {
  check_tiling(geom, block);
  block_volume_ = 1;
  num_domains_ = 1;
  for (int mu = 0; mu < kNumDims; ++mu) {
    const auto mu_s = static_cast<std::size_t>(mu);
    grid_[mu_s] = geom.dim(mu) / block_[mu_s];
    block_volume_ *= block_[mu_s];
    num_domains_ *= grid_[mu_s];
  }

  // ---- Shared local structure ------------------------------------------
  // Enumerate local coordinates: even-parity sites first, each group in
  // lexicographic order.
  const auto bv = static_cast<std::size_t>(block_volume_);
  local_coord_.resize(bv);
  local_of_lex_.resize(bv);
  auto& local_coord = local_coord_;
  auto& local_of_lex = local_of_lex_;
  {
    std::int32_t next_even = 0, next_odd = block_volume_ / 2;
    std::int32_t lex = 0;
    Coord c;
    for (c[3] = 0; c[3] < block_[3]; ++c[3])
      for (c[2] = 0; c[2] < block_[2]; ++c[2])
        for (c[1] = 0; c[1] < block_[1]; ++c[1])
          for (c[0] = 0; c[0] < block_[0]; ++c[0], ++lex) {
            const int par = (c[0] + c[1] + c[2] + c[3]) & 1;
            const std::int32_t l = (par == 0) ? next_even++ : next_odd++;
            local_of_lex[static_cast<std::size_t>(lex)] = l;
            local_coord[static_cast<std::size_t>(l)] = c;
          }
  }
  auto lex_of_coord = [&](const Coord& c) {
    return c[0] + block_[0] * (c[1] + block_[1] * (c[2] + block_[2] * c[3]));
  };

  local_nbr_.assign(bv * 2 * kNumDims, -1);
  for (std::int32_t l = 0; l < block_volume_; ++l) {
    const Coord& c = local_coord[static_cast<std::size_t>(l)];
    for (int mu = 0; mu < kNumDims; ++mu) {
      const auto mu_s = static_cast<std::size_t>(mu);
      const std::size_t base =
          static_cast<std::size_t>(l) * 2 * kNumDims + mu_s * 2;
      if (c[mu_s] + 1 < block_[mu_s]) {
        Coord n = c;
        ++n[mu_s];
        local_nbr_[base + 0] =
            local_of_lex[static_cast<std::size_t>(lex_of_coord(n))];
      }
      if (c[mu_s] > 0) {
        Coord n = c;
        --n[mu_s];
        local_nbr_[base + 1] =
            local_of_lex[static_cast<std::size_t>(lex_of_coord(n))];
      }
    }
  }

  // Faces in face-buffer order (mu-major, forward then backward, each in
  // increasing local order), and each face site's partner across the
  // face: the same block coordinates on the opposite plane.
  for (int mu = 0; mu < kNumDims; ++mu) {
    const auto mu_s = static_cast<std::size_t>(mu);
    for (const Dir dir : {Dir::kForward, Dir::kBackward}) {
      const bool fwd = dir == Dir::kForward;
      const int plane = fwd ? block_[mu_s] - 1 : 0;
      face_offset_[face_slot(mu, dir)] =
          static_cast<std::int32_t>(face_sites_.size());
      for (std::int32_t l = 0; l < block_volume_; ++l) {
        Coord c = local_coord[static_cast<std::size_t>(l)];
        if (c[mu_s] != plane) continue;
        face_sites_.push_back(l);
        c[mu_s] = fwd ? 0 : block_[mu_s] - 1;
        partners_.push_back(
            local_of_lex[static_cast<std::size_t>(lex_of_coord(c))]);
      }
    }
    face_size_[mu_s] = block_volume_ / block_[mu_s];
  }

  // Count the in-domain hops of one parity->other-parity half dslash,
  // for flop accounting (168 flops per hop as in the paper's 1344/site
  // full-stencil count).
  for (std::int32_t l = block_volume_ / 2; l < block_volume_; ++l)
    for (int mu = 0; mu < kNumDims; ++mu) {
      if (local_neighbor(l, mu, Dir::kForward) >= 0) ++hops_per_parity_;
      if (local_neighbor(l, mu, Dir::kBackward) >= 0) ++hops_per_parity_;
    }

  // ---- Per-domain structure ---------------------------------------------
  sites_.resize(static_cast<std::size_t>(num_domains_) * bv);
  colors_.resize(static_cast<std::size_t>(num_domains_));
  by_color_.resize(2);
  site_domain_.resize(static_cast<std::size_t>(geom.volume()));
  site_local_.resize(static_cast<std::size_t>(geom.volume()));
  domain_nbr_.resize(static_cast<std::size_t>(num_domains_) * 2 * kNumDims);

  auto domain_index = [&](const Coord& dc) {
    return dc[0] + grid_[0] * (dc[1] + grid_[1] * (dc[2] + grid_[2] * dc[3]));
  };

  Coord dc;
  for (dc[3] = 0; dc[3] < grid_[3]; ++dc[3])
    for (dc[2] = 0; dc[2] < grid_[2]; ++dc[2])
      for (dc[1] = 0; dc[1] < grid_[1]; ++dc[1])
        for (dc[0] = 0; dc[0] < grid_[0]; ++dc[0]) {
          const int d = domain_index(dc);
          const auto d_s = static_cast<std::size_t>(d);
          colors_[d_s] = (dc[0] + dc[1] + dc[2] + dc[3]) & 1;
          by_color_[static_cast<std::size_t>(colors_[d_s])].push_back(d);
          Coord origin;
          for (int mu = 0; mu < kNumDims; ++mu)
            origin[static_cast<std::size_t>(mu)] =
                dc[static_cast<std::size_t>(mu)] *
                block_[static_cast<std::size_t>(mu)];
          for (std::int32_t l = 0; l < block_volume_; ++l) {
            Coord g = local_coord[static_cast<std::size_t>(l)];
            for (int mu = 0; mu < kNumDims; ++mu)
              g[static_cast<std::size_t>(mu)] +=
                  origin[static_cast<std::size_t>(mu)];
            const std::int32_t full = geom.index(g);
            sites_[d_s * bv + static_cast<std::size_t>(l)] = full;
            site_domain_[static_cast<std::size_t>(full)] = d;
            site_local_[static_cast<std::size_t>(full)] = l;
          }
          for (int mu = 0; mu < kNumDims; ++mu) {
            const auto mu_s = static_cast<std::size_t>(mu);
            Coord f = dc, b = dc;
            f[mu_s] = (dc[mu_s] + 1) % grid_[mu_s];
            b[mu_s] = (dc[mu_s] - 1 + grid_[mu_s]) % grid_[mu_s];
            domain_nbr_[d_s * 2 * kNumDims + mu_s * 2 + 0] = domain_index(f);
            domain_nbr_[d_s * 2 * kNumDims + mu_s * 2 + 1] = domain_index(b);
          }
        }

  // Incoming faces of every destination domain, in halo-update order.
  // The neighbor behind d in mu packed its forward face toward d; the one
  // ahead of d packed its backward face.
  halo_sources_.resize(static_cast<std::size_t>(num_domains_));
  for (int d = 0; d < num_domains_; ++d) {
    auto& src = halo_sources_[static_cast<std::size_t>(d)];
    for (int mu = 0; mu < kNumDims; ++mu) {
      const auto k = static_cast<std::size_t>(mu) * 2;
      src[k] = {neighbor_domain(d, mu, Dir::kBackward), mu, Dir::kForward};
      src[k + 1] = {neighbor_domain(d, mu, Dir::kForward), mu, Dir::kBackward};
    }
    std::stable_sort(src.begin(), src.end(),
                     [](const HaloSource& a, const HaloSource& b) {
                       return a.producer < b.producer;
                     });
  }
}

}  // namespace lqcd
