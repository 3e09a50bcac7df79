// Distributed fields and the distributed Wilson-Clover operator on the
// virtual rank grid.
//
// The halo exchange sends exactly what the paper's code sends
// (Sec. III-A): projected 12-real half-spinors, link-multiplied by the
// owner of the link — U^dag h for forward faces (the sender owns
// U_mu(x)), raw h for backward faces (the receiver owns U_mu(y)). A
// CommStats counter validates the message/byte accounting used by the
// cluster performance model.
#pragma once

#include "lqcd/dirac/wilson_clover.h"
#include "lqcd/vnode/collectives.h"
#include "lqcd/vnode/virtual_grid.h"

namespace lqcd {

/// One FermionField per rank.
template <class T>
class DistributedField {
 public:
  DistributedField() = default;
  explicit DistributedField(const VirtualGrid& grid) {
    per_rank_.reserve(static_cast<std::size_t>(grid.num_ranks()));
    for (int r = 0; r < grid.num_ranks(); ++r)
      per_rank_.emplace_back(grid.local_volume());
  }

  FermionField<T>& rank(int r) noexcept {
    return per_rank_[static_cast<std::size_t>(r)];
  }
  const FermionField<T>& rank(int r) const noexcept {
    return per_rank_[static_cast<std::size_t>(r)];
  }
  int num_ranks() const noexcept {
    return static_cast<int>(per_rank_.size());
  }

 private:
  std::vector<FermionField<T>> per_rank_;
};

/// Scatter a global field onto the ranks / gather it back.
template <class T>
void scatter(const VirtualGrid& grid, const FermionField<T>& global,
             DistributedField<T>& dist) {
  LQCD_CHECK(global.size() == grid.global().volume());
  for (int r = 0; r < grid.num_ranks(); ++r)
    for (std::int32_t l = 0; l < grid.local_volume(); ++l)
      dist.rank(r)[l] = global[grid.global_site(r, l)];
}

template <class T>
void gather(const VirtualGrid& grid, const DistributedField<T>& dist,
            FermionField<T>& global) {
  LQCD_CHECK(global.size() == grid.global().volume());
  for (int r = 0; r < grid.num_ranks(); ++r)
    for (std::int32_t l = 0; l < grid.local_volume(); ++l)
      global[grid.global_site(r, l)] = dist.rank(r)[l];
}

/// Distributed dot product: per-rank partials reduced over the
/// fault-tolerant host-proxy tree (bit-identical to the historical
/// trivial linear sum when no faults fire). A collective that cannot
/// complete — retries exhausted or too many rank deaths — throws a
/// structured Error; the caller's checkpoint/rollback path takes over.
template <class T>
std::complex<double> dot(const VirtualGrid& grid,
                         const DistributedField<T>& x,
                         const DistributedField<T>& y, CommStats& comm,
                         const CollectiveConfig& collectives = {}) {
  std::vector<std::complex<double>> parts(
      static_cast<std::size_t>(grid.num_ranks()));
  for (int r = 0; r < grid.num_ranks(); ++r)
    parts[static_cast<std::size_t>(r)] = dot(x.rank(r), y.rank(r));
  const auto res = tree_allreduce(parts, comm, collectives);
  LQCD_CHECK_MSG(res.status == CollectiveStatus::kOk,
                 "distributed dot: collective failed ("
                     << to_string(res.status)
                     << "); escalate to checkpoint/rollback");
  return res.value;
}

template <class T>
class DistributedWilsonClover {
 public:
  /// Builds per-rank copies of the links and (globally constructed)
  /// clover blocks. `gauge` must live on grid.global().
  DistributedWilsonClover(const VirtualGrid& grid,
                          const GaugeField<T>& gauge, T mass, T csw)
      : grid_(&grid),
        clover_(grid.global(), gauge, mass, csw),
        links_(static_cast<std::size_t>(grid.num_ranks()) *
               static_cast<std::size_t>(grid.local_volume()) * kNumDims) {
    LQCD_CHECK(&gauge.geometry() == &grid.global());
    for (int r = 0; r < grid.num_ranks(); ++r)
      for (std::int32_t l = 0; l < grid.local_volume(); ++l) {
        const std::int32_t g = grid.global_site(r, l);
        for (int mu = 0; mu < kNumDims; ++mu)
          link_ref(r, l, mu) = gauge.link(g, mu);
      }
    // One send + one receive buffer per (rank, mu, dir).
    const int nr = grid.num_ranks();
    send_.resize(static_cast<std::size_t>(nr) * 2 * kNumDims);
    recv_.resize(static_cast<std::size_t>(nr) * 2 * kNumDims);
    for (int r = 0; r < nr; ++r)
      for (int mu = 0; mu < kNumDims; ++mu)
        for (int dirbit = 0; dirbit < 2; ++dirbit) {
          const auto n = grid.face_size(mu);
          buffer(send_, r, mu, dirbit)
              .resize(static_cast<std::size_t>(n));
          buffer(recv_, r, mu, dirbit)
              .resize(static_cast<std::size_t>(n));
        }
  }

  const CommStats& comm() const noexcept { return comm_; }
  void reset_comm() noexcept { comm_.reset(); }

  /// Attach a per-message fault site (FaultSite::kHaloExchange) to the
  /// halo exchange. Drops and checksum-detected corruptions are
  /// retransmitted up to `max_retries` times; a rank death (or retry
  /// exhaustion) throws a structured Error — the signal for the
  /// checkpoint/rollback path. nullptr restores fault-free exchanges.
  void set_fault_injector(FaultInjector* injector,
                          int max_retries = 3) noexcept {
    injector_ = injector;
    max_retries_ = max_retries;
  }

  /// out = A in, with explicit halo exchange between the virtual ranks.
  void apply(const DistributedField<T>& in, DistributedField<T>& out) {
    pack_all(in);
    exchange();
    compute_all(in, out);
  }

 private:
  using HalfBuffer = std::vector<HalfSpinor<T>>;

  SU3<T>& link_ref(int r, std::int32_t l, int mu) noexcept {
    return links_[(static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(grid_->local_volume()) +
                   static_cast<std::size_t>(l)) *
                      kNumDims +
                  static_cast<std::size_t>(mu)];
  }
  const SU3<T>& link(int r, std::int32_t l, int mu) const noexcept {
    return const_cast<DistributedWilsonClover*>(this)->link_ref(r, l, mu);
  }

  HalfBuffer& buffer(std::vector<HalfBuffer>& set, int r, int mu,
                     int dirbit) noexcept {
    return set[(static_cast<std::size_t>(r) * kNumDims +
                static_cast<std::size_t>(mu)) *
                   2 +
               static_cast<std::size_t>(dirbit)];
  }

  void pack_all(const DistributedField<T>& in) {
    for (int r = 0; r < grid_->num_ranks(); ++r)
      for (int mu = 0; mu < kNumDims; ++mu) {
        if (!grid_->is_cut(mu)) continue;
        // Forward face: the receiver's backward hop needs
        // (1+gamma) U^dag(x) psi(x); we own the link, so multiply here.
        {
          const auto& face = grid_->face(mu, Dir::kForward);
          auto& buf = buffer(send_, r, mu, 0);
          for (std::size_t i = 0; i < face.size(); ++i) {
            const std::int32_t l = face[i];
            buf[i] = mul_adj(link(r, l, mu),
                             project(in.rank(r)[l], mu, +1));
          }
        }
        // Backward face: the receiver's forward hop needs
        // (1-gamma) U(y) psi(x); the receiver owns U(y): send raw.
        {
          const auto& face = grid_->face(mu, Dir::kBackward);
          auto& buf = buffer(send_, r, mu, 1);
          for (std::size_t i = 0; i < face.size(); ++i)
            buf[i] = project(in.rank(r)[face[i]], mu, -1);
        }
      }
  }

  void exchange() {
    for (int r = 0; r < grid_->num_ranks(); ++r)
      for (int mu = 0; mu < kNumDims; ++mu) {
        if (!grid_->is_cut(mu)) continue;
        // recv[r][mu][fwd-bit] holds the data arriving FROM the forward
        // neighbor (its backward-face buffer), and vice versa.
        const int rf = grid_->neighbor_rank(r, mu, Dir::kForward);
        const int rb = grid_->neighbor_rank(r, mu, Dir::kBackward);
        const std::int64_t msg_bytes =
            static_cast<std::int64_t>(grid_->face_size(mu)) * 12 *
            static_cast<std::int64_t>(sizeof(T));
        transfer(buffer(recv_, r, mu, 0), buffer(send_, rf, mu, 1),
                 msg_bytes);
        transfer(buffer(recv_, r, mu, 1), buffer(send_, rb, mu, 0),
                 msg_bytes);
      }
    ++comm_.halo_exchanges;
  }

  /// One point-to-point halo message through send_message(), at the
  /// per-message fault site. Drops and checksum-detected corruptions are
  /// retransmitted; a neighbor death cannot be rewired around (the face
  /// data exists nowhere else) and, like an exhausted retransmit budget,
  /// throws for checkpoint/rollback.
  void transfer(HalfBuffer& dst, const HalfBuffer& src,
                std::int64_t msg_bytes) {
    const SendResult sent =
        send_message(src.data(), src.size() * sizeof(HalfSpinor<T>),
                     injector_, FaultSite::kHaloExchange, max_retries_);
    comm_.messages += sent.attempts;
    comm_.bytes += sent.attempts * msg_bytes;
    comm_.retransmits += sent.attempts - 1;
    if (sent.outcome == SendOutcome::kSenderDied) {
      ++comm_.rank_deaths;
      LQCD_CHECK_MSG(false,
                     "halo exchange: neighbor rank died mid-exchange; "
                     "escalate to checkpoint/rollback");
    }
    LQCD_CHECK_MSG(sent.outcome == SendOutcome::kDelivered,
                   "halo exchange: retransmit budget exhausted; "
                   "escalate to checkpoint/rollback");
    dst = src;
  }

  void compute_all(const DistributedField<T>& in, DistributedField<T>& out) {
    for (int r = 0; r < grid_->num_ranks(); ++r) {
      const auto& inr = in.rank(r);
      auto& outr = out.rank(r);
      for (std::int32_t l = 0; l < grid_->local_volume(); ++l) {
        Spinor<T> hop;
        hop.zero();
        for (int mu = 0; mu < kNumDims; ++mu) {
          // Forward: (1-gamma) U_mu(y) psi(y+mu).
          const std::int32_t lf = grid_->local_neighbor(l, mu, Dir::kForward);
          if (lf >= 0) {
            const HalfSpinor<T> h = project(inr[lf], mu, -1);
            reconstruct_add(hop, mul(link(r, l, mu), h), mu, -1);
          } else {
            const auto& buf = buffer(recv_, r, mu, 0);
            const HalfSpinor<T> h =
                mul(link(r, l, mu), buf[static_cast<std::size_t>(-lf - 1)]);
            reconstruct_add(hop, h, mu, -1);
          }
          // Backward: (1+gamma) U_mu^dag(y-mu) psi(y-mu).
          const std::int32_t lb =
              grid_->local_neighbor(l, mu, Dir::kBackward);
          if (lb >= 0) {
            const HalfSpinor<T> h = project(inr[lb], mu, +1);
            reconstruct_add(hop, mul_adj(link(r, lb, mu), h), mu, +1);
          } else {
            const auto& buf = buffer(recv_, r, mu, 1);
            // Already U^dag-multiplied by the sender.
            reconstruct_add(hop, buf[static_cast<std::size_t>(-lb - 1)], mu,
                            +1);
          }
        }
        Spinor<T> diag;
        clover_.apply_site(grid_->global_site(r, l), inr[l], diag);
        for (int sp = 0; sp < kNumSpins; ++sp)
          for (int c = 0; c < kNumColors; ++c)
            outr[l].s[sp].c[c] =
                diag.s[sp].c[c] - T(0.5) * hop.s[sp].c[c];
      }
    }
  }

  const VirtualGrid* grid_;
  CloverTerm<T> clover_;
  AlignedVector<SU3<T>> links_;
  std::vector<HalfBuffer> send_, recv_;
  CommStats comm_;
  FaultInjector* injector_ = nullptr;
  int max_retries_ = 3;
};

}  // namespace lqcd
