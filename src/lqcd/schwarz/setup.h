// The packed per-configuration store of the Schwarz preconditioner.
//
// SchwarzSetup<S> holds what depends on the storage scalar S: each
// domain's gauge links, even-site clover blocks and odd-site inverse
// clover blocks, packed per domain in S (the paper's one contiguous block
// per domain, Sec. III-B), and the ABFT checksums stamped over them at
// pack time. The geometry tables the sweep also needs (faces, partners,
// halo order, hop counts) belong to the DomainPartition, which every
// precision shares.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "lqcd/dirac/wilson_clover.h"
#include "lqcd/lattice/domain_partition.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/resilience/resilient_solve.h"
#include "lqcd/schwarz/storage.h"
#include "lqcd/simd/dispatch.h"

namespace lqcd {

/// Immutable-after-pack per-configuration state of the Schwarz method:
/// the packed per-domain gauge/clover matrices in storage scalar S and
/// their pack-time ABFT checksums. One SchwarzSetup can back any number
/// of SchwarzPreconditioner instances — each of those owns only mutable
/// per-solve state (residuals, face buffers, per-thread scratch, stats) —
/// which is what lets a long-lived solver service pay the packing cost
/// once per gauge configuration and share it across every solve on that
/// configuration.
///
/// "Immutable" has one deliberate exception: the ABFT repair ladder
/// re-packs corrupted domains in place (repack_domain()/repack_all()), so
/// solves that may trigger in-solve repair must not run concurrently on a
/// shared setup.
template <class S>
class SchwarzSetup final : public PackedDomainStore {
 public:
  /// `op` must have prepare_schur() already called (the odd-site clover
  /// inverses are copied into the packed domain storage). The partition
  /// and operator must refer to the same geometry, and both must outlive
  /// the setup: the operator is the authoritative pack source the ABFT
  /// repair ladder re-packs corrupted domains from.
  SchwarzSetup(const DomainPartition& part,
               const WilsonCloverOperator<float>& op)
      : part_(&part), op_(&op) {
    LQCD_CHECK(&part.geometry() == &op.geometry());
    LQCD_CHECK_MSG(op.clover().has_inverses(),
                   "call prepare_schur() on the operator first");
    const auto nd = static_cast<std::size_t>(part.num_domains());
    for (const PackedComponent c : kPackedComponents)
      packed_[index_of(c)].resize(nd * component_count(c));

    // Pack every domain and stamp the ABFT checksums: one Fletcher-32 per
    // (domain, packed component), which localizes a corruption and is
    // re-verifiable via verify_checksums(), and the field-level source
    // checksums the repair ladder trusts.
    stamps_.resize(nd);
    for (int d = 0; d < part.num_domains(); ++d) pack_domain(d);
    stamp_source();
  }

  const DomainPartition& partition() const noexcept { return *part_; }
  const WilsonCloverOperator<float>& op() const noexcept { return *op_; }

  /// Domain d's packed component c: component_count(c) scalars, laid out
  /// like the matching DomainMatrices array.
  const S* packed(int d, PackedComponent c) const noexcept {
    return packed_[index_of(c)].data() + offset(d, c);
  }

  /// Pack-time Fletcher-32 checksum of one packed component of domain d.
  std::uint32_t domain_checksum(int d, PackedComponent c) const noexcept {
    return stamps_[static_cast<std::size_t>(d)][index_of(c)];
  }

  // --- PackedDomainStore (the AbftGuard's view of this object) ---------

  int num_domains() const override { return part_->num_domains(); }
  const char* store_name() const override { return StorageTraits<S>::name(); }

  /// Append the indices of domains whose packed per-component checksums
  /// no longer match their pack-time stamps.
  void find_corrupt_domains(std::vector<int>& bad) const override {
    const int nd = part_->num_domains();
    std::vector<unsigned char> corrupt(static_cast<std::size_t>(nd), 0);
    unsigned char* flags = corrupt.data();
#pragma omp parallel for schedule(static) default(none) shared(nd, flags)
    for (int d = 0; d < nd; ++d) flags[d] = domain_intact(d) ? 0 : 1;
    for (int d = 0; d < nd; ++d)
      if (flags[d] != 0) bad.push_back(d);
  }

  /// Rung-1 localized repair: re-pack one domain from the source operator
  /// and restamp its checksums. Only valid while the source verifies
  /// (source_intact()), or a relocation of the error would be stamped as
  /// truth.
  void repack_domain(int d) override { pack_domain(d); }

  /// Re-verify the pack source (float gauge field + clover blocks)
  /// against the field-level checksums stamped at pack time.
  bool source_intact() const override {
    return op_->gauge().content_checksum() == source_gauge_sum_ &&
           clover_content_checksum() == source_clover_sum_;
  }

  /// Rung-2 repair service: after DDSolver rebuilt the source operator
  /// from the double master, re-pack every domain and restamp the source
  /// checksums against the repaired field.
  void repack_all() {
    for (int d = 0; d < part_->num_domains(); ++d) pack_domain(d);
    stamp_source();
  }

  /// Re-verify every domain's packed gauge/clover bytes against the
  /// pack-time checksums (OpenMP-parallel over domains; the per-domain
  /// verdicts are disjoint writes, so the result is thread-count
  /// invariant); returns the number of mismatching domains (0 = intact).
  int verify_checksums() const {
    std::vector<int> bad;
    find_corrupt_domains(bad);
    return static_cast<int>(bad.size());
  }

  /// Test hook: let `injector` corrupt the packed link storage in place
  /// (FaultSite::kPackedMatrices) — the persistent-fault class the
  /// checksums exist to catch. Returns true iff a fault fired.
  bool corrupt_packed(FaultInjector& injector) {
    AlignedVector<S>& links = packed_[index_of(PackedComponent::kGaugeLinks)];
    return injector.maybe_corrupt_reals(
        links.data(), static_cast<std::int64_t>(links.size()),
        FaultSite::kPackedMatrices);
  }

  /// Deterministic test hook: aim `injector` at ONE (domain, component)
  /// range (FaultSite::kPackedData), so tests can assert exactly which
  /// domain the sweep localizes and that the repair is bit-exact.
  bool corrupt_packed(FaultInjector& injector, int d, PackedComponent c) {
    return injector.maybe_corrupt_reals(
        packed_[index_of(c)].data() + offset(d, c),
        static_cast<std::int64_t>(component_count(c)),
        FaultSite::kPackedData);
  }

  /// In-solve hook: let the pre-drawn decision `key` of `scope` corrupt
  /// the whole store of component c.
  bool corrupt_packed(ParallelFaultScope& scope, std::int64_t key,
                      PackedComponent c) {
    AlignedVector<S>& store = packed_[index_of(c)];
    return scope.maybe_corrupt_reals(key, store.data(),
                                     static_cast<std::int64_t>(store.size()));
  }

  /// Per-domain working-set bytes of links + clover (+inverse clover)
  /// storage — the quantity the paper fits into the 512 kB L2.
  std::int64_t domain_matrix_bytes() const noexcept {
    return static_cast<std::int64_t>(domain_scalars() * sizeof(S));
  }

  /// Floats decode_domain() writes: one domain's packed components for
  /// S = Half, 0 for S = float (the view then points at the packed store).
  std::size_t decode_size() const noexcept {
    if constexpr (std::is_same_v<S, float>) {
      return 0;
    } else {
      return domain_scalars();
    }
  }

  /// Float view of domain d's packed matrices for one domain visit. For
  /// S = float it points at the packed store; for S = Half the components
  /// are decoded back to back into `buf` (decode_size() floats) through
  /// the dispatched array converter, so each packed value is converted
  /// once per visit and a packed-data upset since the last visit is what
  /// this one reads.
  DomainMatrices decode_domain(int d, AlignedVector<float>& buf) const {
    DomainMatrices m;
    if constexpr (std::is_same_v<S, float>) {
      (void)buf;
      for (const PackedComponent c : kPackedComponents)
        m.arrays[index_of(c)] = packed(d, c);
    } else {
      float* out = buf.data();
      for (const PackedComponent c : kPackedComponents) {
        const std::size_t n = component_count(c);
        simd::kernels().half_to_float_n(packed(d, c), out,
                                        static_cast<std::int64_t>(n));
        m.arrays[index_of(c)] = out;
        out += n;
      }
    }
    return m;
  }

  /// Links-only form of decode_domain(): the halo update's backward-face
  /// multiply reads the destination's own links and nothing else.
  const float* decode_links(int d, AlignedVector<float>& buf) const {
    const S* links = packed(d, PackedComponent::kGaugeLinks);
    if constexpr (std::is_same_v<S, float>) {
      return links;
    } else {
      simd::kernels().half_to_float_n(
          links, buf.data(),
          static_cast<std::int64_t>(
              component_count(PackedComponent::kGaugeLinks)));
      return buf.data();
    }
  }

 private:
  /// Fresh Fletcher-32 of one packed component of domain d (what the
  /// verification compares against the pack-time stamp).
  std::uint32_t component_checksum(int d, PackedComponent c) const noexcept {
    return packed_checksum(packed(d, c), component_count(c));
  }

  /// True iff every packed component of domain d still matches its
  /// pack-time stamp.
  bool domain_intact(int d) const noexcept {
    for (const PackedComponent c : kPackedComponents)
      if (component_checksum(d, c) != domain_checksum(d, c)) return false;
    return true;
  }

  /// Scalars in one domain's packed component.
  std::size_t component_count(PackedComponent c) const noexcept {
    return c == PackedComponent::kGaugeLinks
               ? static_cast<std::size_t>(part_->domain_volume()) *
                     kNumDims * kSU3Reals
               : static_cast<std::size_t>(part_->domain_half_volume()) * 2 *
                     kCloverBlockReals;
  }

  /// Scalars in all of one domain's packed components.
  std::size_t domain_scalars() const noexcept {
    std::size_t n = 0;
    for (const PackedComponent c : kPackedComponents) n += component_count(c);
    return n;
  }

  /// Start of domain d's range in the store of component c.
  std::size_t offset(int d, PackedComponent c) const noexcept {
    return static_cast<std::size_t>(d) * component_count(c);
  }

  /// Pack (or re-pack) domain d from the source operator and stamp its
  /// per-component checksums. The constructor's pack loop and the ABFT
  /// rung-1 repair are the same code path, so a repair is bit-identical
  /// to the original pack by construction.
  void pack_domain(int d) {
    const std::int32_t vd = part_->domain_volume();
    const std::int32_t hv = part_->domain_half_volume();
    const auto& gauge = op_->gauge();
    const auto& clover = op_->clover();
    S* links = packed_[index_of(PackedComponent::kGaugeLinks)].data() +
               offset(d, PackedComponent::kGaugeLinks);
    S* diag = packed_[index_of(PackedComponent::kCloverDiag)].data() +
              offset(d, PackedComponent::kCloverDiag);
    S* inv = packed_[index_of(PackedComponent::kCloverInv)].data() +
             offset(d, PackedComponent::kCloverInv);
    for (std::int32_t l = 0; l < vd; ++l) {
      const std::int32_t g = part_->global_site(d, l);
      const auto ls = static_cast<std::size_t>(l);
      for (int mu = 0; mu < kNumDims; ++mu)
        store_su3(gauge.link(g, mu),
                  links + (ls * kNumDims + static_cast<std::size_t>(mu)) *
                              kSU3Reals);
      for (int chi = 0; chi < 2; ++chi) {
        const auto chis = static_cast<std::size_t>(chi);
        if (l < hv)
          store_block(clover.block(g, chi),
                      diag + (ls * 2 + chis) * kCloverBlockReals);
        else
          store_block(
              clover.inv_block(g, chi),
              inv + ((ls - static_cast<std::size_t>(hv)) * 2 + chis) *
                        kCloverBlockReals);
      }
    }
    for (const PackedComponent c : kPackedComponents)
      stamps_[static_cast<std::size_t>(d)][index_of(c)] =
          component_checksum(d, c);
  }

  /// Field-level Fletcher-32 over the source clover blocks (forward and
  /// inverse), the clover half of the source_intact() verification.
  std::uint32_t clover_content_checksum() const {
    const auto volume =
        static_cast<std::int32_t>(part_->geometry().volume());
    const auto& clover = op_->clover();
    Fletcher32 f;
    for (std::int32_t g = 0; g < volume; ++g)
      for (int chi = 0; chi < 2; ++chi) {
        f.update(&clover.block(g, chi), sizeof(PackedHermitian6<float>));
        f.update(&clover.inv_block(g, chi), sizeof(PackedHermitian6<float>));
      }
    return f.value();
  }

  void stamp_source() {
    source_gauge_sum_ = op_->gauge().content_checksum();
    source_clover_sum_ = clover_content_checksum();
  }

  const DomainPartition* part_;
  const WilsonCloverOperator<float>* op_;  ///< authoritative pack source

  /// One store per PackedComponent, domain-major: links
  /// [domain][local][mu][18], clover [domain][even local][chi][36],
  /// inverse clover [domain][odd local][chi][36].
  std::array<AlignedVector<S>, kNumPackedComponents> packed_;
  /// Pack-time ABFT stamps, [domain][component].
  std::vector<std::array<std::uint32_t, kNumPackedComponents>> stamps_;
  std::uint32_t source_gauge_sum_ = 0;  // field-level source checksums
  std::uint32_t source_clover_sum_ = 0;
};

}  // namespace lqcd
