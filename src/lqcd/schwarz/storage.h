// Packed per-domain storage for the Schwarz preconditioner.
//
// Each domain owns a contiguous block holding its gauge links and clover
// blocks — the paper packs "all required data structures into one
// contiguous block" to avoid associativity misses (Sec. III-B), and we
// keep the same layout so the KNC cache model can reason about it.
//
// The storage scalar S is either float or Half (IEEE binary16). Matrices
// are down-converted on store and up-converted on load while all
// arithmetic stays in float — modelling the KNC's load/store up/down
// conversion exactly (Sec. III-B: links and clover shrink from 144 kB to
// 72 kB per 8x4^3 domain).
#pragma once

#include <algorithm>
#include <array>

#include "lqcd/base/checksum.h"
#include "lqcd/base/constants.h"
#include "lqcd/linalg/fermion_field.h"
#include "lqcd/linalg/fp16.h"
#include "lqcd/su3/clover_block.h"
#include "lqcd/su3/spinor.h"
#include "lqcd/su3/su3.h"

namespace lqcd {

template <class S>
struct StorageTraits;

template <>
struct StorageTraits<float> {
  static constexpr const char* name() noexcept { return "single"; }
  static float load(float v) noexcept { return v; }
  static float store(float v) noexcept { return v; }
};

template <>
struct StorageTraits<Half> {
  static constexpr const char* name() noexcept { return "half"; }
  static float load(Half v) noexcept { return half_to_float(v); }
  static Half store(float v) noexcept { return float_to_half(v); }
};

inline constexpr int kSU3Reals = 18;
inline constexpr int kCloverBlockReals = 36;

/// Store an SU(3) matrix as 18 consecutive storage scalars.
template <class S>
void store_su3(const SU3<float>& u, S* dst) noexcept {
  int k = 0;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      dst[k++] = StorageTraits<S>::store(u.m[i][j].real());
      dst[k++] = StorageTraits<S>::store(u.m[i][j].imag());
    }
}

/// Always inlined: left to GCC 12's unit-wide inline budget, a load_su3
/// call in header-compiled code (the halo update's backward-face multiply)
/// goes in or out of line with the size of unrelated code in the
/// including translation unit.
template <class S>
[[gnu::always_inline]] inline SU3<float> load_su3(const S* src) noexcept {
  SU3<float> u;
  int k = 0;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      const float re = StorageTraits<S>::load(src[k++]);
      const float im = StorageTraits<S>::load(src[k++]);
      u.m[i][j] = Complex<float>(re, im);
    }
  return u;
}

/// Store a packed Hermitian 6x6 block as 36 storage scalars
/// (6 diagonal + 15 complex off-diagonal).
template <class S>
void store_block(const PackedHermitian6<float>& b, S* dst) noexcept {
  int k = 0;
  for (int i = 0; i < kCloverBlockDim; ++i)
    dst[k++] = StorageTraits<S>::store(b.diag[i]);
  for (int i = 0; i < kCloverOffDiag; ++i) {
    dst[k++] = StorageTraits<S>::store(b.offd[i].real());
    dst[k++] = StorageTraits<S>::store(b.offd[i].imag());
  }
}

template <class S>
PackedHermitian6<float> load_block(const S* src) noexcept {
  PackedHermitian6<float> b;
  int k = 0;
  for (int i = 0; i < kCloverBlockDim; ++i)
    b.diag[i] = StorageTraits<S>::load(src[k++]);
  for (int i = 0; i < kCloverOffDiag; ++i) {
    const float re = StorageTraits<S>::load(src[k++]);
    const float im = StorageTraits<S>::load(src[k++]);
    b.offd[i] = Complex<float>(re, im);
  }
  return b;
}

/// The three packed per-domain arrays a Schwarz store protects with
/// checksums; ABFT detection, repair, and injection address them by
/// (domain, component). Everything that walks the components walks
/// kPackedComponents, in this order: it fixes the fault keys, the decode
/// offsets and the checksum order.
enum class PackedComponent {
  kGaugeLinks = 0,  ///< 8 links per local site, 18 scalars each
  kCloverDiag,      ///< even-site clover blocks (forward application)
  kCloverInv,       ///< odd-site inverse clover blocks (Schur solve)
};

inline constexpr std::array<PackedComponent, 3> kPackedComponents{
    PackedComponent::kGaugeLinks, PackedComponent::kCloverDiag,
    PackedComponent::kCloverInv};
inline constexpr int kNumPackedComponents =
    static_cast<int>(kPackedComponents.size());

/// Position of a component in kPackedComponents and in every array
/// indexed by component.
constexpr std::size_t index_of(PackedComponent c) noexcept {
  return static_cast<std::size_t>(c);
}

inline const char* to_string(PackedComponent c) noexcept {
  switch (c) {
    case PackedComponent::kGaugeLinks: return "gauge-links";
    case PackedComponent::kCloverDiag: return "clover-diag";
    case PackedComponent::kCloverInv: return "clover-inv";
  }
  return "?";
}

/// One domain's gauge and clover matrices as float arrays, one per
/// PackedComponent, in the packed layout: links [local][mu][18],
/// even-site clover blocks [even local][chi][36], odd-site inverse clover
/// blocks [odd local - hv][chi][36]. This is what a Schwarz block solve
/// reads; SchwarzSetup::decode_domain() produces it once per domain visit.
struct DomainMatrices {
  std::array<const float*, kNumPackedComponents> arrays{};

  const float* links() const noexcept {
    return arrays[index_of(PackedComponent::kGaugeLinks)];
  }
  const float* diag_e() const noexcept {
    return arrays[index_of(PackedComponent::kCloverDiag)];
  }
  const float* inv_o() const noexcept {
    return arrays[index_of(PackedComponent::kCloverInv)];
  }

  const float* link(std::int32_t l, int mu) const noexcept {
    return links() + (static_cast<std::size_t>(l) * kNumDims +
                      static_cast<std::size_t>(mu)) *
                         kSU3Reals;
  }
  const float* diag(std::int32_t le, int chi) const noexcept {
    return diag_e() + (static_cast<std::size_t>(le) * 2 +
                       static_cast<std::size_t>(chi)) *
                          kCloverBlockReals;
  }
  const float* inv(std::int32_t lo, int chi) const noexcept {
    return inv_o() + (static_cast<std::size_t>(lo) * 2 +
                      static_cast<std::size_t>(chi)) *
                         kCloverBlockReals;
  }
};

/// ABFT seed (ROADMAP): Fletcher-32 over a packed-scalar range. Computed
/// at pack time per domain and re-verified on demand, it catches the
/// PERSISTENT corruption class — a bit-flipped half/single-precision
/// gauge or clover block silently degrading convergence on every sweep —
/// that the residual-divergence SDC detector cannot see.
template <class S>
std::uint32_t packed_checksum(const S* data, std::size_t count) noexcept {
  return fletcher32_bytes(data, count * sizeof(S));
}

// ---------------------------------------------------------------------------
// Multi-RHS block spinors: SOA-over-RHS (paper Sec. VI).
//
// A batched domain visit wants every arithmetic operation of the block
// solve applied to ALL right-hand sides while a matrix element sits in
// registers. The layout that makes that a unit-stride SIMD loop is
// "structure of arrays over the RHS index": [site][real component][lane],
// with the lane (= RHS) index innermost and padded to the dispatched
// backend's lane width. Padding lanes hold zeros, which every kernel of
// the block solve maps to zeros, so they are arithmetically inert.
// ---------------------------------------------------------------------------

/// nrhs padded up to a multiple of `width`, the active backend's
/// simd::Kernels::lane_width (the count its lane kernels run with no
/// masked or scalar tail).
constexpr int padded_rhs_lanes(int nrhs, int width) noexcept {
  return (nrhs + width - 1) / width * width;
}

/// Lane count of a batch of nrhs right-hand sides: padded_rhs_lanes()
/// for two or more. A batch of one runs at one lane, where the kernels
/// vectorize within the site; padding it would multiply its work by the
/// lane width.
constexpr int batch_lanes(int nrhs, int width) noexcept {
  return nrhs > 1 ? padded_rhs_lanes(nrhs, width) : nrhs;
}

/// Multi-RHS block-spinor container for the lane-vectorized Schwarz block
/// solve: `sites x kSpinorReals` lane vectors, each a contiguous run of
/// `lanes()` floats (a padded_rhs_lanes() count).
class BlockSpinorLanes {
 public:
  BlockSpinorLanes() = default;
  // analyze-safe(parallel-reachability): the argument check guards values
  // fixed by the domain partition and the apply's padded lane count;
  // per-thread scratch construction inside a sweep re-validates them.
  BlockSpinorLanes(std::int32_t sites, int lanes)
      : sites_(sites),
        lanes_(lanes),
        data_(static_cast<std::size_t>(sites) * kSpinorReals *
              static_cast<std::size_t>(lanes)) {
    LQCD_CHECK(sites >= 0 && lanes >= 1);
  }

  std::int32_t sites() const noexcept { return sites_; }
  int lanes() const noexcept { return lanes_; }

  /// Pointer to the lane vector of (site, real component); components
  /// follow the Spinor memory order: comp = (spin * 3 + color) * 2 + reim.
  float* lane_vec(std::int32_t site, int comp) noexcept {
    return data_.data() +
           (static_cast<std::size_t>(site) * kSpinorReals +
            static_cast<std::size_t>(comp)) *
               static_cast<std::size_t>(lanes_);
  }
  const float* lane_vec(std::int32_t site, int comp) const noexcept {
    return const_cast<BlockSpinorLanes*>(this)->lane_vec(site, comp);
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  void zero() noexcept { std::fill(data_.begin(), data_.end(), 0.0f); }

 private:
  std::int32_t sites_ = 0;
  int lanes_ = 0;
  AlignedVector<float> data_;
};

/// Gather bridge from per-RHS fields into the SOA-over-RHS layout:
/// out(i, comp, b) = fields[b][site_map ? site_map[i] : i].comp.
/// Padding lanes (b >= nrhs) are zero-filled.
// analyze-safe(parallel-reachability): the capacity check compares
// setup-time scratch dimensions against the partition's fixed domain
// sizes; it is invariant across sweep iterations.
inline void pack_rhs_lanes(const FermionField<float>* const* fields,
                           int nrhs, const std::int32_t* site_map,
                           std::int32_t nsites, BlockSpinorLanes& out) {
  LQCD_CHECK(out.sites() >= nsites && nrhs >= 1 && nrhs <= out.lanes());
  const int lanes = out.lanes();
  for (std::int32_t i = 0; i < nsites; ++i) {
    const std::int32_t g = site_map != nullptr ? site_map[i] : i;
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        const int comp = (sp * kNumColors + c) * 2;
        float* re = out.lane_vec(i, comp);
        float* im = out.lane_vec(i, comp + 1);
        for (int b = 0; b < nrhs; ++b) {
          const Complex<float>& z = (*fields[b])[g].s[sp].c[c];
          re[b] = z.real();
          im[b] = z.imag();
        }
        for (int b = nrhs; b < lanes; ++b) re[b] = im[b] = 0.0f;
      }
  }
}

}  // namespace lqcd
