// The Wilson–Clover site-diagonal term: (N_d + m) + D_cl.
//
// D_cl = c_sw * sum_{mu<nu} (i/4) sigma_{mu,nu} Fhat_{mu,nu}  (paper Eq. 3,
// with the ordered-pair sum folded into a factor 2), where Fhat is the
// traceless antihermitian "clover-leaf" average of the field strength.
// In the chiral basis this is block-diagonal: two Hermitian 6×6 blocks per
// site over (2 spins × 3 colors), stored packed (72 reals/site) exactly as
// the paper describes. The mass term (N_d + m) is folded into the diagonal,
// so a CloverTerm instance IS the full site-diagonal part of A.
//
// The construction and the inversion are compiled once, in
// clover_term.cpp, for float and double; the per-site applications stay
// inline for the operator loops that call them once per site.
#pragma once

#include <vector>

#include "lqcd/base/aligned.h"
#include "lqcd/gauge/gauge_field.h"
#include "lqcd/su3/clover_block.h"
#include "lqcd/su3/gamma.h"

namespace lqcd {

template <class T>
class CloverTerm {
 public:
  /// Build the site-diagonal operator (N_d + m) + D_cl from a gauge field.
  CloverTerm(const Geometry& geom, const GaugeField<T>& u, T mass, T csw);

  const Geometry& geometry() const noexcept { return *geom_; }

  const PackedHermitian6<T>& block(std::int32_t site,
                                   int chirality) const noexcept {
    return blocks_[static_cast<std::size_t>(site) * 2 +
                   static_cast<std::size_t>(chirality)];
  }

  /// out = block(site) * in (both chirality halves). 504 flops.
  void apply_site(std::int32_t site, const Spinor<T>& in,
                  Spinor<T>& out) const noexcept {
    for (int chi = 0; chi < 2; ++chi) {
      Complex<T> xv[kCloverBlockDim], yv[kCloverBlockDim];
      for (int sl = 0; sl < 2; ++sl)
        for (int c = 0; c < kNumColors; ++c)
          xv[sl * kNumColors + c] = in.s[2 * chi + sl].c[c];
      block(site, chi).apply(xv, yv);
      for (int sl = 0; sl < 2; ++sl)
        for (int c = 0; c < kNumColors; ++c)
          out.s[2 * chi + sl].c[c] = yv[sl * kNumColors + c];
    }
  }

  /// Precompute the blockwise inverses (needed on the odd sites by the
  /// Schur complement, Eq. 5).
  void compute_inverses();

  bool has_inverses() const noexcept { return !inv_blocks_.empty(); }

  const PackedHermitian6<T>& inv_block(std::int32_t site,
                                       int chirality) const noexcept {
    return inv_blocks_[static_cast<std::size_t>(site) * 2 +
                       static_cast<std::size_t>(chirality)];
  }

  /// out = block(site)^{-1} * in.
  void apply_inv_site(std::int32_t site, const Spinor<T>& in,
                      Spinor<T>& out) const noexcept {
    for (int chi = 0; chi < 2; ++chi) {
      Complex<T> xv[kCloverBlockDim], yv[kCloverBlockDim];
      for (int sl = 0; sl < 2; ++sl)
        for (int c = 0; c < kNumColors; ++c)
          xv[sl * kNumColors + c] = in.s[2 * chi + sl].c[c];
      inv_block(site, chi).apply(xv, yv);
      for (int sl = 0; sl < 2; ++sl)
        for (int c = 0; c < kNumColors; ++c)
          out.s[2 * chi + sl].c[c] = yv[sl * kNumColors + c];
    }
  }

 private:
  PackedHermitian6<T>& block_ref(std::int32_t site, int chirality) noexcept {
    return blocks_[static_cast<std::size_t>(site) * 2 +
                   static_cast<std::size_t>(chirality)];
  }

  const Geometry* geom_;
  AlignedVector<PackedHermitian6<T>> blocks_;
  AlignedVector<PackedHermitian6<T>> inv_blocks_;
};

}  // namespace lqcd
