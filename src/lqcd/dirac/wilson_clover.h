// The Wilson hopping operator D_w and the Wilson–Clover operator
//   A = (N_d + m) - (1/2) D_w + D_cl            (paper Eq. 1)
//   D_w = sum_mu (1-gamma_mu) U_mu(x) delta_{x+mu} +
//                (1+gamma_mu) U_mu(x-mu)^dag delta_{x-mu}   (paper Eq. 2)
// plus the even-odd (Schur complement) pieces of Eq. 5.
//
// Flop counts per site follow the paper exactly: D_w = 1344, site-diagonal
// (clover+mass) = 504, full A = 1848.
#pragma once

#include <atomic>
#include <cstdint>

#include "lqcd/dirac/clover_term.h"
#include "lqcd/lattice/checkerboard.h"
#include "lqcd/linalg/blas.h"
#include "lqcd/linalg/fermion_field.h"
#include "lqcd/solver/linear_operator.h"

namespace lqcd {

inline constexpr std::int64_t kDslashFlopsPerSite = 1344;
inline constexpr std::int64_t kCloverFlopsPerSite = 504;
inline constexpr std::int64_t kWilsonCloverFlopsPerSite = 1848;

/// Hopping-term sum at one site: sum over 8 directions of
/// (1 -/+ gamma_mu) U psi(neighbor). `in` is indexed by full lattice index
/// through the `index_of` functor so the same kernel serves full-lattice
/// and checkerboarded fields.
template <class T, class IndexOf>
inline Spinor<T> dslash_site(const Geometry& g, const GaugeField<T>& u,
                             const FermionField<T>& in, std::int32_t x,
                             IndexOf&& index_of) noexcept {
  Spinor<T> acc;
  acc.zero();
  for (int mu = 0; mu < kNumDims; ++mu) {
    // Forward: (1 - gamma_mu) U_mu(x) psi(x+mu).
    {
      const std::int32_t xf = g.neighbor(x, mu, Dir::kForward);
      const HalfSpinor<T> h = project(in[index_of(xf)], mu, -1);
      reconstruct_add(acc, mul(u.link(x, mu), h), mu, -1);
    }
    // Backward: (1 + gamma_mu) U_mu(x-mu)^dag psi(x-mu).
    {
      const std::int32_t xb = g.neighbor(x, mu, Dir::kBackward);
      const HalfSpinor<T> h = project(in[index_of(xb)], mu, +1);
      reconstruct_add(acc, mul_adj(u.link(xb, mu), h), mu, +1);
    }
  }
  return acc;
}

/// The full operator A; as a LinearOperator its apply() is what the
/// outer solvers run.
template <class T>
class WilsonCloverOperator final : public LinearOperator<T> {
 public:
  /// `gauge` must outlive the operator. mass is the bare quark-mass
  /// parameter m of Eq. 1; csw the clover coefficient.
  WilsonCloverOperator(const Geometry& geom, const Checkerboard& cb,
                       const GaugeField<T>& gauge, T mass, T csw)
      : geom_(&geom),
        cb_(&cb),
        gauge_(&gauge),
        mass_(mass),
        csw_(csw),
        clover_(geom, gauge, mass, csw) {}

  const Geometry& geometry() const noexcept { return *geom_; }
  const Checkerboard& checkerboard() const noexcept { return *cb_; }
  const GaugeField<T>& gauge() const noexcept { return *gauge_; }
  const CloverTerm<T>& clover() const noexcept { return clover_; }
  T mass() const noexcept { return mass_; }
  T csw() const noexcept { return csw_; }

  /// out = D_w in (full lattice).
  void apply_dslash(const FermionField<T>& in, FermionField<T>& out) const {
    const auto volume = geom_->volume();
    LQCD_CHECK(in.size() == volume && out.size() == volume);
#pragma omp parallel for schedule(static) default(none) \
    shared(volume, in, out)
    for (std::int32_t x = 0; x < static_cast<std::int32_t>(volume); ++x)
      out[x] = dslash_site(*geom_, *gauge_, in, x,
                           [](std::int32_t i) { return i; });
    flops_.fetch_add(volume * kDslashFlopsPerSite, kRelaxed);
  }

  /// out = A in (full lattice).
  void apply(const FermionField<T>& in, FermionField<T>& out) const override {
    const auto volume = geom_->volume();
    LQCD_CHECK(in.size() == volume && out.size() == volume);
    const T half = T(0.5);
#pragma omp parallel for schedule(static) default(none) \
    shared(volume, in, out, half)
    for (std::int32_t x = 0; x < static_cast<std::int32_t>(volume); ++x) {
      const Spinor<T> hop = dslash_site(*geom_, *gauge_, in, x,
                                        [](std::int32_t i) { return i; });
      Spinor<T> diag;
      clover_.apply_site(x, in[x], diag);
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          out[x].s[sp].c[c] = diag.s[sp].c[c] - half * hop.s[sp].c[c];
    }
    flops_.fetch_add(volume * kWilsonCloverFlopsPerSite, kRelaxed);
  }

  std::int64_t vector_size() const override { return geom_->volume(); }

  /// out_cb (parity `out_parity`, checkerboard-indexed, half_volume sites)
  /// = D_w restricted to hops from the opposite parity. in_cb is indexed
  /// by the opposite parity's checkerboard ordering.
  void apply_dslash_cb(int out_parity, const FermionField<T>& in_cb,
                       FermionField<T>& out_cb) const {
    const auto half = cb_->half_volume();
    LQCD_CHECK(in_cb.size() == half && out_cb.size() == half);
    const auto& sites = cb_->sites(out_parity);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, sites, in_cb, out_cb)
    for (std::int64_t i = 0; i < half; ++i) {
      const std::int32_t x = sites[static_cast<std::size_t>(i)];
      out_cb[i] = dslash_site(
          *geom_, *gauge_, in_cb, x,
          [this](std::int32_t full) { return cb_->cb_index(full); });
    }
    flops_.fetch_add(half * kDslashFlopsPerSite, kRelaxed);
  }

  /// Site-diagonal term on one parity: out_cb = (mass+clover) in_cb.
  void apply_diag_cb(int parity, const FermionField<T>& in_cb,
                     FermionField<T>& out_cb) const {
    const auto half = cb_->half_volume();
    LQCD_CHECK(in_cb.size() == half && out_cb.size() == half);
    const auto& sites = cb_->sites(parity);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, sites, in_cb, out_cb)
    for (std::int64_t i = 0; i < half; ++i)
      clover_.apply_site(sites[static_cast<std::size_t>(i)], in_cb[i],
                         out_cb[i]);
    flops_.fetch_add(half * kCloverFlopsPerSite, kRelaxed);
  }

  /// Inverse site-diagonal on one parity (requires prepare_schur()).
  void apply_diag_inv_cb(int parity, const FermionField<T>& in_cb,
                         FermionField<T>& out_cb) const {
    LQCD_CHECK_MSG(clover_.has_inverses(),
                   "call prepare_schur() before Schur operations");
    const auto half = cb_->half_volume();
    LQCD_CHECK(in_cb.size() == half && out_cb.size() == half);
    const auto& sites = cb_->sites(parity);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, sites, in_cb, out_cb)
    for (std::int64_t i = 0; i < half; ++i)
      clover_.apply_inv_site(sites[static_cast<std::size_t>(i)], in_cb[i],
                             out_cb[i]);
    flops_.fetch_add(half * kCloverFlopsPerSite, kRelaxed);
  }

  /// Precompute the odd-site block inverses used by the Schur complement.
  void prepare_schur() { clover_.compute_inverses(); }

  /// Recompute the clover term (and its Schur inverses, if prepared) from
  /// the CURRENT gauge links. The ABFT repair ladder calls this after
  /// restoring a corrupted gauge field from its verified master copy —
  /// the clover blocks are derived data, so they are rebuilt, not patched.
  void rebuild_clover() {
    const bool had_inverses = clover_.has_inverses();
    clover_ = CloverTerm<T>(*geom_, *gauge_, mass_, csw_);
    if (had_inverses) clover_.compute_inverses();
  }

  /// out_e = Dtilde_ee in_e = A_ee in_e - 1/4 D_eo A_oo^{-1} D_oe in_e
  /// (A_eo = -1/2 D_eo). Even-parity checkerboard fields.
  void apply_schur(const FermionField<T>& in_e, FermionField<T>& out_e) const {
    const auto half = cb_->half_volume();
    FermionField<T> tmp_o(half), tmp_o2(half), hop_e(half);
    apply_dslash_cb(/*out_parity=*/1, in_e, tmp_o);   // D_oe in_e
    apply_diag_inv_cb(1, tmp_o, tmp_o2);              // A_oo^{-1} ...
    apply_dslash_cb(/*out_parity=*/0, tmp_o2, hop_e); // D_eo ...
    apply_diag_cb(0, in_e, out_e);                    // A_ee in_e
    const T quarter = T(0.25);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, quarter, hop_e, out_e)
    for (std::int64_t i = 0; i < half; ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          out_e[i].s[sp].c[c] -= quarter * hop_e[i].s[sp].c[c];
  }

  /// Split a full-lattice field into its parity halves (cb ordering).
  void split(const FermionField<T>& full, FermionField<T>& even,
             FermionField<T>& odd) const {
    const auto half = cb_->half_volume();
    LQCD_CHECK(full.size() == geom_->volume());
    LQCD_CHECK(even.size() == half && odd.size() == half);
    for (std::int64_t i = 0; i < half; ++i) {
      even[i] = full[cb_->full_index(0, static_cast<std::int32_t>(i))];
      odd[i] = full[cb_->full_index(1, static_cast<std::int32_t>(i))];
    }
  }

  void merge(const FermionField<T>& even, const FermionField<T>& odd,
             FermionField<T>& full) const {
    const auto half = cb_->half_volume();
    LQCD_CHECK(full.size() == geom_->volume());
    for (std::int64_t i = 0; i < half; ++i) {
      full[cb_->full_index(0, static_cast<std::int32_t>(i))] = even[i];
      full[cb_->full_index(1, static_cast<std::int32_t>(i))] = odd[i];
    }
  }

  /// Schur right-hand side: fe_tilde = f_e - A_eo A_oo^{-1} f_o
  ///                                 = f_e + 1/2 D_eo A_oo^{-1} f_o.
  void schur_rhs(const FermionField<T>& f_e, const FermionField<T>& f_o,
                 FermionField<T>& fe_tilde) const {
    const auto half = cb_->half_volume();
    FermionField<T> tmp(half), hop(half);
    apply_diag_inv_cb(1, f_o, tmp);
    apply_dslash_cb(0, tmp, hop);
    const T hf = T(0.5);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, hf, f_e, hop, fe_tilde)
    for (std::int64_t i = 0; i < half; ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          fe_tilde[i].s[sp].c[c] =
              f_e[i].s[sp].c[c] + hf * hop[i].s[sp].c[c];
  }

  /// Reconstruct the odd half of the solution:
  ///   u_o = A_oo^{-1} (f_o - A_oe u_e) = A_oo^{-1} (f_o + 1/2 D_oe u_e).
  void reconstruct_odd(const FermionField<T>& f_o, const FermionField<T>& u_e,
                       FermionField<T>& u_o) const {
    const auto half = cb_->half_volume();
    FermionField<T> hop(half), rhs(half);
    apply_dslash_cb(1, u_e, hop);
    const T hf = T(0.5);
#pragma omp parallel for schedule(static) default(none) \
    shared(half, hf, f_o, hop, rhs)
    for (std::int64_t i = 0; i < half; ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          rhs[i].s[sp].c[c] = f_o[i].s[sp].c[c] + hf * hop[i].s[sp].c[c];
    apply_diag_inv_cb(1, rhs, u_o);
  }

  std::int64_t flops() const noexcept { return flops_.load(kRelaxed); }
  void reset_flops() const noexcept { flops_.store(0, kRelaxed); }

 private:
  const Geometry* geom_;
  const Checkerboard* cb_;
  const GaugeField<T>* gauge_;
  T mass_;
  T csw_;
  CloverTerm<T> clover_;
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  /// Atomic because DDSolvers sharing one setup apply this operator from
  /// concurrent solves; relaxed because the count orders nothing.
  mutable std::atomic<std::int64_t> flops_{0};
};

/// gamma_5 applied site-wise (for gamma5-hermiticity tests: gamma_5 A
/// gamma_5 = A^dag).
template <class T>
void apply_gamma5(const FermionField<T>& in, FermionField<T>& out) {
  LQCD_CHECK(in.size() == out.size());
  const std::int64_t n = in.size();
#pragma omp parallel for schedule(static) default(none) \
    shared(n, in, out, kGamma5)
  for (std::int64_t i = 0; i < n; ++i) out[i] = apply(kGamma5, in[i]);
}

}  // namespace lqcd
