// The clover construction, compiled in this one translation unit so that
// every binary builds the same clover term bit for bit: how the compiler
// contracts this arithmetic into FMAs sets its last bits, and a header
// copy would let each translation unit that includes it choose again.
#include "lqcd/dirac/clover_term.h"

namespace lqcd {

namespace detail {

/// Clover-leaf sum Q_{mu,nu}(x): the four plaquettes in the (mu,nu) plane
/// that touch x, each traversed counterclockwise starting at x.
template <class T>
SU3<T> clover_leaves(const Geometry& g, const GaugeField<T>& u,
                     std::int32_t x, int mu, int nu) {
  const std::int32_t xpm = g.neighbor(x, mu, Dir::kForward);
  const std::int32_t xpn = g.neighbor(x, nu, Dir::kForward);
  const std::int32_t xmm = g.neighbor(x, mu, Dir::kBackward);
  const std::int32_t xmn = g.neighbor(x, nu, Dir::kBackward);
  const std::int32_t xmm_pn = g.neighbor(xmm, nu, Dir::kForward);
  const std::int32_t xmm_mn = g.neighbor(xmm, nu, Dir::kBackward);
  const std::int32_t xpm_mn = g.neighbor(xpm, nu, Dir::kBackward);

  // Leaf 1: x -> x+mu -> x+mu+nu -> x+nu -> x
  SU3<T> p1 = mul(u.link(x, mu), u.link(xpm, nu));
  p1 = mul_adj(p1, u.link(xpn, mu));
  p1 = mul_adj(p1, u.link(x, nu));
  // Leaf 2: x -> x+nu -> x+nu-mu -> x-mu -> x
  SU3<T> p2 = mul_adj(u.link(x, nu), u.link(xmm_pn, mu));
  p2 = mul_adj(p2, u.link(xmm, nu));
  p2 = mul(p2, u.link(xmm, mu));
  // Leaf 3: x -> x-mu -> x-mu-nu -> x-nu -> x
  SU3<T> p3 = mul(adjoint(u.link(xmm, mu)), adjoint(u.link(xmm_mn, nu)));
  p3 = mul(p3, u.link(xmm_mn, mu));
  p3 = mul(p3, u.link(xmn, nu));
  // Leaf 4: x -> x-nu -> x+mu-nu -> x+mu -> x
  SU3<T> p4 = mul(adjoint(u.link(xmn, nu)), u.link(xmn, mu));
  p4 = mul(p4, u.link(xpm_mn, nu));
  p4 = mul_adj(p4, u.link(x, mu));

  return p1 + p2 + p3 + p4;
}

/// Fhat_{mu,nu} = traceless antihermitian part of Q/8 (the discretized
/// field-strength tensor; exactly zero on the free field).
template <class T>
SU3<T> field_strength(const Geometry& g, const GaugeField<T>& u,
                      std::int32_t x, int mu, int nu) {
  const SU3<T> q = clover_leaves(g, u, x, mu, nu);
  SU3<T> f = Complex<T>(T(0.125), 0) * (q - adjoint(q));
  const Complex<T> tr = trace(f);
  const Complex<T> third(tr.real() / kNumColors, tr.imag() / kNumColors);
  for (int i = 0; i < kNumColors; ++i) f.m[i][i] -= third;
  return f;
}

template SU3<float> clover_leaves(const Geometry&, const GaugeField<float>&,
                                  std::int32_t, int, int);
template SU3<double> clover_leaves(const Geometry&,
                                   const GaugeField<double>&, std::int32_t,
                                   int, int);

}  // namespace detail

template <class T>
CloverTerm<T>::CloverTerm(const Geometry& geom, const GaugeField<T>& u,
                          T mass, T csw)
    : geom_(&geom), blocks_(static_cast<std::size_t>(geom.volume()) * 2) {
  const T diag_mass = static_cast<T>(kNumDims) + mass;
  const auto volume = geom.volume();

#pragma omp parallel for schedule(static) default(none) \
    shared(volume, geom, u, csw, diag_mass)
  for (std::int32_t x = 0; x < static_cast<std::int32_t>(volume); ++x) {
    // Dense accumulation per chirality: index i = spin_local*3 + color.
    Complex<T> dense[2][kCloverBlockDim][kCloverBlockDim] = {};
    if (csw != T(0)) {
      for (int mu = 0; mu < kNumDims; ++mu)
        for (int nu = mu + 1; nu < kNumDims; ++nu) {
          const SU3<T> f = detail::field_strength(geom, u, x, mu, nu);
          const PermPhaseMatrix sig = sigma_munu(mu, nu);
          // Entry: csw/4 * i*sigma[s][s'] * F[c][c'].
          for (int chi = 0; chi < 2; ++chi)
            for (int sl = 0; sl < 2; ++sl) {
              const int s = 2 * chi + sl;
              const int s_col = sig.col[static_cast<size_t>(s)];
              const int sl_col = s_col - 2 * chi;  // same chirality
              const Complex<T> coeff = mul_phase(
                  sig.phase[static_cast<size_t>(s)] * Phase::kPlusI,
                  Complex<T>(csw / T(4), 0));
              for (int c = 0; c < kNumColors; ++c)
                for (int cp = 0; cp < kNumColors; ++cp)
                  dense[chi][sl * kNumColors + c][sl_col * kNumColors + cp] +=
                      coeff * f.m[c][cp];
            }
        }
    }
    for (int chi = 0; chi < 2; ++chi) {
      PackedHermitian6<T>& b = block_ref(x, chi);
      for (int i = 0; i < kCloverBlockDim; ++i) {
        b.diag[i] = dense[chi][i][i].real() + diag_mass;
        for (int j = 0; j < i; ++j)
          b.offd[packed_index(i, j)] = dense[chi][i][j];
      }
    }
  }
}

template <class T>
void CloverTerm<T>::compute_inverses() {
  inv_blocks_.resize(blocks_.size());
  const auto n = static_cast<std::int64_t>(blocks_.size());
  // A singular block (pathological gauge config) must not throw from
  // inside the region — that is std::terminate. Count failures and
  // throw once, after the region.
  std::int64_t n_singular = 0;
#pragma omp parallel for schedule(static) default(none) shared(n) \
    reduction(+ : n_singular)
  for (std::int64_t i = 0; i < n; ++i)
    if (!try_invert(blocks_[static_cast<std::size_t>(i)],
                    inv_blocks_[static_cast<std::size_t>(i)]))
      ++n_singular;
  if (n_singular != 0) {
    inv_blocks_.clear();  // keep has_inverses() false on failure
    LQCD_CHECK_MSG(n_singular == 0, "singular clover block(s)");
  }
}

template class CloverTerm<float>;
template class CloverTerm<double>;

}  // namespace lqcd
