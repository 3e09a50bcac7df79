// The lane kernels behind the dispatch table, written once over a
// backend's vector type and chunk list.
//
// INTERNAL to src/lqcd/simd/: a backend is its vector traits, its chunk
// list and its one-lane kernels. The traits of the portable backend are
// below; avx2_kernels.h and backend_avx512.cpp add theirs. for_each_chunk()
// runs a chunk body over all lanes of a call: full chunks of each width
// in the backend's list, widest first, then one masked tail chunk. Every
// kernel at two or more lanes is that loop plus a chunk body:
//   - dslash_site(), pack_chunk() and xpay_chunks(), written once below
//     for every backend;
//   - the clover and MR bodies, one FMA-free set in scalar_kernels.h and
//     one FMA set in avx2_kernels.h that avx2 and avx512 share.
// A lane's result therefore does not depend on its chunk: a full chunk
// and the masked tail run the same operation sequence.
//
// The whole-domain lane dslash behind Kernels::dslash_lanes runs
// dslash_site() over the output sites and the chunks. Each hop projects,
// multiplies by the link and reconstructs one chunk of lanes in
// registers, with no half-spinor scratch in memory; a site's 24
// accumulators are stored once, after its eight hops. mu and the hop
// direction are template parameters, so every kGamma permutation and
// phase is a compile-time constant. The per-hop helpers are always
// inlined: keeping the accumulators in registers is the point, and left
// to its size heuristics GCC outlines the SU(3) rows of the portable
// backend's chunk, which then run from memory at a third of the speed.
//
// The boundary pack behind Kernels::pack_faces_lanes reuses the same
// projection and SU(3) rows (pack_chunk()).
//
// Numerics, per lane, are pinned so that every backend is bit-identical
// to the scalar one:
//   - projection and reconstruction compute a + s*phase*b with s = +-1,
//     as a + b' or a - b' (b' = b_re or b_im by the phase). Multiplying
//     by +-1 is exact and IEEE 754 defines a - b as a + (-b), so this is
//     the same value as the separate multiply;
//   - each SU(3) row is ((p0 + p1) + p2), every complex product p by
//     separate multiplies and one subtract or add;
//   - the accumulator starts at +0 and adds the hops in the order
//     mu = 0..3, forward before backward.
// No FMA anywhere in these bodies: every including TU compiles with
// -ffp-contract=off. Lane tails are masked vector chunks, never one lane
// in a plain float: on a single lane the real and imaginary halves of
// each complex product are the only independent statements, and GCC 12's
// SLP vectorizer pairs them into vfmaddsub even under -ffp-contract=off,
// which moves the last bit.
//
// A vector-traits type V provides
//   using reg = ...;                 one chunk of V::width floats
//   reg load(const float*) const;    void store(float*, reg) const;
//   static reg zero(), set1(float), add(reg, reg), sub(reg, reg),
//              mul(reg, reg);
// and, for the MR inner products, a chunk of doubles (load and store
// overloads on double*, widen(reg)). load and store are members so that
// a masked tail can carry its mask; a tail is constructed from its
// number of live lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "lqcd/base/aligned.h"
#include "lqcd/su3/gamma.h"

namespace lqcd::simd::detail {

/// K lanes as a float (or double) array with element-wise loops for the
/// compiler to vectorize: the portable backend's chunk. (Temporaries are
/// value-initialized: at K = 1 GCC 12 otherwise warns that they may be
/// used uninitialized.)
template <int K>
struct LaneArray {
  template <class T>
  struct vec {
    T v[K];
  };
  using reg = vec<float>;
  static constexpr int width = K;
  template <class T>
  vec<T> load(const T* p) const noexcept {
    vec<T> o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = p[l];
    return o;
  }
  template <class T>
  void store(T* p, const vec<T>& x) const noexcept {
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) p[l] = x.v[l];
  }
  static reg zero() noexcept { return set1(0.0f); }
  static reg set1(float x) noexcept {
    reg o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = x;
    return o;
  }
  static vec<double> widen(const reg& x) noexcept {
    vec<double> o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = x.v[l];
    return o;
  }
  template <class T>
  static vec<T> add(const vec<T>& a, const vec<T>& b) noexcept {
    vec<T> o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = a.v[l] + b.v[l];
    return o;
  }
  template <class T>
  static vec<T> sub(const vec<T>& a, const vec<T>& b) noexcept {
    vec<T> o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = a.v[l] - b.v[l];
    return o;
  }
  template <class T>
  static vec<T> mul(const vec<T>& a, const vec<T>& b) noexcept {
    vec<T> o{};
    LQCD_PRAGMA_SIMD
    for (int l = 0; l < K; ++l) o.v[l] = a.v[l] * b.v[l];
    return o;
  }
};

/// The last n < K lanes of a call in a LaneArray<K>: lanes from `n` on
/// compute on zeros and are never stored.
template <int K>
struct LaneArrayTail : LaneArray<K> {
  template <class T>
  using vec = typename LaneArray<K>::template vec<T>;
  int n;
  explicit LaneArrayTail(int live) noexcept : n(live) {}
  template <class T>
  vec<T> load(const T* p) const noexcept {
    vec<T> o{};
    for (int l = 0; l < K; ++l) o.v[l] = l < n ? p[l] : T(0);
    return o;
  }
  template <class T>
  void store(T* p, const vec<T>& x) const noexcept {
    for (int l = 0; l < n; ++l) p[l] = x.v[l];
  }
};

/// A backend's chunk list: full chunks of the widths Full::width, widest
/// first, then one Tail chunk for whatever is left.
template <class Tail, class... Full>
struct ChunkList {};

/// Calls body(v, c) for chunk traits v covering lanes [c, c + width) of
/// [0, n): as many full chunks of each width as fit, in list order, then
/// one Tail(n - c) if lanes remain. No chunk starts at or past `limit`
/// (the face pack stops at nrhs; every other kernel passes n).
template <class Tail, class... Full, class Body>
[[gnu::always_inline]] inline void for_each_chunk(ChunkList<Tail, Full...>,
                                                  std::int64_t n,
                                                  std::int64_t limit,
                                                  Body&& body) noexcept {
  std::int64_t c = 0;
  const auto full = [&](const auto& v) {
    for (; c + v.width <= n && c < limit; c += v.width) body(v, c);
  };
  (full(Full{}), ...);
  if (c < n && c < limit) body(Tail(static_cast<int>(n - c)), c);
}

/// How o = a + s*phase*b reads b for s = +-1: o_re = a_re -+ (swap ?
/// b_im : b_re), o_im = a_im -+ (swap ? b_re : b_im), subtracting where
/// neg_re / neg_im is set.
struct PhaseAdd {
  bool swap, neg_re, neg_im;
};

constexpr PhaseAdd phase_add(Phase p, bool plus) noexcept {
  switch (p) {
    case Phase::kPlusOne:
      return {false, !plus, !plus};
    case Phase::kMinusOne:
      return {false, plus, plus};
    case Phase::kPlusI:
      return {true, plus, !plus};
    case Phase::kMinusI:
    default:
      return {true, !plus, plus};
  }
}

/// o = a + s*phase*b for one complex component, s = +1 iff Plus.
/// In-place use (o == a) is fine.
template <Phase Ph, bool Plus, class V>
[[gnu::always_inline]] inline void add_phased(
    const typename V::reg& a_re, const typename V::reg& a_im,
    const typename V::reg& b_re, const typename V::reg& b_im,
    typename V::reg& o_re, typename V::reg& o_im) noexcept {
  constexpr PhaseAdd P = phase_add(Ph, Plus);
  const typename V::reg& x_re = P.swap ? b_im : b_re;
  const typename V::reg& x_im = P.swap ? b_re : b_im;
  if constexpr (P.neg_re)
    o_re = V::sub(a_re, x_re);
  else
    o_re = V::add(a_re, x_re);
  if constexpr (P.neg_im)
    o_im = V::sub(a_im, x_im);
  else
    o_im = V::add(a_im, x_im);
}

/// h[R] = row R of (1 +- gamma_Mu) psi for one chunk; `site` points at
/// the chunk's first lane of psi's 24 lane vectors.
template <int Mu, bool Plus, int R, class V>
[[gnu::always_inline]] inline void project_row(
    const V& v, const float* site, int lanes,
    typename V::reg (&h)[12]) noexcept {
  constexpr int col = kGamma[Mu].col[R];
  for (int c = 0; c < kNumColors; ++c) {
    const float* a = site + (R * kNumColors + c) * 2 * lanes;
    const float* b = site + (col * kNumColors + c) * 2 * lanes;
    add_phased<kGamma[Mu].phase[R], Plus, V>(
        v.load(a), v.load(a + lanes), v.load(b), v.load(b + lanes),
        h[(R * kNumColors + c) * 2], h[(R * kNumColors + c) * 2 + 1]);
  }
}

/// Color i of (U h)[Sp] (or (U^dagger h)[Sp]): each complex product by
/// separate multiplies and one subtract or add, summed ((p0 + p1) + p2).
template <bool Plus, int Sp, class V>
[[gnu::always_inline]] inline void su3_mul_color(
    const float* u, const typename V::reg (&h)[12], int i,
    typename V::reg& y_re, typename V::reg& y_im) noexcept {
  using Reg = typename V::reg;
  for (int j = 0; j < kNumColors; ++j) {
    // Plus multiplies by U^dagger: read U_{j,i} and conjugate.
    const float ur = Plus ? u[(j * 3 + i) * 2] : u[(i * 3 + j) * 2];
    const float ui = Plus ? -u[(j * 3 + i) * 2 + 1] : u[(i * 3 + j) * 2 + 1];
    const Reg vur = V::set1(ur);
    const Reg vui = V::set1(ui);
    const Reg& xr = h[(Sp * kNumColors + j) * 2];
    const Reg& xi = h[(Sp * kNumColors + j) * 2 + 1];
    const Reg re = V::sub(V::mul(vur, xr), V::mul(vui, xi));
    const Reg im = V::add(V::mul(vur, xi), V::mul(vui, xr));
    y_re = j == 0 ? re : V::add(y_re, re);
    y_im = j == 0 ? im : V::add(y_im, im);
  }
}

/// y = (U h)[Sp] (or (U^dagger h)[Sp]), then acc += its reconstruction:
/// spin row Sp directly and the lower row whose permutation column is Sp
/// through its phase. A forward hop (Plus == false) multiplies by U, a
/// backward hop by U^dagger.
template <int Mu, bool Plus, int Sp, class V>
[[gnu::always_inline]] inline void mul_reconstruct_row(
    const float* u, const typename V::reg (&h)[12],
    typename V::reg (&acc)[kSpinorReals]) noexcept {
  using Reg = typename V::reg;
  constexpr int lower = kGamma[Mu].col[2] == Sp ? 2 : 3;
  for (int i = 0; i < kNumColors; ++i) {
    Reg y_re{}, y_im{};
    su3_mul_color<Plus, Sp, V>(u, h, i, y_re, y_im);
    Reg& up_re = acc[(Sp * kNumColors + i) * 2];
    Reg& up_im = acc[(Sp * kNumColors + i) * 2 + 1];
    up_re = V::add(up_re, y_re);
    up_im = V::add(up_im, y_im);
    Reg& lo_re = acc[(lower * kNumColors + i) * 2];
    Reg& lo_im = acc[(lower * kNumColors + i) * 2 + 1];
    add_phased<kGamma[Mu].phase[lower], Plus, V>(lo_re, lo_im, y_re, y_im,
                                                 lo_re, lo_im);
  }
}

/// acc += (1 -+ gamma_Mu) U psi for one hop: forward (Plus == false) with
/// U = U_Mu(x), backward (Plus == true) with U = U_Mu(x - Mu)^dagger.
template <int Mu, bool Plus, class V>
[[gnu::always_inline]] inline void dslash_hop(
    const V& v, const float* site, const float* u, int lanes,
    typename V::reg (&acc)[kSpinorReals]) noexcept {
  typename V::reg h[12];
  project_row<Mu, Plus, 0>(v, site, lanes, h);
  project_row<Mu, Plus, 1>(v, site, lanes, h);
  mul_reconstruct_row<Mu, Plus, 0, V>(u, h, acc);
  mul_reconstruct_row<Mu, Plus, 1, V>(u, h, acc);
}

/// Both hops of direction Mu into local site l; a neighbor index < 0 is
/// outside the domain and its hop is skipped.
template <int Mu, class V>
[[gnu::always_inline]] inline void dslash_dim(
    const V& v, const float* links, const std::int32_t* nbr, std::int32_t l,
    std::int32_t in_off, const float* in, int lanes,
    typename V::reg (&acc)[kSpinorReals]) noexcept {
  const std::ptrdiff_t site_stride =
      static_cast<std::ptrdiff_t>(kSpinorReals) * lanes;
  const std::int32_t* nb =
      nbr + static_cast<std::size_t>(l) * 2 * kNumDims + 2 * Mu;
  if (nb[0] >= 0)
    dslash_hop<Mu, false>(
        v, in + (nb[0] - in_off) * site_stride,
        links + (static_cast<std::size_t>(l) * kNumDims + Mu) * 18, lanes,
        acc);
  if (nb[1] >= 0)
    dslash_hop<Mu, true>(
        v, in + (nb[1] - in_off) * site_stride,
        links + (static_cast<std::size_t>(nb[1]) * kNumDims + Mu) * 18,
        lanes, acc);
}

/// One output site (local site l), one chunk of V::width lanes: `in` and
/// `out_site` point at the chunk's first lane.
template <class V>
inline void dslash_site(const V& v, const float* links,
                        const std::int32_t* nbr, std::int32_t l,
                        std::int32_t in_off, const float* in, float* out_site,
                        int lanes) noexcept {
  typename V::reg acc[kSpinorReals];
  for (auto& a : acc) a = V::zero();
  dslash_dim<0>(v, links, nbr, l, in_off, in, lanes, acc);
  dslash_dim<1>(v, links, nbr, l, in_off, in, lanes, acc);
  dslash_dim<2>(v, links, nbr, l, in_off, in, lanes, acc);
  dslash_dim<3>(v, links, nbr, l, in_off, in, lanes, acc);
  for (int k = 0; k < kSpinorReals; ++k) v.store(out_site + k * lanes, acc[k]);
}

/// Calls `site.template operator()<Mu, Forward>(u, z_site, out)` for every
/// face site of Kernels::pack_faces_lanes, in face-buffer order: `u` is
/// U_Mu at the site, `z_site` the site's first lane of z and `out` the
/// site's 12 floats in the buffer of lane 0.
template <class SiteFn>
inline void for_each_face_site(const float* links,
                               const std::int32_t* face_sites,
                               const std::int32_t* face_size, const float* z,
                               int lanes, float* out, SiteFn&& site) noexcept {
  const std::size_t site_stride =
      static_cast<std::size_t>(kSpinorReals) * static_cast<std::size_t>(lanes);
  std::size_t p = 0;
  const auto face = [&]<int Mu, bool Forward>() {
    for (std::int32_t i = 0; i < face_size[Mu]; ++i, ++p) {
      const auto l = static_cast<std::size_t>(face_sites[p]);
      site.template operator()<Mu, Forward>(
          links + (l * kNumDims + Mu) * 18, z + l * site_stride, out + 12 * p);
    }
  };
  face.template operator()<0, true>();
  face.template operator()<0, false>();
  face.template operator()<1, true>();
  face.template operator()<1, false>();
  face.template operator()<2, true>();
  face.template operator()<2, false>();
  face.template operator()<3, true>();
  face.template operator()<3, false>();
}

/// One face site, one chunk of V::width lanes from lane c: the upper two
/// rows of (1 + gamma_Mu) z times U^dagger (Forward) or of (1 - gamma_Mu)
/// z, kept in registers, then written to the buffer of every lane
/// b < nrhs of the chunk at out + b * rhs_stride.
template <int Mu, bool Forward, class V>
[[gnu::always_inline]] inline void pack_chunk(
    const V& v, const float* u, const float* z_site, int lanes,
    std::int64_t c, int nrhs, float* out, std::int64_t rhs_stride) noexcept {
  using Reg = typename V::reg;
  Reg h[12];
  project_row<Mu, Forward, 0>(v, z_site + c, lanes, h);
  project_row<Mu, Forward, 1>(v, z_site + c, lanes, h);
  float t[12][V::width];
  if constexpr (Forward) {
    for (int sp = 0; sp < 2; ++sp)
      for (int i = 0; i < kNumColors; ++i) {
        Reg y_re{}, y_im{};
        if (sp == 0)
          su3_mul_color<true, 0, V>(u, h, i, y_re, y_im);
        else
          su3_mul_color<true, 1, V>(u, h, i, y_re, y_im);
        v.store(t[(sp * kNumColors + i) * 2], y_re);
        v.store(t[(sp * kNumColors + i) * 2 + 1], y_im);
      }
  } else {
    for (int k = 0; k < 12; ++k) v.store(t[k], h[k]);
  }
  const std::int64_t n = nrhs - c < V::width ? nrhs - c : V::width;
  for (std::int64_t b = 0; b < n; ++b) {
    float* o = out + (c + b) * rhs_stride;
    for (int k = 0; k < 12; ++k) o[k] = t[k][b];
  }
}

/// Kernels::dslash_lanes at two or more lanes: dslash_site() over the
/// output sites and the chunks of list C.
template <class C>
inline void dslash_chunks(const float* links, const std::int32_t* nbr,
                          std::int32_t l0, std::int32_t in_off,
                          std::int32_t nsites, const float* in, float* out,
                          int lanes) noexcept {
  for (std::int32_t i = 0; i < nsites; ++i) {
    float* o = out + static_cast<std::size_t>(i) * kSpinorReals *
                         static_cast<std::size_t>(lanes);
    for_each_chunk(C{}, lanes, lanes, [&](const auto& v, std::int64_t c) {
      dslash_site(v, links, nbr, l0 + i, in_off, in + c, o + c, lanes);
    });
  }
}

/// Kernels::pack_faces_lanes at two or more lanes: pack_chunk() over the
/// face sites and the chunks of list C that start below nrhs.
template <class C>
inline void pack_faces_chunks(const float* links,
                              const std::int32_t* face_sites,
                              const std::int32_t* face_size, const float* z,
                              int lanes, int nrhs, float* out,
                              std::int64_t rhs_stride) noexcept {
  for_each_face_site(
      links, face_sites, face_size, z, lanes, out,
      [&]<int Mu, bool Forward>(const float* u, const float* zs, float* o) {
        for_each_chunk(C{}, lanes, nrhs, [&](const auto& v, std::int64_t c) {
          pack_chunk<Mu, Forward>(v, u, zs, lanes, c, nrhs, o, rhs_stride);
        });
      });
}

/// Kernels::xpay_lanes in chunks of list C: out = x + s * y with a
/// separate multiply and add per float, as xpay is in the bit-exact tier.
template <class C>
inline void xpay_chunks(const float* x, float s, const float* y, float* out,
                        std::int64_t n) noexcept {
  for_each_chunk(C{}, n, n, [&](const auto& v, std::int64_t c) {
    using V = std::decay_t<decltype(v)>;
    v.store(out + c,
            V::add(v.load(x + c), V::mul(V::set1(s), v.load(y + c))));
  });
}

}  // namespace lqcd::simd::detail
