// Minimal residual (MR) scalars of the Schwarz block solve [Saad,
// Iterative Methods, Sec. 5.3.2].
//
// MR is the paper's block solver (Sec. II-D): it needs only three vectors
// (x, r, Ar), which is what lets the per-domain solve run from L2 cache.
// Each iteration costs one operator application plus one pass for the two
// inner products.
//
// The Schwarz block solve stores a batch of right-hand sides with the RHS
// index innermost ([site][component][lane], see schwarz/storage.h) and
// runs the MR recurrence on all lanes in one pass. Each lane carries its
// OWN alpha = <Ar, r> / <Ar, Ar> — accumulated in double — and a lane
// whose <Ar, Ar> hits exact zero is masked out (alpha forced to 0,
// freezing its z and r): r lies in the null space of the block operator,
// so the lane has no usable direction left.
//
// The helpers below are layout-light on purpose: they take raw float
// pointers in the [complex component][lane] order plus the lane count, so
// they work on any container (or sub-range) with that innermost layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lqcd/simd/dispatch.h"

namespace lqcd {

/// Per-lane MR scalar state. `lanes` is the padded lane count; only the
/// first `active_lanes` start active (padding lanes never iterate and are
/// never counted).
struct LaneMRState {
  std::vector<double> arr_re, arr_im, arar;  ///< <Ar,r>, <Ar,Ar> per lane
  std::vector<float> alpha_re, alpha_im;     ///< current per-lane alpha
  std::vector<unsigned char> active;         ///< 1 while a lane iterates

  LaneMRState() = default;
  LaneMRState(int lanes, int active_lanes) { reset(lanes, active_lanes); }

  void reset(int lanes, int active_lanes) {
    arr_re.assign(static_cast<std::size_t>(lanes), 0.0);
    arr_im.assign(static_cast<std::size_t>(lanes), 0.0);
    arar.assign(static_cast<std::size_t>(lanes), 0.0);
    alpha_re.assign(static_cast<std::size_t>(lanes), 0.0f);
    alpha_im.assign(static_cast<std::size_t>(lanes), 0.0f);
    active.assign(static_cast<std::size_t>(lanes), 0);
    for (int l = 0; l < active_lanes && l < lanes; ++l)
      active[static_cast<std::size_t>(l)] = 1;
  }

  int lanes() const noexcept { return static_cast<int>(active.size()); }
  int num_active() const noexcept {
    int n = 0;
    for (const auto a : active) n += a;
    return n;
  }
};

/// One-pass accumulation of both MR inner products of every lane:
/// arr = <Ar, r>, arar = <Ar, Ar>. `r` and `ar` hold `ncomplex` complex
/// lane vectors — component 2k is the real part, 2k+1 the imaginary
/// part, each a contiguous run of `lanes` floats. Products are widened
/// to double.
inline void lane_mr_dots(const float* r, const float* ar,
                         std::int64_t ncomplex, int lanes, LaneMRState& st) {
  std::fill(st.arr_re.begin(), st.arr_re.end(), 0.0);
  std::fill(st.arr_im.begin(), st.arr_im.end(), 0.0);
  std::fill(st.arar.begin(), st.arar.end(), 0.0);
  simd::kernels().mr_dots_lanes(r, ar, ncomplex, lanes, st.arr_re.data(),
                                st.arr_im.data(), st.arar.data());
}

/// Per-lane alpha = arr / arar for the still-active lanes; a lane with
/// arar == 0 (converged or zero RHS) is deactivated and gets alpha = 0,
/// so the subsequent update freezes its z and r. Returns the number of
/// lanes still active AFTER masking.
inline int lane_mr_alphas(LaneMRState& st) noexcept {
  int remaining = 0;
  for (int l = 0; l < st.lanes(); ++l) {
    const auto ls = static_cast<std::size_t>(l);
    if (st.active[ls] == 0 || st.arar[ls] == 0.0) {
      st.active[ls] = 0;
      st.alpha_re[ls] = 0.0f;
      st.alpha_im[ls] = 0.0f;
      continue;
    }
    st.alpha_re[ls] = static_cast<float>(st.arr_re[ls] / st.arar[ls]);
    st.alpha_im[ls] = static_cast<float>(st.arr_im[ls] / st.arar[ls]);
    ++remaining;
  }
  return remaining;
}

/// The MR update, lane-wise: z += alpha r, r -= alpha Ar, with the
/// per-lane (masked) alphas of `st`. Layout as in lane_mr_dots.
inline void lane_mr_axpy(float* z, float* r, const float* ar,
                         std::int64_t ncomplex, int lanes,
                         const LaneMRState& st) {
  simd::kernels().mr_axpy_lanes(z, r, ar, ncomplex, lanes,
                                st.alpha_re.data(), st.alpha_im.data());
}

}  // namespace lqcd
