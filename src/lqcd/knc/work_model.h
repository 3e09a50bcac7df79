// Analytic work descriptors for the DD algorithm's kernels.
//
// These formulas mirror, operation for operation, the instrumented
// counters of SchwarzPreconditioner (tests assert the match), so that
// paper-scale lattices — far too large to execute numerically here — can
// be fed to the machine model with *exact* flop and byte counts.
#pragma once

#include <cstdint>
#include <vector>

#include "lqcd/knc/kernel_model.h"
#include "lqcd/lattice/geometry.h"

namespace lqcd::knc {

/// Work of one Schwarz block solve (Idomain MR iterations with even-odd
/// preconditioning + Schur RHS + odd reconstruction + boundary packing)
/// on one `block`-shaped domain.
struct BlockSolveWork {
  double flops = 0;
  double l2_bytes_per_schur = 0;  ///< working-set traffic per Schur apply
  double matrix_bytes = 0;        ///< links+clover storage (precision-dep.)
  double pack_bytes = 0;          ///< boundary buffer bytes produced
  double working_set_bytes = 0;   ///< matrices + the 7 resident spinors
  /// Fraction of the RHS-lane vector slots doing useful work (1.0 for a
  /// single RHS, which runs at one lane; nrhs / padded-lane-count for a
  /// padded SOA-over-RHS lane batch). See rhs_lane_efficiency().
  double rhs_lane_efficiency = 1.0;
  KernelWork kernel;              ///< aggregated descriptor for the model
};

inline std::int64_t block_volume(const Coord& block) noexcept {
  return std::int64_t{1} * block[0] * block[1] * block[2] * block[3];
}

/// Directed in-domain hops from the sites of one parity (the count behind
/// each half-dslash; 168 flops per hop).
inline std::int64_t block_hops_per_parity(const Coord& block) noexcept {
  const std::int64_t vd = block_volume(block);
  std::int64_t crossing = 0;
  for (int mu = 0; mu < kNumDims; ++mu)
    crossing += vd / block[static_cast<std::size_t>(mu)];
  return 8 * (vd / 2) - crossing;
}

inline std::int64_t block_face_sites(const Coord& block) noexcept {
  const std::int64_t vd = block_volume(block);
  std::int64_t faces = 0;
  for (int mu = 0; mu < kNumDims; ++mu)
    faces += 2 * (vd / block[static_cast<std::size_t>(mu)]);
  return faces;
}

/// Flops of one Schur-complement application on the block (matches
/// SchwarzPreconditioner::schur_flops()).
inline double block_schur_flops(const Coord& block) noexcept {
  const double vd = static_cast<double>(block_volume(block));
  const double hops = static_cast<double>(block_hops_per_parity(block));
  return 168.0 * 2.0 * hops + vd * 504.0 / 2.0 * 2.0 + (vd / 2.0) * 24.0;
}

/// RHS lanes per vector on the KNC: its 512-bit SIMD holds 16
/// single-precision lanes (paper Sec. II-A), so the modelled lane batch
/// pads to a multiple of 16.
inline constexpr int kRhsLaneWidth = 16;

/// Fraction of RHS-lane vector slots doing useful work when nrhs
/// right-hand sides are padded up to a multiple of `width` lanes:
/// nrhs / padded(nrhs). nrhs <= 1 runs unpadded (1.0).
inline double rhs_lane_efficiency(int nrhs,
                                  int width = kRhsLaneWidth) noexcept {
  if (nrhs <= 1) return 1.0;
  const int padded = (nrhs + width - 1) / width * width;
  return static_cast<double>(nrhs) / static_cast<double>(padded);
}

/// Scale a kernel descriptor for RHS-lane padding waste: the vector units
/// execute padded-lane flops to retire the useful ones, so the EXECUTED
/// flop count (what occupies the FPU pipes) is useful / efficiency.
/// Byte traffic is unchanged — padding lanes live in registers/L1.
inline KernelWork apply_rhs_lane_padding(KernelWork w,
                                         double efficiency) noexcept {
  if (efficiency > 0.0 && efficiency < 1.0) w.flops /= efficiency;
  return w;
}

/// `nrhs` models the multi-RHS batched domain visit (paper Sec. VI): the
/// packed gauge+clover matrices are streamed ONCE per visit while every
/// spinor quantity — flops, spinor traffic, packed buffers — scales with
/// the number of right-hand sides. nrhs = 1 reproduces the historical
/// single-RHS descriptor exactly. The descriptor counts USEFUL flops;
/// combine with rhs_lane_efficiency / apply_rhs_lane_padding to model the
/// executed-flop cost of the lane-vectorized path's padding.
inline BlockSolveWork block_solve_work(const Coord& block, int idomain,
                                       bool half_matrices,
                                       int nrhs = 1) noexcept {
  BlockSolveWork w;
  const double vd = static_cast<double>(block_volume(block));
  const double hv = vd / 2.0;
  const double hops = static_cast<double>(block_hops_per_parity(block));
  const double faces = static_cast<double>(block_face_sites(block));
  const double spinor_site_bytes = 96.0;  // 24 floats
  const double matrix_scalar = half_matrices ? 2.0 : 4.0;
  const double nb = static_cast<double>(nrhs);

  const double schur = block_schur_flops(block);
  const double mr_iter = schur + hv * 24.0 * 3.0 /* dots */ +
                         hv * 24.0 * 4.0 /* axpys */;
  const double rhs = hv * 504.0 + 168.0 * hops + hv * 24.0;
  const double reconstruct = 168.0 * hops + hv * (504.0 + 24.0);
  const double pack = faces / 2.0 * (12.0 + 132.0) + faces / 2.0 * 12.0;
  // R-coupling insertion on the consumer side (per producing domain):
  // forward-face data is reconstructed directly (48 flops/site), the
  // backward-face data is link-multiplied first (132 + 48 flops/site).
  const double consume = faces / 2.0 * 48.0 + faces / 2.0 * 180.0;
  w.flops = nb * (idomain * mr_iter + rhs + reconstruct + pack + consume);

  // L2 working-set traffic per Schur apply: the matrices (batch-shared)
  // plus ~4 half-volume spinor streams per RHS.
  w.matrix_bytes = vd * (72.0 + 72.0) * matrix_scalar;
  w.l2_bytes_per_schur = w.matrix_bytes + nb * 4.0 * hv * spinor_site_bytes;
  w.pack_bytes = nb * faces * spinor_site_bytes / 2.0;  // half-spinors: 48 B

  w.kernel.flops = w.flops;
  // The matrices (and spinor temporaries) are touched once per Schur
  // apply: Idomain MR iterations plus the RHS preparation and the odd
  // reconstruction, each of which performs one matrix sweep.
  w.kernel.l2_bytes = (idomain + 2.0) * w.l2_bytes_per_schur;
  // Streamed from memory once per batched domain visit: the matrices
  // (once!) plus, per RHS, the residual gather and the u/r/z writes and
  // the packed buffers — this is the whole point of batching.
  w.kernel.mem_bytes =
      w.matrix_bytes + nb * 3.0 * vd * spinor_site_bytes + w.pack_bytes;
  w.working_set_bytes = w.matrix_bytes + nb * 7.0 * hv * spinor_site_bytes;
  w.rhs_lane_efficiency = rhs_lane_efficiency(nrhs);
  return w;
}

/// Cache-capacity correction (the reason the paper picks 8x4^3 blocks,
/// Sec. III-B): when the block's working set exceeds the per-core L2
/// partition, the "L2-resident" traffic actually streams from main
/// memory every Schur application.
inline KernelWork apply_cache_capacity(KernelWork w,
                                       double working_set_bytes,
                                       double l2_capacity_bytes) noexcept {
  if (working_set_bytes > l2_capacity_bytes) {
    w.mem_bytes += w.l2_bytes;
    w.l2_bytes = 0;
  }
  return w;
}

/// Work of one ABFT checksum verification of a domain's packed matrices
/// (gauge links + clover diagonal + clover inverse). Fletcher-32 costs a
/// couple of integer adds per accumulated 16-bit word, so the sweep is a
/// pure streaming pass — memory-bandwidth-bound at any realistic rate.
inline KernelWork checksum_verify_work(const Coord& block,
                                       bool half_matrices) noexcept {
  const double vd = static_cast<double>(block_volume(block));
  const double matrix_bytes =
      vd * (72.0 + 72.0) * (half_matrices ? 2.0 : 4.0);
  KernelWork w;
  w.flops = matrix_bytes;  // ~2 integer ops per 16-bit word
  w.l2_bytes = 0;
  w.mem_bytes = matrix_bytes;
  return w;
}

/// Work of one MR iteration alone (the "MR iteration" rows of Table II):
/// runs from L2, no memory traffic.
inline KernelWork mr_iteration_work(const Coord& block,
                                    bool half_matrices) noexcept {
  const BlockSolveWork bw = block_solve_work(block, 1, half_matrices);
  KernelWork w;
  const double hv = block_volume(block) / 2.0;
  w.flops = block_schur_flops(block) + hv * 24.0 * 7.0;
  w.l2_bytes = bw.l2_bytes_per_schur;
  w.mem_bytes = 0;
  return w;
}

// ---------------------------------------------------------------------------
// Collective (allreduce) traffic over the host-proxy tree (paper Sec. V).
// ---------------------------------------------------------------------------

/// Message/byte totals of one itemized-payload allreduce. These formulas
/// mirror, hop for hop, the fault-free vnode emulation
/// (lqcd::tree_allreduce) — tests assert the match — so paper-scale rank
/// counts can be fed to the model with exact collective traffic.
struct CollectiveWork {
  double messages = 0;  ///< tree hops, up + down
  double bytes = 0;     ///< itemized payload bytes over all hops
  int depth = 0;        ///< tree depth (latency-critical path length)
};

/// Traffic of one allreduce over `ranks` virtual ranks on a complete
/// fanout-ary proxy tree with itemized (rank, value) payloads of
/// `entry_bytes` each: every non-root rank sends its subtree's entries up
/// (sum of subtree sizes) and receives one result entry down.
inline CollectiveWork allreduce_tree_work(int ranks, double entry_bytes,
                                          int fanout = 2) noexcept {
  CollectiveWork w;
  if (ranks <= 1 || fanout < 1) return w;
  std::vector<std::int64_t> subtree(static_cast<std::size_t>(ranks), 1);
  for (int r = ranks - 1; r >= 1; --r)
    subtree[static_cast<std::size_t>((r - 1) / fanout)] +=
        subtree[static_cast<std::size_t>(r)];
  double up_entries = 0;
  for (int r = 1; r < ranks; ++r)
    up_entries += static_cast<double>(subtree[static_cast<std::size_t>(r)]);
  w.messages = 2.0 * (ranks - 1);
  w.bytes = (up_entries + (ranks - 1)) * entry_bytes;
  for (int r = ranks - 1; r > 0; r = (r - 1) / fanout) ++w.depth;
  return w;
}

// ---------------------------------------------------------------------------
// Core-count scaling (paper Eqs. 6 and 7).
// ---------------------------------------------------------------------------

/// Eq. 6: domains processable in parallel (one color of the multiplicative
/// checkerboarding) for local volume V and block volume Vd.
inline std::int64_t ndomain_per_color(std::int64_t local_volume,
                                      const Coord& block) noexcept {
  return local_volume / (2 * block_volume(block));
}

/// Eq. 7: average load of `cores` cores processing `ndomain` domains
/// round-robin.
inline double core_load(std::int64_t ndomain, int cores) noexcept {
  if (ndomain <= 0) return 0.0;
  const std::int64_t rounds = (ndomain + cores - 1) / cores;
  return static_cast<double>(ndomain) /
         (static_cast<double>(cores) * static_cast<double>(rounds));
}

}  // namespace lqcd::knc
