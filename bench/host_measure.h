// Measured host kernel rates (su3_bench methodology): first-principles
// flop counts, timed loops with result checksums so the compiler cannot
// discard the work, one HostCalibration per SIMD backend. Fills the
// pure-data knc::HostCalibration so the KNC machine model and the figure
// benches can print measured-host columns next to model columns.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/knc/machine.h"
#include "lqcd/simd/dispatch.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

namespace lqcd::bench {

// Per-site / per-call flop counts, from the repo's instrumented counter
// contract (knc/work_model.h and SchwarzStats): 198 per SU(3)
// matrix-matrix multiply, 168 per dslash hop, 504 per clover block pair.
inline constexpr double kFlopsSu3MulNn = 198.0;
inline constexpr double kFlopsPerHop = 168.0;
inline constexpr double kFlopsCloverPair = 504.0;

struct KernelMeasurement {
  double seconds = 0;   ///< per iteration
  double flops = 0;     ///< per iteration (0 for bandwidth-only kernels)
  double bytes = 0;     ///< per iteration (0 for compute kernels)
  double checksum = 0;  ///< DCE guard; also a cheap cross-backend check

  double gflops() const noexcept {
    return seconds > 0 ? flops / seconds / 1e9 : 0.0;
  }
  double gbs() const noexcept {
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
};

namespace detail {

inline std::vector<float> random_floats(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(0.5 * rng.gaussian());
  return v;
}

}  // namespace detail

/// Dense SU(3) matrix-matrix multiply over a matrix stream — the
/// compute-ceiling calibration kernel (su3_bench's core loop).
inline KernelMeasurement measure_su3_mul_nn(std::int64_t nmat,
                                            double min_seconds) {
  const auto a = detail::random_floats(nmat * 18, 101);
  const auto b = detail::random_floats(nmat * 18, 102);
  std::vector<float> c(static_cast<std::size_t>(nmat) * 18);
  KernelMeasurement m;
  const auto& k = simd::kernels();
  m.seconds = time_kernel(
      [&] {
        k.su3_mul_nn(a.data(), b.data(), c.data(), nmat);
        checksum_accumulate(m.checksum, c.data(),
                            static_cast<std::int64_t>(c.size()), 97);
      },
      min_seconds);
  m.flops = kFlopsSu3MulNn * static_cast<double>(nmat);
  return m;
}

/// The lane dslash through the dispatch table: one whole-domain
/// dslash_lanes call over `nsites` sites, 8 hops per site on a ring
/// neighborhood. Same kernel (and flop accounting: 168 per hop) as the
/// lane dslash inside the Schwarz block solve, without its gather and
/// boundary machinery.
inline KernelMeasurement measure_dslash_lanes(std::int32_t nsites, int lanes,
                                              double min_seconds) {
  const auto in = detail::random_floats(
      static_cast<std::int64_t>(nsites) * 24 * lanes, 121);
  const auto u = detail::random_floats(
      static_cast<std::int64_t>(nsites) * kNumDims * 18, 122);
  // [site][mu][dir] ring table, forward hop first; no hop leaves the ring.
  std::vector<std::int32_t> nbr(static_cast<std::size_t>(nsites) * 2 *
                                kNumDims);
  for (std::int32_t s = 0; s < nsites; ++s)
    for (int mu = 0; mu < kNumDims; ++mu) {
      const std::size_t base = (std::size_t(s) * kNumDims + mu) * 2;
      nbr[base] = (s + 1 + mu) % nsites;
      nbr[base + 1] = ((s - 1 - mu) % nsites + nsites) % nsites;
    }
  std::vector<float> out(in.size());
  KernelMeasurement m;
  const auto& k = simd::kernels();
  m.seconds = time_kernel(
      [&] {
        k.dslash_lanes(u.data(), nbr.data(), 0, 0, nsites, in.data(),
                       out.data(), lanes);
        checksum_accumulate(m.checksum, out.data(),
                            static_cast<std::int64_t>(out.size()), 83);
      },
      min_seconds);
  m.flops = kFlopsPerHop * 8.0 * static_cast<double>(nsites) * lanes;
  return m;
}

/// Clover block-pair application on lane vectors: one whole-domain
/// clover_lanes call over `nsites` sites.
inline KernelMeasurement measure_clover_lanes(std::int32_t nsites, int lanes,
                                              double min_seconds) {
  Rng rng(131);
  // Two packed blocks per site: 6 diagonal reals, 15 complex off-diagonals.
  std::vector<float> blocks(std::size_t(nsites) * 2 * kCloverBlockReals);
  for (std::size_t b = 0; b < blocks.size(); b += kCloverBlockReals)
    for (int k = 0; k < kCloverBlockReals; ++k)
      blocks[b + std::size_t(k)] = static_cast<float>(
          (k < kCloverBlockDim ? 1 : 0) + 0.1 * rng.gaussian());
  const auto in = detail::random_floats(
      static_cast<std::int64_t>(nsites) * 24 * lanes, 132);
  std::vector<float> out(in.size());
  KernelMeasurement m;
  const auto& k = simd::kernels();
  m.seconds = time_kernel(
      [&] {
        k.clover_lanes(blocks.data(), nsites, in.data(), out.data(), lanes);
        checksum_accumulate(m.checksum, out.data(),
                            static_cast<std::int64_t>(out.size()), 79);
      },
      min_seconds);
  m.flops = kFlopsCloverPair * static_cast<double>(nsites) * lanes;
  return m;
}

/// Binary16 round trip (down- then up-convert); bandwidth metric.
inline KernelMeasurement measure_fp16_roundtrip(std::int64_t n,
                                                double min_seconds) {
  const auto src = detail::random_floats(n, 141);
  std::vector<Half> mid(static_cast<std::size_t>(n));
  std::vector<float> back(static_cast<std::size_t>(n));
  KernelMeasurement m;
  const auto& k = simd::kernels();
  m.seconds = time_kernel(
      [&] {
        k.float_to_half_n(src.data(), mid.data(), n);
        k.half_to_float_n(mid.data(), back.data(), n);
        checksum_accumulate(m.checksum, back.data(), n, 101);
      },
      min_seconds);
  m.bytes = static_cast<double>(n) * (4 + 2 + 2 + 4);
  return m;
}

/// The full Schwarz block solve (gathers, halos, MR) on a small fixture at
/// `nrhs` right-hand sides (one: the one-lane kernels; more: padded to the
/// backend's lane width); flops come from the instrumented SchwarzStats
/// counters, which are backend-invariant by the dispatch contract.
inline KernelMeasurement measure_block_solve(int nrhs, double min_seconds) {
  Geometry geom({8, 8, 8, 8});
  Checkerboard cb(geom);
  auto gauge = convert<float>(random_gauge_field<double>(geom, 0.5, 151));
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.1f, 1.0f);
  op.prepare_schur();
  DomainPartition part(geom, {4, 4, 4, 4});
  SchwarzParams p;
  p.schwarz_iterations = 1;
  p.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m_pre(part, op, p);

  std::vector<FermionField<float>> ff(static_cast<std::size_t>(nrhs));
  std::vector<FermionField<float>> uu(static_cast<std::size_t>(nrhs));
  std::vector<const FermionField<float>*> fp;
  std::vector<FermionField<float>*> up;
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    ff[ii] = FermionField<float>(geom.volume());
    uu[ii] = FermionField<float>(geom.volume());
    gaussian(ff[ii], static_cast<std::uint64_t>(152 + i));
    fp.push_back(&ff[ii]);
    up.push_back(&uu[ii]);
  }

  KernelMeasurement m;
  const std::int64_t flops0 = m_pre.stats().flops;
  m_pre.apply_batch(fp, up);  // warm-up; also fixes flops-per-call
  const double flops_per_call =
      static_cast<double>(m_pre.stats().flops - flops0);
  m.seconds = time_kernel(
      [&] {
        m_pre.apply_batch(fp, up);
        checksum_accumulate(
            m.checksum, reinterpret_cast<const float*>(uu[0].data()), 24, 1);
      },
      min_seconds);
  m.flops = flops_per_call;
  return m;
}

/// Caps OpenMP at one thread while alive and restores the previous
/// limit: the rates measured here are per core, and the block solve
/// would otherwise run on every thread.
class OneThread {
 public:
  OneThread() {
#if defined(LQCD_HAVE_OPENMP)
    saved_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
  }
  ~OneThread() {
#if defined(LQCD_HAVE_OPENMP)
    omp_set_num_threads(saved_);
#endif
  }
  OneThread(const OneThread&) = delete;
  OneThread& operator=(const OneThread&) = delete;

 private:
  [[maybe_unused]] int saved_ = 1;
};

/// Measure one core of this host with the CURRENTLY ACTIVE dispatch
/// backend. `smoke` shrinks problem sizes and timing windows to CI scale.
/// The lane kernels and the block solve run at simd::kCommonLaneWidth
/// lanes, a multiple of every backend's lane width, so no backend runs a
/// tail.
inline knc::HostCalibration measure_host(bool smoke) {
  const OneThread one_thread;
  const double w = smoke ? 0.02 : 0.25;
  const std::int64_t nmat = smoke ? 2048 : 16384;
  const std::int32_t nsites = smoke ? 256 : 1024;
  const int lanes = simd::kCommonLaneWidth;

  knc::HostCalibration cal;
  cal.backend = simd::to_string(simd::active_backend());
  cal.su3_nn_gflops = measure_su3_mul_nn(nmat, w).gflops();
  cal.dslash_gflops = measure_dslash_lanes(nsites, lanes, w).gflops();
  cal.block_solve_gflops =
      measure_block_solve(lanes, smoke ? 0.05 : 0.5).gflops();
  cal.fp16_gbs = measure_fp16_roundtrip(smoke ? 1 << 15 : 1 << 20, w).gbs();
  return cal;
}

/// Measured-host column next to the KNC-model column — shared footer of
/// bench_fig5/6/7.
inline void print_host_vs_model(const knc::HostCalibration& cal,
                                const knc::KncSpec& spec) {
  Table t({"quantity", "host meas.", "KNC model"});
  t.row()
      .cell("backend")
      .cell(cal.backend)
      .cell("KNC 7110P");
  t.row()
      .cell("SU(3) ceiling [Gflop/s, 1 core]")
      .cell(cal.su3_nn_gflops, 1)
      .cell(2.0 * spec.simd_sp * spec.freq_ghz, 1);
  t.row()
      .cell("dslash hops [Gflop/s, 1 core]")
      .cell(cal.dslash_gflops, 1)
      .cell(spec.sp_gflops_bound_per_core(), 1);
  t.row()
      .cell("block solve [Gflop/s, 1 core]")
      .cell(cal.block_solve_gflops, 1)
      .cell(spec.sp_gflops_bound_per_core(), 1);
  t.row()
      .cell("efficiency factor")
      .cell(cal.compute_efficiency(), 2)
      .cell(spec.compute_efficiency(), 2);
  std::printf("Host calibration (measured, simd backend \"%s\") vs KNC "
              "machine model:\n%s\n",
              cal.backend, t.str().c_str());
}

}  // namespace lqcd::bench
