// Model of the Intel Xeon Phi "Knights Corner" (KNC) chip, as used on
// TACC Stampede (7110P: 61 cores at 1.1 GHz, 60 usable).
//
// This is our substitution for the physical hardware (DESIGN.md Sec. 2):
// an analytic machine model whose parameters come directly from the
// paper's own Sec. II-A description and Sec. IV-B1 instruction-mix
// arithmetic. Combined with *exact* flop/byte counts from the real
// algorithm implementation, it regenerates the performance tables.
#pragma once

namespace lqcd::knc {

struct KncSpec {
  int cores = 60;          ///< usable cores (61st runs the OS)
  double freq_ghz = 1.1;   ///< 7110P clock
  int simd_sp = 16;        ///< single-precision SIMD lanes
  int simd_dp = 8;         ///< double-precision SIMD lanes
  double l1_kb = 32.0;
  double l2_kb = 512.0;    ///< per-core L2 partition
  double mem_bw_gbs = 150.0;  ///< streaming bandwidth (Sec. II-A)

  // Sec. IV-B1 instruction-mix parameters for the Wilson-Clover kernel:
  double fma_fraction_efficiency = 0.82;  ///< 64% of flops are FMAs
  double simd_mask_efficiency = 0.93;     ///< x/y masking loss (Fig. 2)
  double compute_instruction_fraction = 0.54;
  double pairable_fraction = 0.72;  ///< of the non-compute instructions
  double pairing_found = 0.59;      ///< compiler pairing success

  /// Sec. IV-B1: compute efficiency
  ///   0.82 * 0.93 * 0.54 / (1 - 0.59*0.46) = 56%.
  double compute_efficiency() const noexcept {
    const double non_compute = 1.0 - compute_instruction_fraction;
    return fma_fraction_efficiency * simd_mask_efficiency *
           compute_instruction_fraction /
           (1.0 - pairing_found * non_compute);
  }

  /// Effective sustained flop/cycle/core in single precision:
  /// (16 + 16) * 0.56 = 18 (the paper's instruction-bound).
  double effective_sp_flops_per_cycle() const noexcept {
    return 2.0 * simd_sp * compute_efficiency();
  }

  /// Instruction-bound single-core rate: ~20 Gflop/s (paper Sec. IV-B1).
  double sp_gflops_bound_per_core() const noexcept {
    return effective_sp_flops_per_cycle() * freq_ghz;
  }

  double sp_peak_gflops() const noexcept {
    return 2.0 * simd_sp * freq_ghz * cores;
  }

  /// Memory bandwidth per core in bytes per cycle.
  double mem_bytes_per_cycle_per_core() const noexcept {
    return mem_bw_gbs / cores / freq_ghz;
  }
};

/// Measured rates of THIS host, filled at bench runtime by
/// bench/host_measure.h (pure data here, so the machine model keeps no
/// dependency on the solver layers). The host analogue of the Sec. IV-B1
/// instruction-mix estimate: su3_nn_gflops is the dense SU(3)
/// multiply ceiling, block_solve_gflops the full lane-vectorized Schwarz
/// block solve, and their ratio the host's measured compute-efficiency
/// factor — directly comparable to the KNC model's
/// compute_efficiency() = 0.56. bench_fig5/6/7 print these measured-host
/// values in columns next to the KNC-model ones.
struct HostCalibration {
  const char* backend = "scalar";  ///< active SIMD dispatch backend
  double su3_nn_gflops = 0;        ///< dense SU(3) matrix-multiply ceiling
  double dslash_gflops = 0;        ///< whole-domain lane dslash kernel
  double block_solve_gflops = 0;   ///< full lane-vectorized block solve
  double fp16_gbs = 0;             ///< binary16 round-trip bandwidth

  /// Measured host efficiency factor: sustained block-solve rate over the
  /// dense-compute ceiling (the roofline-style ratio; frequency cancels).
  double compute_efficiency() const noexcept {
    return su3_nn_gflops > 0 ? block_solve_gflops / su3_nn_gflops : 0.0;
  }

  /// Perfect-scaling projection of the measured single-thread block-solve
  /// rate to `cores` cores — the measured-host scaling column of Fig. 5.
  double scaled_block_solve_gflops(int cores) const noexcept {
    return block_solve_gflops * cores;
  }
};

}  // namespace lqcd::knc
