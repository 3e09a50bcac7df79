// Non-DD baseline solvers, matching the paper's comparison points
// (Table III, lower blocks):
//   * plain double-precision BiCGstab,
//   * mixed-precision iterative refinement: outer Richardson (double)
//     with an inner single-precision BiCGstab solved to residual 0.1.
#pragma once

#include <memory>

#include "lqcd/dirac/wilson_clover.h"
#include "lqcd/solver/bicgstab.h"
#include "lqcd/solver/richardson.h"

namespace lqcd {

struct NonDDSolverConfig {
  enum class Mode {
    kDoubleBiCGstab,   ///< paper's 48^3x64 baseline
    kMixedRichardson,  ///< paper's 64^3x128 baseline
  };
  Mode mode = Mode::kDoubleBiCGstab;
  double tolerance = 1e-10;
  double inner_tolerance = 0.1;  ///< inner BiCGstab target (mixed mode)
  int max_iterations = 50000;
};

class NonDDSolver {
 public:
  NonDDSolver(const Geometry& geom, const GaugeField<double>& gauge,
              double mass, double csw, const NonDDSolverConfig& config)
      : config_(config), cb_(geom) {
    op_d_ = std::make_unique<WilsonCloverOperator<double>>(geom, cb_, gauge,
                                                           mass, csw);
    if (config.mode == NonDDSolverConfig::Mode::kMixedRichardson) {
      gauge_f_ = std::make_unique<GaugeField<float>>(convert<float>(gauge));
      op_f_ = std::make_unique<WilsonCloverOperator<float>>(
          geom, cb_, *gauge_f_, static_cast<float>(mass),
          static_cast<float>(csw));
    }
  }

  SolverStats solve(const FermionField<double>& b, FermionField<double>& x) {
    if (config_.mode == NonDDSolverConfig::Mode::kDoubleBiCGstab) {
      BiCGstabParams p;
      p.tolerance = config_.tolerance;
      p.max_iterations = config_.max_iterations;
      return bicgstab_solve(*op_d_, b, x, p);
    }
    InnerSolver<float> inner = [this](const FermionField<float>& rhs,
                                      FermionField<float>& corr) {
      BiCGstabParams pi;
      pi.tolerance = config_.inner_tolerance;
      pi.max_iterations = config_.max_iterations;
      return bicgstab_solve(*op_f_, rhs, corr, pi);
    };
    RichardsonParams pr;
    pr.tolerance = config_.tolerance;
    return richardson_solve<double, float>(*op_d_, b, x, inner, pr);
  }

  const WilsonCloverOperator<double>& op() const noexcept { return *op_d_; }

 private:
  NonDDSolverConfig config_;
  Checkerboard cb_;
  std::unique_ptr<WilsonCloverOperator<double>> op_d_;
  std::unique_ptr<GaugeField<float>> gauge_f_;
  std::unique_ptr<WilsonCloverOperator<float>> op_f_;
};

}  // namespace lqcd
