// LinearOperator adapter for the even-even Schur complement
// Dtilde_ee = A_ee - A_eo A_oo^{-1} A_oe (paper Eq. 5) that even-odd
// preconditioning solves on the half lattice. Solving the Schur system
// typically halves the iteration count (paper cites ~2x, Ref. [14]);
// WilsonCloverOperator::schur_rhs and reconstruct_odd map a full-lattice
// right-hand side onto it and the even solution back.
#pragma once

#include "lqcd/dirac/wilson_clover.h"
#include "lqcd/solver/linear_operator.h"

namespace lqcd {

/// LinearOperator adapter for the even-even Schur operator Dtilde_ee.
template <class T>
class SchurLinOp final : public LinearOperator<T> {
 public:
  explicit SchurLinOp(const WilsonCloverOperator<T>& op) : op_(&op) {
    LQCD_CHECK_MSG(op.clover().has_inverses(),
                   "call prepare_schur() before building SchurLinOp");
  }
  void apply(const FermionField<T>& in, FermionField<T>& out) const override {
    op_->apply_schur(in, out);
  }
  std::int64_t vector_size() const override {
    return op_->checkerboard().half_volume();
  }

 private:
  const WilsonCloverOperator<T>* op_;
};

}  // namespace lqcd
