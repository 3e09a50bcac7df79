// fp-determinism fixture: defines no kernel itself, but includes a
// header that does; the runner's synthetic compile entry for this TU
// omits -ffp-contract=off.  EXPECT-TU: fp-determinism
#include "lqcd/fpdet_kernels.h"

void axpy_twice(float* y, const float* x, int n) {
  xpay_lanes(y, x, 2.0f, n);
}
