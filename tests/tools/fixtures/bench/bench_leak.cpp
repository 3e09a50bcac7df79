// SIMD containment fixture: benches reach kernels only through the
// dispatch table, like the rest of the tree outside src/lqcd/simd/.
#include "lqcd/simd/avx2_kernels.h"  // EXPECT: simd-dispatch-include

float first_lane() {
  return _mm256_cvtss_f32(_mm256_setzero_ps());  // EXPECT: simd-containment
}
