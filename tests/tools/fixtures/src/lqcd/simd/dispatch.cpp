// ci-wiring fixture: the backend names simd-ci-leg-check accepts. Raw
// intrinsics are allowed under src/lqcd/simd/.
#include <immintrin.h>
#include <string>

#include "lqcd/simd/dispatch.h"

Backend parse_backend(const std::string& name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  return Backend::kScalar;
}
