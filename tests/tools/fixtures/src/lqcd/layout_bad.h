// layout fixture: deliberately missing #pragma once, with raw
// allocations, a dangling include, an opaque call in a SIMD body and a
// raw intrinsic type outside src/lqcd/simd/.
inline int* leak() {  // EXPECT: pragma-once
  int* p = (int*)malloc(16);  // EXPECT: naked-alloc
  free(p);  // EXPECT: naked-alloc
  return p;
}

#include "lqcd/no_such_header.h"  // EXPECT: include-exists

inline void scale_all(float* a, int n) {
  LQCD_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) a[i] = opaque(a[i]);  // EXPECT: simd-opaque-call
}

inline __m256 lane_register;  // EXPECT: simd-containment
