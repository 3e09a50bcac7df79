#pragma once

// Clean layout fixture: every layout rule's trigger in its allowed form.
#include "lqcd/simd/dispatch.h"

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#endif

inline void root_all(float* a, int n) {
  LQCD_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) a[i] = sqrtf(a[i]);
}
