#pragma once

// omp-include-guard fixture: <omp.h> belongs only in a branch where
// LQCD_HAVE_OPENMP is defined; each other placement breaks the
// -DLQCD_ENABLE_OPENMP=OFF build.
#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>
#else
#include <omp.h>  // EXPECT: omp-include-guard
#endif

#if !defined(LQCD_HAVE_OPENMP)
#include <omp.h>  // EXPECT: omp-include-guard
#endif

#include <omp.h>  // EXPECT: omp-include-guard
