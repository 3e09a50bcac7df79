#pragma once

// fp-determinism fixture: a bit-exact kernel defined in a header. The
// TU that includes it (src/fpdet_header.cpp) is a bit-exact TU.
inline void xpay_lanes(float* y, const float* x, float a, int n) {
  for (int i = 0; i < n; ++i) y[i] = a * y[i] + x[i];  // EXPECT: fp-determinism
}
