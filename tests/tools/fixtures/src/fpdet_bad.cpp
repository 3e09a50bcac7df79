// fp-determinism fixture: su3_mul_nn / xpay_lanes / dslash_lanes are on
// the bit-exact list; the runner's synthetic compile entry for this TU
// deliberately omits -ffp-contract=off.  EXPECT-TU: fp-determinism

void su3_mul_nn(const float* a, const float* b, float* c) {
  for (int i = 0; i < 9; ++i)
    c[i] = a[i] * b[i] + c[i];  // EXPECT: fp-determinism
}

float helper_fma(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);  // EXPECT: fp-determinism
}

void xpay_lanes(float* y, const float* x, float a, int n) {
  for (int i = 0; i < n; ++i) y[i] = helper_fma(x[i], a, y[i]);
}

// A bit-exact kernel whose chunk body is a lambda handed to a template
// chunk loop (the shape of the SIMD backends' lane kernels): the FMA
// helper the body calls is still on the kernel's path.
template <class Body>
void for_each_chunk(int n, Body&& body) {
  for (int c = 0; c < n; c += 8) body(c);
}

float chunk_fma(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);  // EXPECT: fp-determinism
}

void dslash_lanes(const float* in, float* out, int n) {
  for_each_chunk(n, [&](int c) { out[c] = chunk_fma(in[c], 2.0f, out[c]); });
}

// A bit-exact kernel that reaches its FMA helper through a call with
// explicit template arguments (the shape of dslash_lanes.h's helpers).
template <int Mu>
float phased_fma(float a, float b, float c) {
  return std::fma(a, b, c);  // EXPECT: fp-determinism
}

void pack_faces_lanes(const float* in, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = phased_fma<1>(in[i], 2.0f, out[i]);
}
