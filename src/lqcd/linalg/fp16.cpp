#include "lqcd/linalg/fp16.h"

#include <bit>
#include <cstring>

namespace lqcd {

namespace {
inline std::uint32_t bits_of(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}
inline float float_of(std::uint32_t b) noexcept {
  return std::bit_cast<float>(b);
}
}  // namespace

Half float_to_half(float f) noexcept {
  const std::uint32_t x = bits_of(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf / NaN. Preserve NaN-ness (quiet bit set), map inf to inf.
    const std::uint32_t mantissa = abs & 0x007fffffu;
    return static_cast<Half>(sign | 0x7c00u |
                             (mantissa != 0 ? 0x0200u | (mantissa >> 13) : 0));
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a value >= 2^16: overflow -> signed infinity (hardware
    // saturating down-convert behaviour for IEEE mode).
    return static_cast<Half>(sign | 0x7c00u);
  }
  if (abs < 0x33000001u) {
    // Rounds to zero (below half of the smallest subnormal).
    return static_cast<Half>(sign);
  }
  if (abs < 0x38800000u) {
    // Subnormal half: the result in units of the half subnormal ulp
    // (2^-24) is mant * 2^(e+1) with e = exp-127, i.e. a right shift by
    // 126 - exp_field, which is in [14, 24] for this branch.
    const int shift = 126 - static_cast<int>(abs >> 23);
    std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    const std::uint32_t half_ulp = 1u << (shift - 1);
    const std::uint32_t rest = mant & ((1u << shift) - 1);
    mant >>= shift;
    if (rest > half_ulp || (rest == half_ulp && (mant & 1u))) ++mant;
    return static_cast<Half>(sign | mant);
  }
  // Normal half.
  std::uint32_t exp = (abs >> 23) - 127 + 15;
  std::uint32_t mant = abs & 0x007fffffu;
  const std::uint32_t rest = mant & 0x1fffu;
  mant >>= 13;
  std::uint32_t h = static_cast<std::uint32_t>((exp << 10) | mant);
  if (rest > 0x1000u || (rest == 0x1000u && (h & 1u))) ++h;  // may carry
  return static_cast<Half>(sign | h);
}

float half_to_float(Half h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;

  if (exp == 0x1fu) {
    // Inf / NaN. NaNs are quieted (the hardware up-conversion, VCVTPH2PS,
    // sets the quiet bit; matching it keeps the dispatched F16C path
    // bit-identical to this software reference).
    return float_of(sign | 0x7f800000u |
                    (mant != 0 ? 0x00400000u | (mant << 13) : 0u));
  }
  if (exp == 0) {
    if (mant == 0) return float_of(sign);  // +-0
    // Subnormal: normalize.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    return float_of(sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
                    ((m & 0x3ffu) << 13));
  }
  return float_of(sign | ((exp + 127 - 15) << 23) | (mant << 13));
}

}  // namespace lqcd
