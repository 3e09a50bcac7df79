// IEEE 754 binary16 ("half precision") storage conversion.
//
// The KNC has no fp16 arithmetic but supports up-/down-conversion on
// load/store; the paper (Sec. III-B) exploits that to store gauge links and
// clover matrices of the preconditioner in half precision, halving their
// footprint from 144 kB to 72 kB per domain. We reproduce the same
// behaviour in software: values are *stored* as binary16 and *computed on*
// in float after up-conversion. Rounding is round-to-nearest-even, the
// hardware mode.
#pragma once

#include <cstdint>

namespace lqcd {

using Half = std::uint16_t;

/// float -> binary16 with round-to-nearest-even; overflow saturates to
/// +-inf (matching hardware down-conversion).
Half float_to_half(float f) noexcept;

/// binary16 -> float (exact).
float half_to_float(Half h) noexcept;

/// Round-trip through binary16 — the effective storage operator.
inline float half_round_trip(float f) noexcept {
  return half_to_float(float_to_half(f));
}

}  // namespace lqcd
