#pragma once

// The one public SIMD header: code outside src/lqcd/simd/ may include it.
enum class Backend { kScalar, kAvx2 };
