// Fletcher-32 checksums for ABFT-style integrity checks.
//
// Used by the fault-tolerant collectives (per-hop payload verification:
// a bit-flipped message is detected by the receiver and retransmitted)
// and by the Schwarz preconditioner's packed-matrix checksums (a
// persistent corruption of the half-precision gauge/clover blocks is
// caught by re-verifying the pack-time checksum instead of silently
// degrading convergence).
//
// Fletcher-32 over 16-bit little-endian words with both running sums
// reduced mod 65535; an odd trailing byte is zero-padded. Position
// sensitivity (the second sum) catches transpositions as well as
// single-bit flips, at a cost of two adds per word — cheap enough to run
// at pack/message granularity.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lqcd {

/// Incremental Fletcher-32 accumulator: feed byte ranges with update(),
/// read the checksum with value(). Byte-stream semantics are independent
/// of how the stream is split across update() calls.
class Fletcher32 {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    std::uint64_t a = sum1_;
    std::uint64_t b = sum2_;
    if (have_pending_ && bytes > 0) {
      a = (a + (pending_ | (static_cast<std::uint32_t>(p[0]) << 8))) % 65535u;
      b = (b + a) % 65535u;
      have_pending_ = false;
      i = 1;
    }
    // The sums are kept in 64 bits and reduced mod 65535 once per block
    // of kBlockWords words, which gives the same residues as reducing
    // after every word. Starting below 65535, a block adds at most
    // kBlockWords * 65535 to `a` and kBlockWords^2 * 65535 to `b`, far
    // below 2^64.
    while (i + 1 < bytes) {
      const std::size_t words = (bytes - i) / 2 < kBlockWords
                                    ? (bytes - i) / 2
                                    : kBlockWords;
      for (std::size_t w = 0; w < words; ++w, i += 2) {
        a += static_cast<std::uint32_t>(p[i]) |
             (static_cast<std::uint32_t>(p[i + 1]) << 8);
        b += a;
      }
      a %= 65535u;
      b %= 65535u;
    }
    sum1_ = static_cast<std::uint32_t>(a);
    sum2_ = static_cast<std::uint32_t>(b);
    if (i < bytes) {
      pending_ = p[i];
      have_pending_ = true;
    }
  }

  std::uint32_t value() const noexcept {
    std::uint32_t a = sum1_;
    std::uint32_t b = sum2_;
    if (have_pending_) {
      a = (a + pending_) % 65535u;
      b = (b + a) % 65535u;
    }
    return (b << 16) | a;
  }

  void reset() noexcept { *this = Fletcher32{}; }

 private:
  static constexpr std::size_t kBlockWords = std::size_t{1} << 20;

  std::uint32_t sum1_ = 0;  // both sums are kept reduced mod 65535
  std::uint32_t sum2_ = 0;
  std::uint16_t pending_ = 0;
  bool have_pending_ = false;
};

/// One-shot convenience over a single byte range.
inline std::uint32_t fletcher32_bytes(const void* data,
                                      std::size_t bytes) noexcept {
  Fletcher32 f;
  f.update(data, bytes);
  return f.value();
}

/// Typed convenience: checksum `count` elements of trivially-copyable T.
template <class T>
inline std::uint32_t fletcher32_range(const T* data,
                                      std::size_t count) noexcept {
  return fletcher32_bytes(data, count * sizeof(T));
}

/// 64-bit FNV-1a-style hash over a byte range: the wide, structurally
/// independent companion to Fletcher-32. Where one 32-bit sum keys
/// long-lived state (the service's setup cache), a collision between two
/// distinct gauge configurations would silently reuse the wrong packed
/// matrices; pairing the Fletcher sum with this digest makes aliasing
/// require a simultaneous collision in two unrelated hash families.
/// Processes little-endian 64-bit words per multiply (not the canonical
/// per-byte FNV-1a): submit() digests multi-MB fields on the client
/// thread, so the digest must stay far cheaper than a batching window.
inline std::uint64_t fnv1a64_bytes(const void* data,
                                   std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b)
      w |= static_cast<std::uint64_t>(p[i + static_cast<std::size_t>(b)])
           << (8 * b);
    h = (h ^ w) * kPrime;
  }
  if (i < bytes) {
    std::uint64_t tail = 0;
    for (int b = 0; i < bytes; ++i, ++b)
      tail |= static_cast<std::uint64_t>(p[i]) << (8 * b);
    // Tag the tail with the byte count so "short word" and "zero-padded
    // word" inputs cannot collide trivially.
    h = (h ^ tail ^ (static_cast<std::uint64_t>(bytes) << 56)) * kPrime;
  }
  return h;
}

/// Typed convenience: digest `count` elements of trivially-copyable T.
template <class T>
inline std::uint64_t fnv1a64_range(const T* data, std::size_t count) noexcept {
  return fnv1a64_bytes(data, count * sizeof(T));
}

}  // namespace lqcd
