#pragma once
// Exact fingerprint of a stream of doubles, for golden-value tests.
//
// FNV-1a (64-bit) over the little-endian bytes of each value's IEEE-754
// bit pattern, in the order the values are added. Two streams digest
// equal only if every value is bit-identical (up to hash collisions),
// so a golden digest pins a whole energy series without tolerance.

#include <bit>
#include <cstdint>

namespace ahbp::testutil {

class BitsDigest {
public:
  BitsDigest& add(double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, bits >>= 8) {
      h_ ^= bits & 0xffu;
      h_ *= 1099511628211ull;
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace ahbp::testutil
