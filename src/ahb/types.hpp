#pragma once
// AMBA AHB protocol types (ARM AMBA Specification rev 2.0 encodings) and
// the memory-map range. No simulation-kernel types: the transaction-level
// model uses them too.

#include <cstdint>
#include <iosfwd>

namespace ahbp::ahb {

/// HTRANS[1:0] transfer type.
enum class Trans : std::uint8_t {
  kIdle = 0,    ///< no transfer; slave must OKAY with zero waits
  kBusy = 1,    ///< master inserting an idle beat inside a burst
  kNonSeq = 2,  ///< first transfer of a burst / single transfer
  kSeq = 3,     ///< remaining transfers of a burst
};

/// HBURST[2:0] burst type.
enum class Burst : std::uint8_t {
  kSingle = 0,
  kIncr = 1,
  kWrap4 = 2,
  kIncr4 = 3,
  kWrap8 = 4,
  kIncr8 = 5,
  kWrap16 = 6,
  kIncr16 = 7,
};

/// HSIZE[2:0] transfer size: bytes transferred = 1 << value.
enum class Size : std::uint8_t {
  kByte = 0,
  kHalfword = 1,
  kWord = 2,
  kDword = 3,
};

/// HRESP[1:0] slave response.
enum class Resp : std::uint8_t {
  kOkay = 0,
  kError = 1,
  kRetry = 2,
  kSplit = 3,
};

/// True for NONSEQ/SEQ (a transfer that addresses a slave).
[[nodiscard]] constexpr bool is_active(Trans t) {
  return t == Trans::kNonSeq || t == Trans::kSeq;
}

/// Number of beats in a fixed-length burst (0 = undefined length: INCR
/// and SINGLE are handled by the master's own count).
[[nodiscard]] constexpr unsigned burst_beats(Burst b) {
  switch (b) {
    case Burst::kSingle: return 1;
    case Burst::kIncr: return 0;
    case Burst::kWrap4:
    case Burst::kIncr4: return 4;
    case Burst::kWrap8:
    case Burst::kIncr8: return 8;
    case Burst::kWrap16:
    case Burst::kIncr16: return 16;
  }
  return 0;
}

/// True for the WRAP4/8/16 bursts, whose addresses wrap at the burst's
/// (beats * bytes-per-beat) boundary.
[[nodiscard]] constexpr bool is_wrapping(Burst b) {
  return b == Burst::kWrap4 || b == Burst::kWrap8 || b == Burst::kWrap16;
}

/// Bytes moved per beat for a given HSIZE.
[[nodiscard]] constexpr unsigned size_bytes(Size s) {
  return 1u << static_cast<unsigned>(s);
}

[[nodiscard]] const char* to_string(Trans t);
[[nodiscard]] const char* to_string(Burst b);
[[nodiscard]] const char* to_string(Resp r);
[[nodiscard]] const char* to_string(Size s);

std::ostream& operator<<(std::ostream& os, Trans t);
std::ostream& operator<<(std::ostream& os, Burst b);
std::ostream& operator<<(std::ostream& os, Resp r);
std::ostream& operator<<(std::ostream& os, Size s);

/// One entry of a memory map: bytes [base, base + size). The checks
/// subtract instead of computing base + size, so a range that ends
/// exactly at 4 GiB does not wrap to 0.
struct AddressRange {
  std::uint32_t base = 0;
  std::uint32_t size = 0;
  [[nodiscard]] constexpr bool contains(std::uint32_t addr) const {
    return addr >= base && addr - base < size;
  }
  /// True if the ranges share an address; an empty range shares none.
  [[nodiscard]] constexpr bool overlaps(const AddressRange& o) const {
    return size != 0 && o.size != 0 &&
           (base - o.base < o.size || o.base - base < size);
  }
};

/// Raw-encoding helpers for the uint8_t signals the bus carries.
[[nodiscard]] constexpr std::uint8_t raw(Trans t) { return static_cast<std::uint8_t>(t); }
[[nodiscard]] constexpr std::uint8_t raw(Burst b) { return static_cast<std::uint8_t>(b); }
[[nodiscard]] constexpr std::uint8_t raw(Size s) { return static_cast<std::uint8_t>(s); }
[[nodiscard]] constexpr std::uint8_t raw(Resp r) { return static_cast<std::uint8_t>(r); }

}  // namespace ahbp::ahb
