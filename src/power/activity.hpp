#pragma once
// Switching-activity bookkeeping -- the paper's `Activity` class.
//
// The instrumentation phase of the methodology (Sec. 5.3) adds "a
// specialized object class ... for the dynamic monitoring and the storage
// of the activity of the I/O signals of the different blocks", with a
// bit-change counter and an activity-storing method. Activity is that
// class for a fixed set of named signals (the paper's "Masters signals
// activity storage / Slaves signals activity storage"): store_all()
// stores every signal's activity once per cycle, and bit_change_count()
// is the paper's counter.

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ahbp::power {

/// Number of set bits in `x`, branch-free: SWAR sums over bit pairs,
/// nibbles and bytes, then one multiply adds the eight byte counts.
/// Used instead of std::popcount, which on a target without a popcount
/// instruction (the default x86-64 build) is an out-of-line libgcc
/// call. GCC recognises this pattern: it emits a single popcnt wherever
/// the code is compiled for a target that has one -- a function marked
/// AHBP_POPCNT_CLONES (PowerFsm::step, BitSim::account_and_commit), or
/// a whole build configured for such a target (e.g. CXXFLAGS=-mpopcnt)
/// -- and inline shift/mask/multiply code elsewhere.
[[nodiscard]] constexpr unsigned popcount64(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/// Marks a hot function that counts bits: on x86-64 it is compiled
/// twice, once with POPCNT and once for the build's baseline target, and
/// the dynamic loader binds calls to the clone the running CPU supports
/// (a GNU ifunc). Every popcount64() inlined into the POPCNT clone is one
/// instruction; CPUs without it run the baseline code. Both clones
/// execute the same integer and floating-point operations, so results
/// are bit-identical. Expands to nothing where the target already has
/// POPCNT, where ifunc is unavailable (non-ELF or non-glibc), off
/// x86-64, on compilers without target_clones, and under
/// ThreadSanitizer: GCC instruments the generated resolver with
/// __tsan_func_entry, and the loader runs it before the TSan runtime is
/// up, so the binary would crash before main().
#if defined(__SANITIZE_THREAD__)
#define AHBP_POPCNT_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AHBP_POPCNT_CLONES
#endif
#endif
#if !defined(AHBP_POPCNT_CLONES) && defined(__x86_64__) && \
    defined(__GNUC__) && defined(__ELF__) && defined(__GLIBC__) && \
    !defined(__POPCNT__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define AHBP_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#endif
#endif
#ifndef AHBP_POPCNT_CLONES
#define AHBP_POPCNT_CLONES
#endif

/// Hamming distance between two words: the number of toggling bits --
/// the central activity measure of the paper's macromodels.
[[nodiscard]] constexpr unsigned hamming(std::uint64_t a, std::uint64_t b) {
  return popcount64(a ^ b);
}

/// Switching-activity accumulator for a fixed set of channels, one per
/// monitored signal.
///
/// Storage is structure-of-arrays: the previous values and all counters
/// live in contiguous arrays, so the per-cycle capture is one tight loop
/// of XOR + popcount over packed signal words. The channel set is fixed
/// at construction; store_all() observes every channel exactly once per
/// cycle, so all channels share one sample count. This is the storage
/// PowerFsm and ApbPowerMonitor accumulate into and the one reports and
/// the analytic estimator read.
class Activity {
public:
  explicit Activity(std::vector<std::string> names);

  /// Observes one value per channel (vals[i] -> channel i) and writes
  /// each channel's Hamming distance to hd_out[i]. The first
  /// observation yields 0 for every channel.
  void store_all(const std::uint64_t* vals, unsigned* hd_out) {
    store_n(vals, hd_out, names_.size());
  }

  /// store_all() with the channel count fixed at compile time (N must
  /// equal size()), so the pass compiles to straight-line code. The
  /// per-cycle path of PowerFsm.
  template <std::size_t N>
  void store_all(const std::array<std::uint64_t, N>& vals,
                 std::array<unsigned, N>& hd_out) {
    assert(N == names_.size());
    store_n(vals.data(), hd_out.data(), N);
  }

  /// Records `n` further observations equal to the previous one (zero
  /// Hamming distance on every channel) in O(1). Requires a previous
  /// observation when n > 0.
  void store_repeated(std::uint64_t n);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const { return names_[i]; }
  /// Index of the channel called `name`; nullopt if there is none.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const;

  /// Total bits changed on channel i across all observations.
  [[nodiscard]] std::uint64_t bit_change_count(std::size_t i) const {
    return bit_changes_[i];
  }
  /// Sum of bit_change_count(i) over all channels.
  [[nodiscard]] std::uint64_t bit_change_count() const;
  /// Observations of channel i whose Hamming distance was non-zero (the
  /// empirical "signal changed" probability numerator, used by the
  /// analytic estimator for non-linear macromodel terms).
  [[nodiscard]] std::uint64_t nonzero_count(std::size_t i) const {
    return nonzero_[i];
  }
  /// Observations so far (the same for every channel).
  [[nodiscard]] std::uint64_t sample_count() const { return samples_; }
  /// Mean Hamming distance per transition of channel i (0 if fewer than
  /// 2 samples).
  [[nodiscard]] double mean_hd(std::size_t i) const;
  [[nodiscard]] std::uint64_t last_value(std::size_t i) const {
    return last_value_[i];
  }

  /// Zeroes every counter; the channel set is kept.
  void reset();

private:
  void store_n(const std::uint64_t* vals, unsigned* hd_out, std::size_t n) {
    std::uint64_t* last = last_value_.data();
    if (samples_ > 0) {
      std::uint64_t* changes = bit_changes_.data();
      std::uint64_t* nonzero = nonzero_.data();
      for (std::size_t i = 0; i < n; ++i) {
        const unsigned hd = hamming(last[i], vals[i]);
        hd_out[i] = hd;
        changes[i] += hd;
        nonzero[i] += hd != 0 ? 1 : 0;
        last[i] = vals[i];
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        hd_out[i] = 0;
        last[i] = vals[i];
      }
    }
    ++samples_;
  }

  std::vector<std::string> names_;
  std::vector<std::uint64_t> last_value_;
  std::vector<std::uint64_t> bit_changes_;
  std::vector<std::uint64_t> nonzero_;
  std::uint64_t samples_ = 0;
};

}  // namespace ahbp::power
