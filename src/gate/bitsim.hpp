#pragma once
// 64-lane bit-parallel levelized gate simulator -- "power emulation".
//
// BitSim packs 64 independent stimulus patterns into one std::uint64_t
// per net (bit j = lane j) and evaluates every gate once per step with
// word-wide AND/OR/XOR/NOT, turning 64 GateSim trials into a single
// levelized pass -- the software form of the FPGA power-emulation trick
// in *Hardware Accelerated Power Estimation* (arXiv 0710.4742). Toggle
// activity falls out of a popcount of (next ^ prev) per net
// (power::popcount64, the codebase's one libcall-free popcount).
//
// Lane semantics: each lane is an independent scalar simulation. For
// any lane j, the per-net value stream, toggle counts and accounted
// energy are bit-identical to a scalar GateSim driven with lane j's
// pattern sequence (tests/gate/test_bitsim.cpp enforces this for all
// 64 lanes, with and without DFFs). Per-lane energy accumulates in the
// same net order as GateSim's accounting scan, so even the
// floating-point rounding matches.
//
// Accounting modes:
//  * kAggregate (default, fastest): per-net toggle totals summed over
//    lanes plus one all-lane energy accumulator -- one popcount and one
//    fused multiply-add per toggled net.
//  * kPerLane: additionally maintains per-lane energy accumulators,
//    walking the toggle mask with countr_zero (cost proportional to the
//    number of actual toggles). This is what characterization uses: one
//    eval yields 64 per-trial energies.
//  * kPerLaneToggles: kPerLane plus a per-net x per-lane toggle matrix.
//    Strictly for verification (the bit-identity tests); the matrix
//    update doubles the accounting walk and thrashes net_count*64 words
//    of cache, so the hot paths never ask for it.

#include <array>
#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/tech.hpp"

namespace ahbp::gate {

/// Simulates 64 independent stimulus lanes over one finalized Netlist.
class BitSim {
public:
  static constexpr unsigned kLanes = 64;

  enum class Accounting : std::uint8_t {
    kAggregate,       ///< lane-summed toggles + one energy total
    kPerLane,         ///< + per-lane energy accumulators
    kPerLaneToggles,  ///< + per-net x per-lane toggle matrix (tests)
  };

  /// The netlist must outlive the simulator and be finalize()d.
  explicit BitSim(const Netlist& nl,
                  Technology tech = Technology::default_2003(),
                  Accounting mode = Accounting::kAggregate);

  /// @name Driving primary inputs (take effect at the next eval()/tick())
  ///@{
  /// Drives all 64 lanes of a primary input at once (bit j = lane j).
  void set_input(NetId n, std::uint64_t lanes) {
    if (!nl_.is_input(n)) fail_not_input();
    input_next_[n] = lanes;
  }
  /// Drives one lane of a primary input, leaving the other lanes as-is.
  void set_input_lane(NetId n, unsigned lane, bool v);
  ///@}

  /// Settles combinational logic in all lanes and accounts transitions.
  void eval();

  /// Settles and commits like eval() but skips transition accounting.
  /// Characterization uses this to establish each lane's "previous"
  /// assignment without paying the accounting walk for transitions that
  /// are immediately discarded.
  void eval_unaccounted();

  /// One clock cycle in all lanes: combinational settle (the setup
  /// wave), DFF capture, then the post-edge settle -- both waves are
  /// accounted, mirroring GateSim::tick().
  void tick();

  /// @name Values
  ///@{
  [[nodiscard]] std::uint64_t value_word(NetId n) const { return values_[n]; }
  [[nodiscard]] bool value(NetId n, unsigned lane) const {
    return (values_[n] >> lane & 1u) != 0;
  }
  ///@}

  /// @name Activity and energy accounting
  ///@{
  /// Toggles of net `n` summed over all lanes.
  [[nodiscard]] std::uint64_t toggles(NetId n) const { return toggle_counts_[n]; }
  [[nodiscard]] std::uint64_t total_toggles() const;
  /// Toggles of net `n` in one lane (kPerLaneToggles mode only; throws
  /// otherwise).
  [[nodiscard]] std::uint64_t lane_toggles(NetId n, unsigned lane) const;
  /// Switching energy summed over all lanes [J].
  [[nodiscard]] double energy() const { return energy_; }
  /// One lane's switching energy [J] (kPerLane/kPerLaneToggles modes
  /// only; throws otherwise). Bit-identical to the scalar GateSim sum
  /// for the same pattern sequence.
  [[nodiscard]] double lane_energy(unsigned lane) const {
    if (mode_ == Accounting::kAggregate || lane >= kLanes) fail_lane_energy(lane);
    return lane_energy_[lane];
  }
  /// Clears energy and toggle counters (values are kept).
  void reset_accounting();
  ///@}

  /// Per-net total capacitance used for accounting [F].
  [[nodiscard]] double net_capacitance(NetId n) const { return net_cap_[n]; }

  [[nodiscard]] const Technology& tech() const { return tech_; }
  [[nodiscard]] Accounting accounting() const { return mode_; }

private:
  /// Applies pending inputs into `next` and settles all combinational
  /// gates in topological order.
  void settle(std::vector<std::uint64_t>& next);
  /// Accounts next-vs-current transitions and commits `next`.
  void account_and_commit(bool account);
  /// Cold error paths, kept out of line so the inline hot accessors
  /// above compile to a test-and-branch.
  [[noreturn]] void fail_not_input() const;
  [[noreturn]] void fail_lane_energy(unsigned lane) const;

  const Netlist& nl_;
  Technology tech_;
  Accounting mode_;
  std::vector<GateInst> program_;  ///< combinational gates in topo order
  std::vector<std::uint64_t> values_;      ///< lane word per net
  std::vector<std::uint64_t> scratch_;     ///< settle buffer (no per-call alloc)
  std::vector<std::uint64_t> input_next_;  ///< pending primary-input lanes
  std::vector<std::uint64_t> toggle_counts_;
  std::vector<double> net_cap_;
  std::vector<double> toggle_energy_;  ///< precomputed CV^2/2 per net
  double energy_ = 0.0;
  std::array<double, kLanes> lane_energy_{};
  std::vector<std::uint64_t> lane_toggle_counts_;  ///< [net * 64 + lane]
};

/// In-place 64x64 bit-matrix transpose (Hacker's Delight's recursive
/// block swap, widened to 64 bits): afterwards bit j of m[b] is the
/// former bit b of m[j]. This is the bridge between lane-major stimulus
/// (one word per lane, bit b = pin b) and BitSim's pin-major layout (one
/// word per pin, bit j = lane j): six log-stages of word ops instead of
/// a 64x64 bit-by-bit walk. The transpose is an involution, so the same
/// call converts in either direction.
inline void bit_transpose_64x64(std::uint64_t m[BitSim::kLanes]) {
  // Bit b of m[i] is matrix entry (row i, column b) -- LSB-first. Each
  // stage swaps the off-diagonal j x j sub-blocks of every 2j x 2j tile:
  // row k's high half against row k+j's low half.
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < BitSim::kLanes; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

}  // namespace ahbp::gate
