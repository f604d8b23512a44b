#pragma once
// Zero-delay levelized gate simulator with switching-energy accounting.
//
// This is the scalar reference simulator: it evaluates a finalized
// Netlist cycle by cycle, counts settled-value transitions per net, and
// charges CV^2/2 per transition. Because evaluation is levelized there are
// no glitches -- each net toggles at most once per step, matching the
// assumptions behind the paper's Hamming-distance macromodels.
//
// Production code (charlib, the live cosim cross-check) runs the 64-lane
// gate::BitSim; this engine is the oracle the tests check BitSim against,
// lane by lane.

#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/tech.hpp"

namespace ahbp::gate {

/// Simulates a finalized Netlist and accumulates switching energy.
class GateSim {
public:
  /// The netlist must outlive the simulator and be finalize()d.
  GateSim(const Netlist& nl, Technology tech = Technology::default_2003());

  /// Drives a primary input (takes effect at the next eval()/tick()).
  void set_input(NetId n, bool v);

  /// Settles combinational logic and accounts transitions. Call after
  /// changing inputs; for sequential designs use tick() instead.
  void eval();

  /// One clock cycle: DFFs capture their D values, then combinational
  /// logic settles; all resulting transitions are accounted.
  void tick();

  /// Current settled value of any net.
  [[nodiscard]] bool value(NetId n) const { return values_[n] != 0; }

  /// @name Activity and energy accounting
  ///@{
  [[nodiscard]] std::uint64_t toggles(NetId n) const { return toggle_counts_[n]; }
  [[nodiscard]] std::uint64_t total_toggles() const;
  /// Switching energy accumulated since construction/reset [J].
  [[nodiscard]] double energy() const { return energy_; }
  /// Clears energy and toggle counters (state and values are kept).
  void reset_accounting();
  ///@}

  /// Per-net total capacitance used for accounting [F].
  [[nodiscard]] double net_capacitance(NetId n) const { return net_cap_[n]; }

  [[nodiscard]] const Technology& tech() const { return tech_; }

private:
  void settle_and_account(bool account);
  /// Evaluates all combinational gates in topological order over `next`.
  void settle(std::vector<std::uint8_t>& next);
  /// Accounts next-vs-current transitions (optionally) and commits `next`.
  void account_and_commit(bool account);

  const Netlist& nl_;
  Technology tech_;
  std::vector<std::uint8_t> values_;        ///< settled value per net
  std::vector<std::uint8_t> scratch_;       ///< settle buffer (reused, no per-call alloc)
  std::vector<std::uint8_t> input_next_;    ///< pending primary-input values
  std::vector<std::uint64_t> toggle_counts_;
  std::vector<double> net_cap_;
  double energy_ = 0.0;
};

}  // namespace ahbp::gate
