#pragma once
// Power monitoring for the APB side -- the methodology of the paper
// applied to a second bus typology ("more complete and complex bus
// models simply require a longer period for the characterization",
// Sec. 5). The APB is electrically simple: a strobed wire bundle with
// one driver per direction, so its macromodel is a per-bit wire-load
// model over the Hamming distances of PADDR/PWDATA/PRDATA plus a strobe
// term for PSEL/PENABLE.

#include <cstdint>
#include <vector>

#include "apb/bridge.hpp"
#include "gate/tech.hpp"
#include "power/activity.hpp"
#include "sim/process.hpp"

namespace ahbp::apb {

/// Energy macromodel of the APB wire bundle.
///
///   E_cycle = VDD^2/2 * ( C_wire * (HD_addr + HD_wdata + HD_rdata)
///                         + C_strobe * HD_strobes )
///
/// C_wire is the per-bit load of the peripheral bus (higher than an
/// on-core node: long routes, one input per peripheral); C_strobe loads
/// the PSEL/PENABLE fan-out.
class ApbPowerModel {
public:
  ApbPowerModel(unsigned n_peripherals, gate::Technology tech);

  [[nodiscard]] double energy(unsigned hd_data, unsigned hd_strobes) const;

  [[nodiscard]] double wire_capacitance() const { return c_wire_; }
  [[nodiscard]] double strobe_capacitance() const { return c_strobe_; }

private:
  gate::Technology tech_;
  double c_wire_;
  double c_strobe_;
};

/// Per-cycle APB power monitor (local-style integration, like the AHB
/// estimator): samples the bridge's APB signals at the falling edge and
/// accumulates wire-switching energy.
class ApbPowerMonitor : public sim::Module {
public:
  ApbPowerMonitor(sim::Module* parent, std::string name, AhbToApbBridge& bridge);
  ApbPowerMonitor(sim::Module* parent, std::string name, AhbToApbBridge& bridge,
                  gate::Technology tech);

  [[nodiscard]] double total_energy() const { return energy_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// The instrumentation-side activity storage.
  [[nodiscard]] const power::Activity& activity() const { return activity_; }

private:
  void on_cycle();

  AhbToApbBridge& bridge_;
  ApbPowerModel model_;
  /// Channels paddr, pwdata, prdata<s> per peripheral, strobes -- in
  /// that order, observed with one store_all() per cycle.
  power::Activity activity_;
  std::vector<std::uint64_t> vals_;  ///< per-cycle sample, one per channel
  std::vector<unsigned> hd_;         ///< per-cycle Hamming distances
  double energy_ = 0.0;
  std::uint64_t cycles_ = 0;
  sim::Method proc_;
};

}  // namespace ahbp::apb
