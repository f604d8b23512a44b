#pragma once
// Live gate-level co-simulation cross-check.
//
// The paper validated its macromodels offline with SIS. This module goes
// one step further: while the system-level bus simulates, the generated
// gate-level structures for two sub-blocks (the address-path M2S mux and
// the arbiter FSM) are driven with the *same live stimulus* the bus
// sees, and their toggle-accounted energy is recorded next to the
// macromodel's per-cycle estimate. The result is a direct, workload-
// faithful accuracy measurement (totals ratio + per-cycle correlation).
//
// The gate-level references run on gate::BitSim: 64 bus cycles of live
// stimulus are buffered and replayed as the 64 lanes of one pass (cycle
// base+j = lane j; every lane's "previous" assignment comes from the
// lane below via a word shift, carrying the last pre-batch cycle into
// lane 0). Per-cycle gate energies are bit-identical to driving a
// scalar gate::GateSim cycle by cycle; golden tests pin them.

#include <cstdint>
#include <vector>

#include "ahb/bus.hpp"
#include "gate/bitsim.hpp"
#include "gate/synth.hpp"
#include "power/macromodel.hpp"
#include "sim/module.hpp"

namespace ahbp::power {

/// Paired per-cycle energy series and their agreement statistics.
struct CosimSeries {
  std::vector<double> model;  ///< macromodel energy per cycle [J]
  std::vector<double> gate;   ///< gate-level reference energy per cycle [J]

  [[nodiscard]] double model_total() const;
  [[nodiscard]] double gate_total() const;
  /// Pearson correlation of the two series (0 if degenerate).
  [[nodiscard]] double correlation() const;
  /// model_total / gate_total (0 if the reference never switched).
  [[nodiscard]] double totals_ratio() const;
};

/// Runs the gate-level address mux and arbiter beside a live bus, on its
/// cycle samples.
class GateLevelCrossCheck : public sim::Module, private ahb::CycleSubscriber {
public:
  GateLevelCrossCheck(sim::Module* parent, std::string name, ahb::AhbBus& bus);
  GateLevelCrossCheck(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                      gate::Technology tech);

  /// Address-path (32-bit) M2S mux: gate level vs MuxModel.
  [[nodiscard]] const CosimSeries& mux_series() const;
  /// Arbiter: gate level vs ArbiterFsmModel.
  [[nodiscard]] const CosimSeries& arbiter_series() const;

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

private:
  void post_cycle(const ahb::CycleView& v) override;
  /// Drains buffered cycles into the series as a partial batch. The
  /// series accessors call this themselves; recording continues
  /// seamlessly afterwards.
  void flush();

  ahb::AhbBus& bus_;

  gate::MuxNetlist mux_nl_;
  gate::BitSim mux_sim_;
  MuxModel mux_model_;
  CosimSeries mux_series_;
  std::uint32_t prev_addr_out_ = 0;
  std::uint8_t prev_hmaster_ = 0;
  std::vector<std::uint32_t> prev_master_addr_;

  gate::ArbiterNetlist arb_nl_;
  gate::BitSim arb_sim_;
  ArbiterFsmModel arb_model_;
  CosimSeries arb_series_;
  std::uint32_t prev_req_ = 0;

  // Buffered stimulus for the in-flight batch and the carry (the last
  // flushed cycle's assignment, lane 0's "previous").
  std::vector<std::uint32_t> pend_addr_;  ///< n_masters entries per cycle
  std::vector<std::uint8_t> pend_sel_;    ///< one entry per cycle
  std::vector<std::uint32_t> pend_req_;   ///< one entry per cycle
  std::vector<std::uint32_t> lane_prev_addr_;
  std::uint8_t lane_prev_sel_ = 0;
  std::uint32_t lane_prev_req_ = 0;
  std::vector<std::uint64_t> pin_words_;  ///< flush scratch, no per-batch alloc

  std::uint64_t cycles_ = 0;
};

}  // namespace ahbp::power
