#pragma once
// The three power-model integration styles of the paper's Fig. 1.
//
//   * private -- accounting code embedded per block, triggered by every
//     signal event of that block (most intrusive, finest grained);
//   * local   -- one monitor FSM added beside the module, attached to its
//     bus: that is AhbPowerEstimator (see estimator.hpp);
//   * global  -- a separate analyzer module fed through an explicit
//     reporting interface (ahb::CycleSubscriber), knowing nothing about
//     the bus internals (most reusable).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ahb/bus.hpp"
#include "power/estimator.hpp"
#include "power/power_fsm.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::power {

/// Alias making the style taxonomy explicit: the "local model" style is
/// the estimator.
using LocalPowerMonitor = AhbPowerEstimator;

/// The "private model" style: one accounting process per sub-block, each
/// statically sensitive to its own block's signals and charging the
/// macromodel at every event (not once per cycle). Finest granularity,
/// highest simulation cost.
class PrivatePowerModel : public sim::Module {
public:
  PrivatePowerModel(sim::Module* parent, std::string name, ahb::AhbBus& bus);
  PrivatePowerModel(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                    gate::Technology tech);

  [[nodiscard]] const BlockEnergy& block_totals() const { return blocks_; }
  [[nodiscard]] double total_energy() const { return blocks_.total(); }
  /// Number of signal events processed (a cost proxy).
  [[nodiscard]] std::uint64_t event_count() const { return events_; }

private:
  void on_decoder_event();
  void on_m2s_event();
  void on_s2m_event();
  void on_arbiter_event();

  ahb::AhbBus& bus_;
  DecoderModel dec_model_;
  MuxModel m2s_model_;
  MuxModel s2m_model_;
  ArbiterFsmModel arb_model_;

  // Previous values per block, for event-level Hamming distances.
  std::uint32_t prev_haddr_ = 0;
  std::uint64_t prev_m2s_ = 0;
  std::uint64_t prev_m2s_ctl_ = 0;
  std::uint64_t prev_s2m_ = 0;
  std::uint32_t prev_req_ = 0;
  std::uint8_t prev_hmaster_ = 0;
  std::uint8_t prev_dslave_ = 0xFF;

  BlockEnergy blocks_;
  std::uint64_t events_ = 0;

  sim::Method dec_proc_;
  sim::Method m2s_proc_;
  sim::Method s2m_proc_;
  std::unique_ptr<sim::Method> arb_proc_;  ///< built after grants exist
};

/// The analyzer side of the global style: a bus-agnostic module that
/// turns posted activity records into energy via the power FSM. It could
/// analyze any core that posts CycleViews; on an AhbBus, subscribe it
/// (AhbBus::subscribe), and the bus itself is the probe.
class GlobalPowerAnalyzer : public sim::Module, public ahb::CycleSubscriber {
public:
  GlobalPowerAnalyzer(sim::Module* parent, std::string name, PowerFsm::Config cfg);

  void post_cycle(const ahb::CycleView& view) override;

  [[nodiscard]] const PowerFsm& fsm() const { return fsm_; }
  [[nodiscard]] double total_energy() const { return fsm_.total_energy(); }
  [[nodiscard]] const BlockEnergy& block_totals() const { return fsm_.block_totals(); }

private:
  PowerFsm fsm_;
};

}  // namespace ahbp::power
