#pragma once
// AhbBus: the top-level AHB fabric, owning the shared signals and the
// four sub-blocks of the paper's structural decomposition (arbiter,
// decoder, M2S mux, S2M mux) plus the pipeline register and the built-in
// default slave.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ahb/arbiter.hpp"
#include "ahb/cycle_view.hpp"
#include "ahb/decoder.hpp"
#include "ahb/mux.hpp"
#include "ahb/signals.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

class DefaultSlave;

/// The AMBA AHB bus fabric.
///
/// Wiring protocol:
///   1. construct the AhbBus with its clock;
///   2. construct masters (AhbMaster subclasses) and slaves (AhbSlave
///      subclasses) against it -- they self-attach;
///   3. call finalize() once; then run the kernel.
///
/// finalize() instantiates the internal default slave (unmapped
/// addresses), wires the decoder fallback and creates all combinational
/// and clocked processes.
class AhbBus : public sim::Module {
public:
  struct Config {
    ArbitrationPolicy policy = ArbitrationPolicy::kFixedPriority;
    unsigned default_master = 0;  ///< granted when nobody requests
  };

  AhbBus(sim::Module* parent, std::string name, sim::Clock& clk);
  AhbBus(sim::Module* parent, std::string name, sim::Clock& clk, Config cfg);
  ~AhbBus() override;

  /// @name Attachment (called by AhbMaster / AhbSlave constructors)
  ///@{
  unsigned attach_master(MasterSignals& m);
  unsigned attach_slave(SlaveSignals& s, AddressRange range);
  ///@}

  /// Completes elaboration; must be called exactly once, after all
  /// masters and slaves are constructed and before the kernel runs.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// @name Observability
  ///@{
  [[nodiscard]] BusSignals& bus() { return sig_; }
  [[nodiscard]] const BusSignals& bus() const { return sig_; }
  [[nodiscard]] sim::Clock& clock() const { return clk_; }
  [[nodiscard]] sim::Signal<bool>& hgrant(unsigned m) { return arbiter_.hgrant(m); }
  [[nodiscard]] sim::Signal<bool>& hsel(unsigned s) { return decoder_.hsel(s); }
  [[nodiscard]] unsigned n_masters() const { return m2s_.n_inputs(); }
  /// Includes the built-in default slave (the last index) after finalize().
  [[nodiscard]] unsigned n_slaves() const { return decoder_.n_slaves(); }
  ///@}

  /// @name Cycle sample stream
  ///@{
  /// Posts one CycleView per cycle to `s`, after the subscribers before
  /// it. The first subscription creates the bus's one sampling process
  /// (falling edge: everything driven at the rising edge has settled);
  /// a bus nobody subscribes to runs none. The bus must be finalized.
  void subscribe(CycleSubscriber& s);
  ///@}

  /// @name Sub-blocks (the paper's structural decomposition)
  ///@{
  [[nodiscard]] Arbiter& arbiter() { return arbiter_; }
  [[nodiscard]] Decoder& decoder() { return decoder_; }
  [[nodiscard]] MuxM2S& m2s() { return m2s_; }
  [[nodiscard]] MuxS2M& s2m() { return s2m_; }
  [[nodiscard]] PipelineRegister& pipeline() { return pipeline_; }
  ///@}

private:
  friend class CycleSubscriber;
  void unsubscribe(CycleSubscriber& s);
  /// The current settled-cycle view: the one place a CycleView is
  /// filled from the bus signals.
  [[nodiscard]] CycleView sample();

  sim::Clock& clk_;
  Config cfg_;
  BusSignals sig_;
  Arbiter arbiter_;
  Decoder decoder_;
  MuxM2S m2s_;
  PipelineRegister pipeline_;
  MuxS2M s2m_;
  std::unique_ptr<DefaultSlave> default_slave_;
  bool finalized_ = false;
  std::vector<CycleSubscriber*> subscribers_;
  std::unique_ptr<sim::Method> tap_;
};

}  // namespace ahbp::ahb
