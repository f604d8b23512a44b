#pragma once
// Multi-layer AHB at the transaction level.
//
// The shared AHB serializes every transfer through one fabric; the
// multi-layer interconnect (the architecture ARM later shipped as
// multi-layer AHB / AHB-Lite matrices) gives each master its own layer
// into per-slave input stages, so transfers to *different* slaves
// proceed concurrently and only same-slave contention arbitrates. This
// model quantifies the architecture-exploration question the paper's
// introduction poses: what does the extra parallel datapath cost in
// power, and what does it buy in throughput?
//
// Modeling choices: each layer is a TlmBus of its own, driven as master
// 0 of a 2-input fabric with every slave mapped, so it has a full
// address/data mux structure and power FSM -- that is the power price
// of the topology. Per-slave busy tracking adds the contention; global
// time = max over layers (layers run in parallel).

#include <cstdint>
#include <memory>
#include <vector>

#include "power/power_fsm.hpp"
#include "tlm/tlm.hpp"

namespace ahbp::tlm {

/// Transaction-level multi-layer interconnect.
class MultilayerBus {
public:
  struct Config {
    unsigned n_masters = 2;
    gate::Technology tech = gate::Technology::default_2003();
  };

  explicit MultilayerBus(Config cfg);

  /// Maps a slave at [base, base+size) on every layer.
  void map(TlmSlave& slave, std::uint32_t base, std::uint32_t size);

  /// One word transfer by `master` on its own layer. Advances that
  /// layer's local clock; contention for a busy slave stalls the layer.
  bool read(unsigned master, std::uint32_t addr, std::uint32_t& data);
  bool write(unsigned master, std::uint32_t addr, std::uint32_t data);

  /// Advances `n` idle cycles on one layer.
  void idle(unsigned master, unsigned n) { layers_.at(master)->idle(n); }

  /// @name Results
  ///@{
  /// Global elapsed cycles: the slowest layer (layers run in parallel).
  [[nodiscard]] std::uint64_t cycles() const;
  [[nodiscard]] std::uint64_t layer_cycles(unsigned master) const {
    return layers_.at(master)->cycles();
  }
  /// Total energy across every layer's fabric.
  [[nodiscard]] double total_energy() const;
  [[nodiscard]] const power::PowerFsm& layer_fsm(unsigned master) const {
    return layers_.at(master)->fsm();
  }
  [[nodiscard]] std::uint64_t transfers() const;
  /// Cycles lost to same-slave contention, summed over layers.
  [[nodiscard]] std::uint64_t contention_cycles() const { return contention_; }
  ///@}

private:
  /// Runs `access` on `master`'s layer once the addressed slave's input
  /// stage is free, then holds the slave until the transfer completes.
  template <typename Access>
  bool transfer(unsigned master, std::uint32_t addr, Access access);

  std::vector<std::unique_ptr<TlmBus>> layers_;
  std::vector<std::uint64_t> busy_until_;  ///< per slave: cycle it frees up
  std::uint64_t contention_ = 0;
};

}  // namespace ahbp::tlm
