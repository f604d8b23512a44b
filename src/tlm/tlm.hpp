#pragma once
// Transaction-level model of the AHB system.
//
// The paper's speed argument ("the simulation of a complete SoC, that
// uses system-level IP models, can be several hundreds times faster than
// an RTL simulation") extends one abstraction level up: a function-call
// bus with no event kernel at all. Masters invoke read()/write()
// directly; timing is approximated by a cycle counter; the *same*
// instruction-based power FSM runs on synthesized per-transfer cycle
// views, so energy stays comparable with the cycle-accurate model while
// simulation gets much faster.
//
// This module is deliberately kernel-free: no ahbp::sim types appear.

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "power/power_fsm.hpp"

namespace ahbp::tlm {

/// Slave-side interface of the TLM bus.
class TlmSlave {
public:
  virtual ~TlmSlave() = default;
  /// Word read; returns extra wait cycles consumed.
  virtual unsigned read(std::uint32_t addr, std::uint32_t& data) = 0;
  /// Word write; returns extra wait cycles consumed.
  virtual unsigned write(std::uint32_t addr, std::uint32_t data) = 0;
};

/// Word memory with fixed wait states. Addresses are slave-relative
/// byte offsets (TlmBus passes addr - base): storage is a dense word
/// array that grows to the highest word written, so it stays as small
/// as the mapped range. Unwritten words read 0.
class TlmMemory final : public TlmSlave {
public:
  explicit TlmMemory(unsigned wait_states = 0) : waits_(wait_states) {}

  unsigned read(std::uint32_t addr, std::uint32_t& data) override {
    data = peek(addr);
    return waits_;
  }
  unsigned write(std::uint32_t addr, std::uint32_t data) override {
    poke(addr, data);
    return waits_;
  }

  [[nodiscard]] std::uint32_t peek(std::uint32_t addr) const {
    const std::size_t word = addr / 4;
    return word < mem_.size() ? mem_[word] : 0;
  }
  void poke(std::uint32_t addr, std::uint32_t value) {
    const std::size_t word = addr / 4;
    if (word >= mem_.size()) mem_.resize(word + 1, 0);
    mem_[word] = value;
  }

private:
  unsigned waits_;
  std::vector<std::uint32_t> mem_;
};

/// The function-call bus: address decode, cycle accounting, and the
/// power FSM fed per transaction.
class TlmBus {
public:
  struct Config {
    unsigned n_masters = 3;
    gate::Technology tech = gate::Technology::default_2003();
  };

  explicit TlmBus(Config cfg);

  /// Maps a slave at [base, base+size). Ranges must not overlap.
  void map(TlmSlave& slave, std::uint32_t base, std::uint32_t size);

  /// One word transfer by `master`. Advances time by 1 + wait cycles and
  /// feeds the power FSM. Returns false for unmapped addresses (counted
  /// as an error; 2 cycles, like the default slave's ERROR).
  bool read(unsigned master, std::uint32_t addr, std::uint32_t& data);
  bool write(unsigned master, std::uint32_t addr, std::uint32_t data);

  /// Advances `n` idle bus cycles (power FSM sees IDLE views).
  void idle(std::uint64_t n, std::uint32_t pending_requests = 0);

  /// Index, in map() order, of the slave `addr` decodes to; empty when
  /// the address is unmapped.
  [[nodiscard]] std::optional<std::size_t> slave_index(std::uint32_t addr) const {
    const Mapping* m = decode(addr);
    if (m == nullptr) return std::nullopt;
    return static_cast<std::size_t>(m - map_.data());
  }

  /// @name Results
  ///@{
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] double total_energy() const { return fsm_.total_energy(); }
  [[nodiscard]] const power::PowerFsm& fsm() const { return fsm_; }
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  ///@}

private:
  struct Mapping {
    std::uint32_t base;
    std::uint32_t size;
    TlmSlave* slave;
  };
  [[nodiscard]] const Mapping* decode(std::uint32_t addr) const;
  void account_transfer(unsigned master, std::uint32_t addr, bool write,
                        std::uint32_t data, unsigned wait_cycles,
                        std::uint8_t slave_index);

  Config cfg_;
  std::vector<Mapping> map_;
  power::PowerFsm fsm_;
  std::uint64_t cycles_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t errors_ = 0;
  std::uint8_t last_master_ = 0;
};

/// Procedural re-implementation of the paper testbench's master pattern
/// (WRITE-READ non-interruptible sequences + IDLE) on the TLM bus.
class TlmTrafficRunner {
public:
  struct Config {
    std::uint32_t addr_base = 0;
    std::uint32_t addr_range = 1024;
    unsigned min_idle_cycles = 1;
    unsigned max_idle_cycles = 8;
    unsigned min_pairs = 4;
    unsigned max_pairs = 24;
    std::uint64_t seed = 1;
  };

  TlmTrafficRunner(TlmBus& bus, unsigned master_index, Config cfg);

  /// Runs tenures until the bus cycle counter passes `until_cycle`.
  void run_until(std::uint64_t until_cycle);

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

private:
  TlmBus& bus_;
  unsigned master_;
  Config cfg_;
  std::mt19937_64 rng_;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace ahbp::tlm
