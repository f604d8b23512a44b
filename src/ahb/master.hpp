#pragma once
// AHB bus masters: the abstract base with the one transfer engine, the
// paper's traffic-generating master (WRITE-READ non-interruptible
// sequences + IDLE), the default master, and a scripted master for
// directed tests.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ahb/signals.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

class AhbBus;

/// Base class for bus masters: owns the outgoing signal bundle, the
/// attachment to the bus, and the transfer engine every master drives
/// the AHB pipeline through.
///
/// The engine holds the two pipeline stages. issue() puts a transfer in
/// the address phase beside the data phase of the one before it; at each
/// ready edge, settle() completes the data-phase transfer and moves the
/// address-phase one into the data phase. A master's body keeps only its
/// policy: what to issue and when to request, idle and release the bus.
class AhbMaster : public sim::Module {
public:
  AhbMaster(sim::Module* parent, std::string name, AhbBus& bus);

  [[nodiscard]] MasterSignals& signals() { return sig_; }
  [[nodiscard]] unsigned index() const { return index_; }

protected:
  /// One transfer: its address/control and its data (the write value,
  /// or the value a read is expected to return).
  struct Transfer {
    Trans trans = Trans::kNonSeq;
    std::uint32_t addr = 0;
    bool write = false;
    std::uint32_t data = 0;
    Burst burst = Burst::kSingle;
  };

  /// A completed data phase.
  struct Completion {
    Transfer transfer;
    Resp resp = Resp::kOkay;
    std::uint32_t rdata = 0;
    /// A read that returned other than the expected value.
    [[nodiscard]] bool mismatch() const {
      return !transfer.write && rdata != transfer.data;
    }
  };

  /// @name Transfer engine
  ///@{
  /// Drives `t`'s address phase (HTRANS/HADDR/HWRITE/HSIZE/HBURST) and,
  /// beside it, HWDATA for the write in the data phase.
  void issue(const Transfer& t);
  /// Drives no new address phase (HTRANS IDLE) beside the data phase.
  void idle();
  /// Sets the write data of the transfer now in the data phase, for a
  /// write whose data is known only after its address phase; the next
  /// issue() or idle() drives it.
  void set_write_data(std::uint32_t data) { data_phase_.value().data = data; }
  void request() { sig_.hbusreq.write(true); }
  /// idle() and drop the bus request.
  void release();
  /// At a ready edge: advances the pipeline and returns the transfer
  /// whose data phase completed there, if there was one.
  std::optional<Completion> settle();
  /// True while a transfer occupies the data phase.
  [[nodiscard]] bool in_flight() const { return data_phase_.has_value(); }
  /// Granted with HREADY high: the next address phase is this master's.
  [[nodiscard]] bool owns_bus() const { return granted() && hready_.read(); }

  /// `co_await ready_edge()`: the next clock edge with HREADY high (at
  /// least one edge). Yields the number of edges waited.
  [[nodiscard]] auto ready_edge() {
    return sim::wait_until(edge_, [this] { return hready_.read(); });
  }
  /// `co_await owned_edge()`: the next ready edge at which this master
  /// owns the bus (at least one edge). Yields the number of edges waited.
  [[nodiscard]] auto owned_edge() {
    return sim::wait_until(edge_, [this] { return owns_bus(); });
  }
  ///@}

  /// True when this master owns the bus (HGRANT asserted).
  [[nodiscard]] bool granted() const;

  AhbBus& bus_;
  MasterSignals sig_;
  unsigned index_;
  sim::Event& edge_;  ///< the bus clock's rising edge
  const sim::Signal<bool>& hready_;

private:
  std::optional<Transfer> addr_phase_;
  std::optional<Transfer> data_phase_;
};

/// The paper's testbench master.
///
/// Forever: IDLE for a random number of cycles, then request the bus and
/// run a random number of non-interruptible WRITE-READ pairs (write a
/// random word, read it back, verify), then release. Handover can only
/// happen while it idles, exactly as in the paper's testbench.
class TrafficMaster final : public AhbMaster {
public:
  struct Config {
    std::uint32_t addr_base = 0;      ///< start of the address window used
    std::uint32_t addr_range = 1024;  ///< bytes; word-aligned addresses inside
    unsigned min_idle_cycles = 1;
    unsigned max_idle_cycles = 8;
    unsigned min_pairs = 4;   ///< WRITE-READ pairs per bus tenure
    unsigned max_pairs = 24;  ///< long tenures, as in the paper's testbench
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t read_mismatches = 0;  ///< read-back value != written value
    std::uint64_t error_responses = 0;
    std::uint64_t sequences = 0;  ///< bus tenures completed
    std::uint64_t throttled_cycles = 0;  ///< cycles stalled by DPM throttle
  };

  TrafficMaster(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Binds the cooperative DPM throttle (see power::PowerGovernor):
  /// while the signal is high the master delays its next bus tenure.
  /// Bound late because the governor is typically constructed after the
  /// bus is finalized, i.e. after the masters.
  void set_throttle(sim::Signal<bool>* throttle) { throttle_ = throttle; }

private:
  sim::Task body();
  void count(const Completion& c);

  Config cfg_;
  Stats stats_;
  std::mt19937_64 rng_;
  sim::Signal<bool>* throttle_ = nullptr;
  sim::Thread thread_;
};

/// The "simple default master": drives IDLE forever and never requests
/// the bus. It is granted whenever nobody else wants the bus.
class DefaultMaster final : public AhbMaster {
public:
  using AhbMaster::AhbMaster;
  // No process needed: the signal bundle's reset values are exactly the
  // IDLE pattern, and they are never changed.
};

/// A master driven by an explicit list of operations -- the workhorse of
/// the protocol unit tests.
class ScriptedMaster final : public AhbMaster {
public:
  struct Op {
    enum class Kind { kWrite, kRead, kIdle } kind = Kind::kIdle;
    std::uint32_t addr = 0;
    std::uint32_t data = 0;      ///< write value
    unsigned idle_cycles = 1;    ///< for kIdle
  };

  struct Result {
    std::uint32_t addr = 0;
    bool write = false;
    std::uint32_t data = 0;  ///< data written or read
    Resp resp = Resp::kOkay;
  };

  struct Options {
    /// Re-issue transfers that receive a RETRY or SPLIT response.
    /// Retrying masters run their transfers serialized (one in flight)
    /// so a re-issued transfer has no pipelined successor to cancel.
    /// After a SPLIT the master is masked at the arbiter; the re-issue
    /// waits for the re-grant (the HSPLITx resume).
    bool retry = false;
    unsigned max_retries = 8;  ///< per transfer; then the response is recorded
  };

  ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                 std::vector<Op> script);
  ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                 std::vector<Op> script, Options opts);

  /// One entry per completed kWrite/kRead op, in script order.
  [[nodiscard]] const std::vector<Result>& results() const { return results_; }
  [[nodiscard]] bool finished() const { return thread_.done(); }
  /// Number of RETRY/SPLIT-triggered re-issues performed.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Number of SPLIT responses absorbed (subset of retries()).
  [[nodiscard]] std::uint64_t splits() const { return splits_; }

private:
  sim::Task body();
  void record(const Completion& c);

  std::vector<Op> script_;
  Options opts_;
  std::vector<Result> results_;
  std::uint64_t retries_ = 0;
  std::uint64_t splits_ = 0;
  sim::Thread thread_;
};

}  // namespace ahbp::ahb
