#pragma once
// AHB slaves: abstract base, memory slave with configurable wait states,
// and the default slave (OKAY to IDLE/BUSY, ERROR to real transfers into
// unmapped space).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ahb/signals.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

class AhbBus;

/// Per-transfer fault verdict returned by a FaultHook (see
/// MemorySlave::Config::fault_hook). The default is a clean transfer.
/// The ahb layer stays ignorant of fault *scheduling*; src/fault/ builds
/// deterministic seed-driven hooks on top of this interface.
struct FaultDecision {
  /// kOkay = complete normally; kRetry/kError/kSplit = two-cycle
  /// protocol response of that kind instead of completing.
  Resp resp = Resp::kOkay;
  /// Additional wait states injected into this transfer's data phase
  /// (added to the slave's configured wait_states; OKAY responses only).
  unsigned extra_waits = 0;
  /// For kSplit: clock cycles after the SPLIT response until the slave
  /// signals resume (HSPLITx) and the arbiter unmasks the master.
  /// Clamped to >= 1.
  unsigned split_resume_cycles = 4;
};

/// Everything a FaultHook may condition its verdict on, sampled at the
/// accept edge of the transfer.
struct FaultQuery {
  std::uint64_t transfer_index = 0;  ///< slave-local accept counter
  bool write = false;
  std::uint32_t addr = 0;
  Trans htrans = Trans::kNonSeq;  ///< kSeq = mid-burst beat
  unsigned master = 0;            ///< address-phase owner (HMASTER)
};

/// Decides the fate of one accepted transfer.
using FaultHook = std::function<FaultDecision(const FaultQuery&)>;

/// Base class for bus slaves: owns the response bundle and the
/// attachment (address range) on the bus.
class AhbSlave : public sim::Module {
public:
  /// Attaches to `bus` at [base, base+size). A size of 0 creates an
  /// unmapped slave reachable only as the decoder fallback.
  AhbSlave(sim::Module* parent, std::string name, AhbBus& bus, std::uint32_t base,
           std::uint32_t size);

  [[nodiscard]] SlaveSignals& signals() { return sig_; }
  [[nodiscard]] unsigned index() const { return index_; }

protected:
  /// True when the decoder addresses this slave.
  [[nodiscard]] bool selected() const;
  [[nodiscard]] BusSignals& bus_signals() const;
  [[nodiscard]] sim::Clock& clock() const;

  AhbBus& bus_;
  SlaveSignals sig_;
  unsigned index_;
};

/// A word-wide memory slave.
///
/// Supports zero-wait operation or a fixed number of wait states per
/// transfer. Storage is dense: one word per 4 bytes of the mapped range,
/// allocated at construction and zero until written, so a slave costs
/// its mapped size in memory (4 KiB per paper slave, 12 KiB the largest
/// in the repository) and a transfer never allocates.
///
/// An optional FaultHook turns any memory slave into a fault injector:
/// the hook is consulted once per accepted transfer and can demand a
/// two-cycle RETRY/ERROR/SPLIT response or extra wait states. SPLIT
/// responses mask the requesting master at the arbiter and schedule the
/// HSPLITx resume `split_resume_cycles` later.
class MemorySlave final : public AhbSlave {
public:
  struct Config {
    std::uint32_t base = 0;
    std::uint32_t size = 1024;   ///< bytes
    unsigned wait_states = 0;    ///< extra cycles per data phase
    /// Optional per-transfer fault verdict; empty = always OKAY.
    FaultHook fault_hook{};
  };

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wait_cycles = 0;
    std::uint64_t retries = 0;      ///< RETRY responses issued by the hook
    std::uint64_t errors = 0;       ///< ERROR responses issued by the hook
    std::uint64_t splits = 0;       ///< SPLIT responses issued by the hook
    std::uint64_t jitter_cycles = 0; ///< extra_waits cycles injected
  };

  MemorySlave(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  /// Backdoor access for tests and initialization: `addr` is a
  /// slave-relative byte offset (word-aligned); outside [0, size) throws
  /// std::out_of_range.
  [[nodiscard]] std::uint32_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint32_t value);

  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  void on_clock();

  Config cfg_;
  Stats stats_;
  std::vector<std::uint32_t> mem_;  ///< size / 4 words

  // Data-phase state machine.
  bool busy_ = false;        ///< a transfer's data phase is in flight
  bool completing_ = false;  ///< HREADYOUT driven high, op finishes next edge
  bool op_write_ = false;
  std::uint32_t op_addr_ = 0;
  unsigned waits_left_ = 0;

  // Two-cycle fault-response machine.
  enum class RespPhase { kNone, kFail1, kFail2 } resp_phase_ = RespPhase::kNone;
  std::uint64_t transfer_index_ = 0;
  /// Outstanding HSPLITx resumes: {master index, cycles until resume}.
  std::vector<std::pair<unsigned, unsigned>> pending_resumes_;

  sim::Method proc_;
};

/// The default slave: unmapped addresses land here. IDLE and BUSY get a
/// zero-wait OKAY; NONSEQ/SEQ get the protocol's two-cycle ERROR.
class DefaultSlave final : public AhbSlave {
public:
  DefaultSlave(sim::Module* parent, std::string name, AhbBus& bus);

  [[nodiscard]] std::uint64_t error_count() const { return errors_; }

private:
  void on_clock();

  bool erroring_ = false;  ///< in the first ERROR cycle
  bool completing_ = false;
  std::uint64_t errors_ = 0;
  sim::Method proc_;
};

}  // namespace ahbp::ahb
