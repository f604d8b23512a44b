#pragma once
// Burst transfer support: address sequencing helpers and a burst-capable
// master. The paper's testbench only exercises SINGLE transfers; this
// extends the model to the full AHB burst protocol (INCR/INCR4/8/16,
// WRAP4/8/16, SEQ continuation beats and BUSY idle beats).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ahb/master.hpp"
#include "ahb/types.hpp"

namespace ahbp::ahb {

/// Address of the beat following `addr` within a burst of the given type
/// and per-beat size. INCR-type bursts increment; WRAP-type bursts wrap
/// at the (beats * bytes-per-beat) boundary, as per AMBA rev 2.0.
[[nodiscard]] std::uint32_t next_burst_addr(std::uint32_t addr, Burst burst,
                                            Size size);

/// Lowest legal start address for a wrapping burst containing `addr`
/// (wrapping bursts must not cross their wrap boundary mid-computation;
/// any aligned-to-size address inside the block is legal as a start).
[[nodiscard]] std::uint32_t wrap_boundary(std::uint32_t addr, Burst burst, Size size);

/// A master issuing whole write bursts followed by read-back bursts of
/// the same addresses, with optional BUSY beats injected mid-burst.
///
/// Tenure structure mirrors TrafficMaster (IDLE, request, non-
/// interruptible work, release) so it composes with the same arbiter
/// policies, but each unit of work is a full burst with NONSEQ/SEQ
/// sequencing instead of a single transfer.
class BurstMaster final : public AhbMaster {
public:
  struct Config {
    std::uint32_t addr_base = 0;
    std::uint32_t addr_range = 1024;  ///< bytes
    Burst burst = Burst::kIncr4;
    /// For Burst::kIncr (undefined length): beats per burst.
    unsigned incr_beats = 4;
    /// Probability (percent) of inserting a BUSY beat before a SEQ beat.
    unsigned busy_percent = 0;
    unsigned min_idle_cycles = 1;
    unsigned max_idle_cycles = 8;
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t bursts = 0;
    std::uint64_t write_beats = 0;
    std::uint64_t read_beats = 0;
    std::uint64_t busy_beats = 0;
    std::uint64_t read_mismatches = 0;
    std::uint64_t error_responses = 0;
  };

  BurstMaster(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

private:
  sim::Task body();
  void count(const Completion& c);

  Config cfg_;
  Stats stats_;
  std::mt19937_64 rng_;
  unsigned beats_;              ///< beats per burst
  std::vector<Transfer> plan_;  ///< current burst's beats; capacity reused
  sim::Thread thread_;
};

}  // namespace ahbp::ahb
