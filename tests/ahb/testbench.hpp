#pragma once
// Shared fixture pieces for AHB tests: a kernel + clock + bus skeleton,
// a fixed-cadence fault hook, and a one-line outcome of a fault rig.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "sim/sim.hpp"

namespace ahbp::ahb::test {

/// A bare system: 100 MHz clock and a bus, nothing attached yet.
/// First rising edge at 10 ns.
struct Bench {
  explicit Bench(AhbBus::Config cfg = AhbBus::Config{})
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk, cfg) {}

  /// Runs for `cycles` bus cycles.
  void run_cycles(unsigned cycles) {
    kernel.run(sim::SimTime::ns(10) * static_cast<std::int64_t>(cycles));
  }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  AhbBus bus;
};

/// A MemorySlave fault hook with a fixed cadence: the n-th, 2n-th, ...
/// accepted transfer gets a two-cycle `resp` instead of completing, and
/// a SPLIT resumes `split_resume_cycles` after its response.
inline FaultHook fail_every(unsigned n, Resp resp = Resp::kRetry,
                            unsigned split_resume_cycles = 4) {
  return [=](const FaultQuery& q) {
    FaultDecision d;
    if ((q.transfer_index + 1) % n == 0) {
      d.resp = resp;
      d.split_resume_cycles = split_resume_cycles;
    }
    return d;
  };
}

/// Transfers the slave's fault hook failed (RETRY, ERROR or SPLIT).
inline std::uint64_t failures(const MemorySlave& ms) {
  const MemorySlave::Stats& s = ms.stats();
  return s.retries + s.errors + s.splits;
}

/// A fault rig's observable outcome in one line, for golden checks: each
/// result as resp:data, the master's retry and split counters, the
/// slave's completed writes and reads and its failed transfers, and the
/// monitor's stats and violation count.
inline std::string outcome(const ScriptedMaster& m, const MemorySlave& ms,
                           const BusMonitor& mon) {
  std::ostringstream os;
  os << "results";
  for (const auto& r : m.results()) {
    os << ' ' << static_cast<int>(r.resp) << ':' << std::hex << r.data << std::dec;
  }
  os << " | retries " << m.retries() << " splits " << m.splits() << " | slave w"
     << ms.stats().writes << " r" << ms.stats().reads << " f" << failures(ms);
  const BusMonitor::Stats& s = mon.stats();
  os << " | mon c" << s.cycles << " t" << s.transfers << " r" << s.reads << " w"
     << s.writes << " wait" << s.wait_cycles << " idle" << s.idle_cycles << " ho"
     << s.handovers << " err" << s.error_responses << " rty" << s.retry_responses
     << " spl" << s.split_responses << " v" << mon.violations().size();
  return os.str();
}

}  // namespace ahbp::ahb::test
