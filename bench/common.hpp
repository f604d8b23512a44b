#pragma once
// Shared testbench for the paper-reproduction benches: the exact topology
// of the paper's evaluation (Sec. 5) -- two traffic masters executing
// WRITE-READ non-interruptible sequences and IDLE commands, one simple
// default master, and three slaves on an AMBA AHB, clocked at 100 MHz.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ahbp::bench {

/// The paper's system, with a power estimator attached.
struct PaperSystem {
  struct Options {
    ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority;
    unsigned wait_states = 0;
    bool power_enabled = true;
    std::uint64_t seed1 = 101;
    std::uint64_t seed2 = 202;
    /// Power window in bus cycles for the Figs 3-5 series and the
    /// telemetry exporters (0 = off).
    std::uint64_t telemetry_window_cycles = 0;
    /// Reconstruct per-transaction spans with attributed energy.
    bool txn_trace = false;
    /// Hot-path metrics sink (nullptr = no metrics).
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  PaperSystem() : PaperSystem(Options{}) {}

  explicit PaperSystem(Options opt)
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = opt.policy}),
        dm(&top, "default_master", bus),
        m1(&top, "m1", bus,
           {.addr_base = 0x0000, .addr_range = 0x1000, .seed = opt.seed1}),
        m2(&top, "m2", bus,
           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = opt.seed2}),
        s1(&top, "s1", bus,
           {.base = 0x0000, .size = 0x1000, .wait_states = opt.wait_states}),
        s2(&top, "s2", bus,
           {.base = 0x1000, .size = 0x1000, .wait_states = opt.wait_states}),
        s3(&top, "s3", bus,
           {.base = 0x2000, .size = 0x1000, .wait_states = opt.wait_states}) {
    bus.finalize();
    if (opt.power_enabled) {
      est = std::make_unique<power::AhbPowerEstimator>(
          &top, "power", bus,
          power::AhbPowerEstimator::Config{
              .telemetry_window_cycles = opt.telemetry_window_cycles,
              .txn_trace = opt.txn_trace,
              .metrics = opt.metrics});
    }
  }

  /// Runs for the given simulated duration (100 MHz clock).
  void run(sim::SimTime t) { kernel.run(t); }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  ahb::TrafficMaster m1, m2;
  ahb::MemorySlave s1, s2, s3;
  std::unique_ptr<power::AhbPowerEstimator> est;
};

/// True when the estimator's window series (flushed) sums to its total
/// energy within 1e-9 relative; otherwise prints a CHECK FAILED line.
inline bool windows_conserve_energy(const power::AhbPowerEstimator& est) {
  double sum = 0.0;
  for (const double e : power::window_energy(*est.windows(), "total")) sum += e;
  const double total = est.total_energy();
  if (std::abs(sum - total) <= 1e-9 * total) return true;
  std::printf("CONSERVATION CHECK FAILED: windows hold %.17g J, estimator %.17g J\n",
              sum, total);
  return false;
}

/// Campaign spec over the paper testbench: builds a complete
/// PaperSystem (kernel included) on whatever thread executes the spec,
/// runs it for `duration`, and reports the estimator's totals. Seeds
/// live in `opt`, so the same spec is bit-identical on every rerun.
inline campaign::RunSpec paper_run_spec(std::string name, PaperSystem::Options opt,
                                        sim::SimTime duration) {
  return campaign::RunSpec{std::move(name), [opt, duration] {
                             PaperSystem sys(opt);
                             sys.run(duration);
                             campaign::PowerReport r;
                             r.total_energy = sys.est->total_energy();
                             r.blocks = sys.est->block_totals();
                             r.cycles = sys.est->fsm().cycles();
                             return r;
                           }};
}

/// CPU seconds the calling thread spent so far. Timing guards measure
/// in thread CPU time, so time the thread spends descheduled never
/// counts.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The q-quantile of sorted `v` (linear interpolation).
inline double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace ahbp::bench
