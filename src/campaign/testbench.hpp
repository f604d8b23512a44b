#pragma once
// The paper's evaluation testbench (Sec. 5), described once: a default
// master, traffic masters running WRITE-READ sequences and IDLE, and
// memory slaves on an AMBA AHB at 100 MHz, plus the optional fault
// injector, protocol monitor and power estimator.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "fault/injector.hpp"
#include "power/estimator.hpp"

namespace ahbp::campaign {

/// Built in the order masters, injector, slaves, AhbBus::finalize,
/// monitor, estimator. More observers may attach to `top`/`bus` after.
/// The default Config is the paper's rig: two masters, three slaves.
struct PaperTestbench {
  struct Config {
    ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority;
    unsigned wait_states = 0;  ///< on every slave
    /// One traffic master per seed; master m sweeps slave m % slaves.
    std::vector<std::uint64_t> master_seeds{101, 202};
    unsigned slaves = 3;  ///< 4 KiB each, slave s at 0x1000 * s
    std::optional<fault::FaultPlan> faults{};  ///< plan slot s = slave s
    telemetry::MetricsRegistry* fault_metrics = nullptr;  ///< injector's, not owned
    std::optional<ahb::BusMonitor::Config> monitor{};
    std::optional<power::AhbPowerEstimator::Config> power{std::in_place};
  };

  PaperTestbench() : PaperTestbench(Config{}) {}
  explicit PaperTestbench(const Config& cfg);

  void run(sim::SimTime t) { kernel.run(t); }
  void run_cycles(std::uint64_t n) {
    kernel.run(clk.period() * static_cast<std::int64_t>(n));
  }

  /// Names by bus master index: "default_master", then "m1".."mN".
  [[nodiscard]] std::vector<std::string> master_names() const {
    std::vector<std::string> names{dm.basename()};
    for (const auto& m : masters) names.push_back(m->basename());
    return names;
  }

  /// The run so far, after flushing the estimator's telemetry: energies,
  /// cycles and `data_share`/`arb_share` always; `transfers` with the
  /// monitor; attribution and `bus_energy_j` with a transaction tracer.
  /// Throws sim::SimError without an estimator.
  [[nodiscard]] PowerReport report();

  /// A campaign spec that builds the testbench on the worker thread,
  /// runs `cycles` bus cycles and returns report().
  [[nodiscard]] static RunSpec spec(std::string name, Config cfg, std::uint64_t cycles) {
    return {std::move(name), [cfg = std::move(cfg), cycles] {
              PaperTestbench tb(cfg);
              tb.run_cycles(cycles);
              return tb.report();
            }};
  }

  sim::Kernel kernel;
  sim::Module top{nullptr, "top"};
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  std::vector<std::unique_ptr<ahb::TrafficMaster>> masters;
  std::unique_ptr<fault::FaultInjector> injector;  ///< outlives the slaves
  std::vector<std::unique_ptr<ahb::MemorySlave>> slaves;
  std::unique_ptr<ahb::BusMonitor> monitor;
  std::unique_ptr<power::AhbPowerEstimator> est;
};

}  // namespace ahbp::campaign
