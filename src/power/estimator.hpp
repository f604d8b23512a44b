#pragma once
// AhbPowerEstimator: the methodology's "local model" integration style
// (Fig. 1) and the library's main power-analysis entry point.
//
// The monitor subscribes beside the functional bus model to the bus's
// one per-cycle sample (AhbBus::subscribe), feeds the power FSM, and
// (optionally) builds windowed power telemetry. The functional model is
// untouched -- the executable-specification equivalent of compiling
// without the paper's POWERTEST define is simply not constructing the
// estimator.
//
// Observability: with `telemetry_window_cycles` set, every sampled cycle
// publishes its per-block energy into a cycle-windowed
// telemetry::WindowSeries and runs of identical bus modes become
// duration events in a telemetry::TraceEventLog -- ready for the CSV /
// JSON / Chrome trace_event exporters (docs/OBSERVABILITY.md). With
// `metrics` set, hot-path counters land in the given MetricsRegistry.

#include <array>
#include <memory>
#include <string>

#include "ahb/bus.hpp"
#include "power/attribution.hpp"
#include "power/power_fsm.hpp"
#include "sim/module.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/window.hpp"

namespace ahbp::power {

/// Runs the power FSM on every cycle sample of a finalized AhbBus.
class AhbPowerEstimator : public sim::Module, private ahb::CycleSubscriber {
public:
  struct Config {
    gate::Technology tech = gate::Technology::default_2003();
    /// Window (in sampled bus cycles) for the telemetry series and the
    /// bus-instruction trace events; zero disables both.
    std::uint64_t telemetry_window_cycles = 0;
    /// Reconstruct per-transaction spans and attribute block energies to
    /// them (TransactionTracer); see docs/OBSERVABILITY.md.
    bool txn_trace = false;
    /// Optional metrics registry (not owned; must outlive the
    /// estimator). The estimator maintains `ahb.power.sampled_cycles`
    /// and `ahb.power.cycle_energy_pj` live, and flush_telemetry()
    /// publishes the FSM's end-of-run totals into it.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  /// The bus must already be finalized.
  AhbPowerEstimator(sim::Module* parent, std::string name, ahb::AhbBus& bus);
  AhbPowerEstimator(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                    Config cfg);

  /// @name Results
  ///@{
  [[nodiscard]] const PowerFsm& fsm() const { return fsm_; }
  [[nodiscard]] double total_energy() const { return fsm_.total_energy(); }
  [[nodiscard]] const BlockEnergy& block_totals() const { return fsm_.block_totals(); }
  /// Cycle-windowed per-block energy series (tracks arb/dec/m2s/s2m) --
  /// the power-vs-time trace of Figs 3-5 (power::format_trace,
  /// power::write_trace_csv); nullptr when telemetry_window_cycles is
  /// zero.
  [[nodiscard]] const telemetry::WindowSeries* windows() const {
    return windows_.get();
  }
  /// Bus-instruction duration events; nullptr when telemetry is off.
  [[nodiscard]] const telemetry::TraceEventLog* trace_events() const {
    return events_.get();
  }
  /// Per-transaction tracer; nullptr unless Config::txn_trace was set.
  /// flush_telemetry() closes in-flight transactions before you read it.
  [[nodiscard]] const TransactionTracer* txn_tracer() const {
    return txn_.get();
  }
  /// Mutable access (runtime set_enabled for overhead experiments).
  [[nodiscard]] TransactionTracer* txn_tracer() { return txn_.get(); }
  /// Closes the telemetry window and open mode run, and publishes the
  /// FSM totals into the metrics registry (once per run). Call after
  /// the run, before reading windows() or the trace events.
  void flush_telemetry();
  ///@}

  /// The monitored bus (PowerGovernor subscribes to it after us).
  [[nodiscard]] ahb::AhbBus& bus() const { return bus_; }

private:
  void post_cycle(const ahb::CycleView& v) override;

  ahb::AhbBus& bus_;
  Config cfg_;
  PowerFsm fsm_;
  std::unique_ptr<telemetry::WindowSeries> windows_;
  std::unique_ptr<telemetry::TraceEventLog> events_;
  std::unique_ptr<TransactionTracer> txn_;
  /// Current run of consecutive same-mode cycles (one trace slice).
  BusMode run_mode_ = BusMode::kIdle;
  std::uint64_t run_start_ = 0;
  bool run_open_ = false;
  bool metrics_published_ = false;
  telemetry::Counter* c_cycles_ = nullptr;
  telemetry::Histogram* h_cycle_energy_ = nullptr;
};

}  // namespace ahbp::power
