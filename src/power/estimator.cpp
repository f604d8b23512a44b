#include "power/estimator.hpp"

namespace ahbp::power {

AhbPowerEstimator::AhbPowerEstimator(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus)
    : AhbPowerEstimator(parent, std::move(name), bus, Config{}) {}

AhbPowerEstimator::AhbPowerEstimator(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus, Config cfg)
    : Module(parent, std::move(name)),
      bus_(bus),
      cfg_(cfg),
      fsm_(PowerFsm::Config{.n_masters = bus.n_masters(),
                            .n_slaves = bus.n_slaves(),
                            .data_width = 32,
                            .addr_width = 32,
                            .control_width = 8,
                            .tech = cfg.tech}) {
  bus.subscribe(*this);
  if (cfg_.telemetry_window_cycles > 0) {
    windows_ = std::make_unique<telemetry::WindowSeries>(
        telemetry::WindowSeries::Config{
            .window_ticks = cfg_.telemetry_window_cycles,
            .tracks = {"arb", "dec", "m2s", "s2m"}});
    events_ = std::make_unique<telemetry::TraceEventLog>();
  }
  if (cfg_.txn_trace) {
    txn_ = std::make_unique<TransactionTracer>(
        TransactionTracer::Config{.n_masters = bus.n_masters(),
                                  .n_slaves = bus.n_slaves(),
                                  .metrics = cfg_.metrics});
  }
  if (cfg_.metrics != nullptr) {
    c_cycles_ = &cfg_.metrics->counter("ahb.power.sampled_cycles");
    h_cycle_energy_ = &cfg_.metrics->histogram(
        "ahb.power.cycle_energy_pj", {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
  }
}

void AhbPowerEstimator::post_cycle(const ahb::CycleView& v) {
  const PowerFsm::StepResult r = fsm_.step(v);
  if (txn_) txn_->on_cycle(v, r.blocks);
  if (windows_) {
    const std::uint64_t cycle = fsm_.cycles() - 1;
    windows_->record(cycle, {r.blocks.arb, r.blocks.dec, r.blocks.m2s,
                             r.blocks.s2m});
    if (!run_open_) {
      run_mode_ = r.mode;
      run_start_ = cycle;
      run_open_ = true;
    } else if (r.mode != run_mode_) {
      events_->add_complete(to_string(run_mode_), "bus", run_start_,
                            cycle - run_start_);
      run_mode_ = r.mode;
      run_start_ = cycle;
    }
  }
  if (c_cycles_ != nullptr) {
    c_cycles_->increment();
    h_cycle_energy_->observe(r.blocks.total() * 1e12);
  }
}

void AhbPowerEstimator::flush_telemetry() {
  if (windows_) {
    if (run_open_) {
      events_->add_complete(to_string(run_mode_), "bus", run_start_,
                            fsm_.cycles() - run_start_);
      run_open_ = false;
    }
    windows_->flush();
  }
  if (txn_) txn_->flush();
  if (cfg_.metrics != nullptr && !metrics_published_) {
    fsm_.publish_metrics(*cfg_.metrics);
    metrics_published_ = true;
  }
}

}  // namespace ahbp::power
