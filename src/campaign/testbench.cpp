#include "campaign/testbench.hpp"

#include "power/report.hpp"
#include "sim/report.hpp"

namespace ahbp::campaign {

PaperTestbench::PaperTestbench(const Config& cfg)
    : clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),  // 100 MHz
      bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = cfg.policy}),
      dm(&top, "default_master", bus) {
  if (cfg.slaves == 0) throw sim::SimError("PaperTestbench: needs a slave");
  for (unsigned m = 0; m < cfg.master_seeds.size(); ++m) {
    masters.push_back(std::make_unique<ahb::TrafficMaster>(
        &top, "m" + std::to_string(m + 1), bus,
        ahb::TrafficMaster::Config{.addr_base = 0x1000u * (m % cfg.slaves),
                                   .addr_range = 0x1000,
                                   .seed = cfg.master_seeds[m]}));
  }
  if (cfg.faults) {
    injector = std::make_unique<fault::FaultInjector>(*cfg.faults, cfg.fault_metrics);
  }
  for (unsigned s = 0; s < cfg.slaves; ++s) {
    slaves.push_back(std::make_unique<ahb::MemorySlave>(
        &top, "s" + std::to_string(s + 1), bus,
        ahb::MemorySlave::Config{
            .base = 0x1000u * s,
            .size = 0x1000,
            .wait_states = cfg.wait_states,
            .fault_hook = injector ? injector->hook(s) : ahb::FaultHook{}}));
  }
  bus.finalize();
  if (cfg.monitor) {
    monitor = std::make_unique<ahb::BusMonitor>(&top, "monitor", bus, *cfg.monitor);
  }
  if (cfg.power) {
    est = std::make_unique<power::AhbPowerEstimator>(&top, "power", bus, *cfg.power);
  }
}

PowerReport PaperTestbench::report() {
  if (!est) throw sim::SimError("PaperTestbench::report: no power estimator");
  est->flush_telemetry();
  PowerReport r;
  r.total_energy = est->total_energy();
  r.blocks = est->block_totals();
  r.cycles = est->fsm().cycles();
  r.transfers = monitor ? monitor->stats().transfers : 0;
  r.metrics = {{"data_share", power::data_transfer_share(est->fsm())},
               {"arb_share", power::arbitration_share(est->fsm())}};
  if (const power::TransactionTracer* txn = est->txn_tracer()) {
    r.bus_energy_j = txn->attribution().bus_energy();
    for (unsigned m = 0; m < bus.n_masters(); ++m) {
      r.attribution.push_back(
          {txn->attribution().master_energy()[m], txn->master_txns()[m]});
    }
  }
  return r;
}

}  // namespace ahbp::campaign
