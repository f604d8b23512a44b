#include "power/governor.hpp"

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::power {

PowerGovernor::PowerGovernor(sim::Module* parent, std::string name,
                             AhbPowerEstimator& est, Config cfg)
    : Module(parent, std::move(name)),
      est_(est),
      cfg_(cfg),
      throttle_(this, "throttle", false) {
  if (cfg_.budget_watts <= 0) throw sim::SimError("PowerGovernor: budget must be > 0");
  if (cfg_.window_cycles == 0) throw sim::SimError("PowerGovernor: window must be > 0");
  est.bus().subscribe(*this);
}

void PowerGovernor::post_cycle(const ahb::CycleView&) {
  if (++cycles_in_window_ < cfg_.window_cycles) return;

  const double e = est_.total_energy();
  const double window_energy = e - window_start_energy_;
  const double window_seconds =
      est_.bus().clock().period().to_seconds() * cfg_.window_cycles;
  const double p = window_energy / window_seconds;

  ++stats_.windows;
  power_sum_ += p;
  stats_.mean_window_power = power_sum_ / static_cast<double>(stats_.windows);
  stats_.peak_window_power = std::max(stats_.peak_window_power, p);
  if (p > cfg_.budget_watts) ++stats_.over_budget_windows;

  throttle_.write(p > cfg_.budget_watts);
  window_start_energy_ = e;
  cycles_in_window_ = 0;
}

}  // namespace ahbp::power
