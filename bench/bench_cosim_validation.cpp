// Live macromodel validation (extension of the paper's Sec. 5.1 SIS
// check): while the paper testbench runs, the generated gate-level
// address mux and arbiter are driven with the same live stimulus; their
// toggle-accounted energy is compared per cycle against the macromodels.
// This measures model accuracy under the *real workload's* activity
// distribution, not just synthetic stimulus.

#include <cstdio>

#include "common.hpp"
#include "power/cosim.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  campaign::PaperTestbench sys;
  power::GateLevelCrossCheck check(&sys.top, "cosim", sys.bus);

  std::puts("=== Live gate-level co-simulation validation (50 us workload) ===\n");
  sys.run(sim::SimTime::us(50));

  auto report = [](const char* name, const power::CosimSeries& s) {
    std::printf("%-24s model %-12s gate %-12s ratio %5.2f  corr %5.3f\n", name,
                power::format_energy(s.model_total()).c_str(),
                power::format_energy(s.gate_total()).c_str(), s.totals_ratio(),
                s.correlation());
  };
  report("address-path M2S mux", check.mux_series());
  report("arbiter FSM", check.arbiter_series());

  std::printf("\ncycles co-simulated: %llu\n",
              static_cast<unsigned long long>(check.cycles()));
  std::puts("interpretation: correlation shows the macromodels follow the");
  std::puts("cycle-by-cycle gate-level energy under real traffic; the totals");
  std::puts("ratio is the calibration factor a charlib re-fit would absorb.");

  const bool ok = check.mux_series().correlation() > 0.5 &&
                  check.arbiter_series().correlation() > 0.25;
  if (!ok) {
    std::puts("COSIM CHECK FAILED: macromodels decorrelated from gate level");
    return 1;
  }
  std::puts("COSIM CHECK PASSED.");
  return 0;
}
