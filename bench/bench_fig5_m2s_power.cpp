// Reproduces Figure 5 of the paper: power dissipated by the multiplexer
// that sends data and control signals from the masters side to the
// slaves side (M2S) during the first 4 us -- the dominant sub-block.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  bench::PaperSystem sys({.telemetry_window_cycles = 10});  // 100 ns windows
  std::puts("=== Figure 5: M2S multiplexer power consumption (first 4 us) ===\n");

  sys.run(sim::SimTime::us(4));
  sys.est->flush_telemetry();

  const telemetry::WindowSeries& series = *sys.est->windows();
  const sim::SimTime period = sys.clk.period();
  std::fputs(power::format_trace(series, "m2s", period, sim::SimTime::us(4)).c_str(),
             stdout);
  if (!bench::windows_conserve_energy(*sys.est)) return 1;

  double peak = 0.0;
  double e_m2s = 0.0, e_total = 0.0;
  for (const double w : power::window_power(series, "m2s", period)) {
    peak = std::max(peak, w);
  }
  for (const double e : power::window_energy(series, "m2s")) e_m2s += e;
  for (const double e : power::window_energy(series, "total")) e_total += e;
  std::printf("\npeak M2S power: %s   M2S share of total energy: %.2f %%\n",
              power::format_power(peak).c_str(), 100.0 * e_m2s / e_total);
  if (e_m2s < 0.25 * e_total) {
    std::puts("SHAPE CHECK FAILED: M2S should be the dominant sub-block");
    return 1;
  }
  std::puts("SHAPE CHECK PASSED: the AHB data-path mux dominates.");
  return 0;
}
