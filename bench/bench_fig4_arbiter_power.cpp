// Reproduces Figure 4 of the paper: arbiter power consumption during the
// first 4 us. The arbiter is one of the least power-hungry sub-blocks --
// compare against Figure 5 (M2S mux), which dwarfs it.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  bench::PaperSystem sys({.telemetry_window_cycles = 10});  // 100 ns windows
  std::puts("=== Figure 4: arbiter power consumption (first 4 us) ===\n");

  sys.run(sim::SimTime::us(4));
  sys.est->flush_telemetry();

  const telemetry::WindowSeries& series = *sys.est->windows();
  const sim::SimTime period = sys.clk.period();
  std::fputs(power::format_trace(series, "arb", period, sim::SimTime::us(4)).c_str(),
             stdout);
  if (!bench::windows_conserve_energy(*sys.est)) return 1;

  double peak_arb = 0.0, peak_m2s = 0.0, sum_arb = 0.0, sum_m2s = 0.0;
  for (const double w : power::window_power(series, "arb", period)) {
    peak_arb = std::max(peak_arb, w);
  }
  for (const double w : power::window_power(series, "m2s", period)) {
    peak_m2s = std::max(peak_m2s, w);
  }
  for (const double e : power::window_energy(series, "arb")) sum_arb += e;
  for (const double e : power::window_energy(series, "m2s")) sum_m2s += e;
  std::printf("\npeak arbiter power: %s   peak M2S power: %s\n",
              power::format_power(peak_arb).c_str(),
              power::format_power(peak_m2s).c_str());
  std::printf("arbiter/M2S energy ratio over the window: %.4f (paper: << 1)\n",
              sum_arb / sum_m2s);
  if (sum_arb >= sum_m2s) {
    std::puts("SHAPE CHECK FAILED: arbiter should dissipate far less than M2S");
    return 1;
  }
  std::puts("SHAPE CHECK PASSED.");
  return 0;
}
