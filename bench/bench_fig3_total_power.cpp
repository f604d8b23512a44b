// Reproduces Figure 3 of the paper: total AHB power consumption during
// the first 4 us of the testbench simulation. Prints the windowed power
// series and writes fig3_total_power.csv with all sub-block series.

#include <cstdio>
#include <vector>
#include <fstream>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  // 10-cycle (100 ns) windows.
  campaign::PaperTestbench sys(
      {.power = power::AhbPowerEstimator::Config{.telemetry_window_cycles = 10}});
  std::puts("=== Figure 3: total AHB power consumption (first 4 us) ===\n");

  if (!bench::run_and_check_windows(sys, sim::SimTime::us(4))) return 1;

  const telemetry::WindowSeries& series = *sys.est->windows();
  const sim::SimTime period = sys.clk.period();
  std::fputs(power::format_trace(series, "total", period, sim::SimTime::us(4)).c_str(),
             stdout);

  const std::vector<double> power = power::window_power(series, "total", period);
  double peak = 0.0, mean = 0.0;
  for (const double w : power) {
    peak = std::max(peak, w);
    mean += w;
  }
  mean /= static_cast<double>(power.size());
  std::printf("\nwindows: %zu   mean power: %s   peak power: %s\n", power.size(),
              power::format_power(mean).c_str(), power::format_power(peak).c_str());

  std::ofstream csv("fig3_total_power.csv");
  power::write_trace_csv(csv, series, period);
  std::puts("full series written to fig3_total_power.csv");
  return 0;
}
