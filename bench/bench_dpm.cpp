// Extension bench: dynamic power management (the run-time energy
// optimization the paper's Sec. 4 alludes to). Sweeps the governor's
// power budget and reports achieved mean power, throughput, and how
// often the budget was exceeded -- the power/performance trade-off curve
// a DPM designer would tune against.

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "power/governor.hpp"
#include "power/report.hpp"

namespace {

using namespace ahbp;

struct DpmResult {
  double mean_power = 0.0;
  double peak_window_power = 0.0;
  std::uint64_t transfers = 0;
  std::uint64_t throttled_cycles = 0;
  std::uint64_t over_budget_windows = 0;
  std::uint64_t windows = 0;
};

DpmResult run_with_budget(double budget_watts) {
  campaign::PaperTestbench sys;
  std::unique_ptr<power::PowerGovernor> gov;
  if (budget_watts > 0) {
    gov = std::make_unique<power::PowerGovernor>(
        &sys.top, "gov", *sys.est,
        power::PowerGovernor::Config{.budget_watts = budget_watts,
                                     .window_cycles = 32});
    for (const auto& m : sys.masters) m->set_throttle(&gov->throttle());
  }
  sys.run(sim::SimTime::us(100));

  DpmResult r;
  r.mean_power = sys.est->total_energy() / sys.kernel.now().to_seconds();
  for (const auto& m : sys.masters) {
    r.transfers += m->stats().writes + m->stats().reads;
    r.throttled_cycles += m->stats().throttled_cycles;
  }
  if (gov) {
    r.peak_window_power = gov->stats().peak_window_power;
    r.over_budget_windows = gov->stats().over_budget_windows;
    r.windows = gov->stats().windows;
  }
  return r;
}

}  // namespace

int main() {
  std::puts("=== Extension: dynamic power management (budget sweep) ===");
  std::puts("paper testbench + PowerGovernor, 100 us @ 100 MHz, 32-cycle windows\n");

  const DpmResult free_run = run_with_budget(-1.0);
  std::printf("%-12s %14s %12s %16s %14s\n", "budget", "mean power",
              "transfers", "throttled cyc", "over-budget");
  std::printf("%-12s %14s %12llu %16s %14s\n", "none",
              power::format_power(free_run.mean_power).c_str(),
              static_cast<unsigned long long>(free_run.transfers), "-", "-");

  for (const double budget : {2e-3, 1e-3, 0.5e-3, 0.3e-3, 0.15e-3}) {
    const DpmResult r = run_with_budget(budget);
    char ob[32];
    std::snprintf(ob, sizeof ob, "%llu/%llu",
                  static_cast<unsigned long long>(r.over_budget_windows),
                  static_cast<unsigned long long>(r.windows));
    std::printf("%-12s %14s %12llu %16llu %14s\n",
                power::format_power(budget).c_str(),
                power::format_power(r.mean_power).c_str(),
                static_cast<unsigned long long>(r.transfers),
                static_cast<unsigned long long>(r.throttled_cycles), ob);
  }

  std::puts("\ntighter budgets trade throughput for power: the governor holds");
  std::puts("mean power near the budget while the workload still progresses.");

  // Automated check: the tightest budget must reduce both power and
  // throughput relative to the free run.
  const DpmResult tight = run_with_budget(0.15e-3);
  if (tight.mean_power >= free_run.mean_power ||
      tight.transfers >= free_run.transfers) {
    std::puts("DPM CHECK FAILED");
    return 1;
  }
  std::puts("DPM CHECK PASSED.");
  return 0;
}
