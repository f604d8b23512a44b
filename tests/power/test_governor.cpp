// Tests for the dynamic-power-management governor: budget enforcement,
// throttle signalling, and the performance/power trade-off.

#include "power/governor.hpp"

#include <gtest/gtest.h>

#include "campaign/testbench.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::TrafficMaster;

/// The paper's testbench on two slaves (seeds 31/32) with a governor.
struct GovernorBench : campaign::PaperTestbench {
  /// budget <= 0 disables throttling (masters get no throttle signal).
  explicit GovernorBench(double budget_watts)
      : PaperTestbench({.master_seeds = {31, 32}, .slaves = 2}) {
    if (budget_watts > 0) {
      gov = std::make_unique<PowerGovernor>(
          &top, "gov", *est,
          PowerGovernor::Config{.budget_watts = budget_watts, .window_cycles = 32});
      m1.set_throttle(&gov->throttle());
      m2.set_throttle(&gov->throttle());
    }
  }

  TrafficMaster& m1 = *masters[0];
  TrafficMaster& m2 = *masters[1];
  std::unique_ptr<PowerGovernor> gov;
};

TEST(Governor, RejectsBadConfig) {
  GovernorBench b(-1.0);
  EXPECT_THROW(PowerGovernor(&b.top, "g1", *b.est,
                             PowerGovernor::Config{.budget_watts = 0}),
               sim::SimError);
  EXPECT_THROW(PowerGovernor(&b.top, "g2", *b.est,
                             PowerGovernor::Config{.budget_watts = 1e-3,
                                                   .window_cycles = 0}),
               sim::SimError);
}

TEST(Governor, GenerousBudgetNeverThrottles) {
  GovernorBench b(10.0);  // 10 W: never reachable
  b.run_cycles(3000);
  ASSERT_TRUE(b.gov != nullptr);
  EXPECT_EQ(b.gov->stats().over_budget_windows, 0u);
  EXPECT_FALSE(b.gov->throttle().read());
  EXPECT_EQ(b.m1.stats().throttled_cycles, 0u);
  EXPECT_GT(b.gov->stats().windows, 50u);
}

TEST(Governor, TightBudgetThrottlesMasters) {
  // Unthrottled mean bus power is ~0.8 mW; ask for a quarter of that.
  GovernorBench b(0.2e-3);
  b.run_cycles(5000);
  EXPECT_GT(b.gov->stats().over_budget_windows, 0u);
  EXPECT_GT(b.m1.stats().throttled_cycles + b.m2.stats().throttled_cycles, 0u);
}

TEST(Governor, ThrottlingReducesMeanPowerAndThroughput) {
  std::uint64_t free_transfers = 0, capped_transfers = 0;
  double free_power = 0.0, capped_power = 0.0;
  {
    GovernorBench b(-1.0);  // no governor at all
    b.run_cycles(5000);
    free_transfers = b.m1.stats().writes + b.m2.stats().writes;
    free_power = b.est->total_energy() / b.kernel.now().to_seconds();
  }
  {
    GovernorBench b(0.2e-3);
    b.run_cycles(5000);
    capped_transfers = b.m1.stats().writes + b.m2.stats().writes;
    capped_power = b.est->total_energy() / b.kernel.now().to_seconds();
  }
  EXPECT_LT(capped_power, free_power);
  EXPECT_LT(capped_transfers, free_transfers);
  EXPECT_GT(capped_transfers, 0u);  // still makes progress
}

TEST(Governor, StatsTrackWindows) {
  GovernorBench b(1.0);
  b.run_cycles(3200);
  // 3200 cycles / 32-cycle windows ~ 100 windows (first partial cycle).
  EXPECT_NEAR(static_cast<double>(b.gov->stats().windows), 100.0, 3.0);
  EXPECT_GT(b.gov->stats().mean_window_power, 0.0);
  EXPECT_GE(b.gov->stats().peak_window_power, b.gov->stats().mean_window_power);
}

}  // namespace
}  // namespace ahbp::power
