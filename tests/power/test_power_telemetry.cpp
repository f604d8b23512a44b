// Integration tests for the estimator's telemetry path: cycle-windowed
// energy conservation, bus-instruction trace events, and hot-path /
// end-of-run metrics publication.

#include <gtest/gtest.h>

#include <cmath>

#include "campaign/testbench.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ahbp::power {
namespace {

using campaign::PaperTestbench;

/// The paper's testbench (seeds 11/22) with the given estimator Config.
PaperTestbench::Config rig(AhbPowerEstimator::Config est = {}) {
  return {.master_seeds = {11, 22}, .power = est};
}

TEST(EstimatorTelemetry, DisabledByDefault) {
  PaperTestbench b(rig());
  b.run_cycles(100);
  EXPECT_EQ(b.est->windows(), nullptr);
  EXPECT_EQ(b.est->trace_events(), nullptr);
  b.est->flush_telemetry();  // no-op, must not crash
}

TEST(EstimatorTelemetry, WindowEnergiesSumToTotal) {
  PaperTestbench b(rig({.telemetry_window_cycles = 100}));
  b.run_cycles(2000);
  b.est->flush_telemetry();

  ASSERT_NE(b.est->windows(), nullptr);
  const auto& windows = b.est->windows()->windows();
  ASSERT_GE(windows.size(), 19u);  // ~2000 cycles / 100 per window

  double sum = 0.0;
  for (const auto& w : windows) {
    for (const double v : w.values) sum += v;
  }
  const double total = b.est->total_energy();
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(sum, total, 1e-9 * total);  // the conservation guarantee
}

TEST(EstimatorTelemetry, WindowsTileTheCycleAxis) {
  PaperTestbench b(rig({.telemetry_window_cycles = 64}));
  b.run_cycles(1000);
  b.est->flush_telemetry();
  const auto& windows = b.est->windows()->windows();
  ASSERT_FALSE(windows.empty());
  std::uint64_t expect_start = windows.front().start_tick;
  std::uint64_t covered = 0;
  for (const auto& w : windows) {
    EXPECT_EQ(w.start_tick, expect_start);
    expect_start += 64;
    covered += w.ticks;
  }
  EXPECT_EQ(covered, b.est->fsm().cycles());
}

TEST(EstimatorTelemetry, TraceEventsTileTheRun) {
  PaperTestbench b(rig({.telemetry_window_cycles = 100}));
  b.run_cycles(500);
  b.est->flush_telemetry();

  ASSERT_NE(b.est->trace_events(), nullptr);
  const auto& events = b.est->trace_events()->events();
  ASSERT_FALSE(events.empty());
  // Slices are contiguous, non-overlapping, and cover every sampled
  // cycle: each run of same-mode cycles becomes exactly one slice.
  std::uint64_t pos = events.front().start_tick;
  std::uint64_t dur_sum = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.start_tick, pos);
    EXPECT_GT(e.dur_ticks, 0u);
    EXPECT_EQ(e.category, "bus");
    pos += e.dur_ticks;
    dur_sum += e.dur_ticks;
  }
  EXPECT_EQ(dur_sum, b.est->fsm().cycles());
  // Slice names are the paper's four bus instructions.
  for (const auto& e : events) {
    EXPECT_TRUE(e.name == "IDLE" || e.name == "IDLE_HO" || e.name == "READ" ||
                e.name == "WRITE")
        << e.name;
  }
}

TEST(EstimatorTelemetry, FlushIsIdempotent) {
  PaperTestbench b(rig({.telemetry_window_cycles = 100}));
  b.run_cycles(300);
  b.est->flush_telemetry();
  const std::size_t n_windows = b.est->windows()->windows().size();
  const std::size_t n_events = b.est->trace_events()->size();
  b.est->flush_telemetry();
  EXPECT_EQ(b.est->windows()->windows().size(), n_windows);
  EXPECT_EQ(b.est->trace_events()->size(), n_events);
}

TEST(EstimatorTelemetry, LiveMetricsAndPublishedTotals) {
  telemetry::MetricsRegistry metrics;
  PaperTestbench b(rig({.metrics = &metrics}));
  b.run_cycles(400);

  // Hot-path metrics are live during the run.
  const telemetry::Counter* sampled =
      metrics.find_counter("ahb.power.sampled_cycles");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->value(), b.est->fsm().cycles());
  const telemetry::Histogram* h =
      metrics.find_histogram("ahb.power.cycle_energy_pj");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), b.est->fsm().cycles());
  // The histogram's sum is the run's energy in pJ.
  EXPECT_NEAR(h->sum() * 1e-12, b.est->total_energy(),
              1e-9 * b.est->total_energy());

  // End-of-run totals appear on flush.
  EXPECT_EQ(metrics.find_counter("ahb.power.cycles"), nullptr);
  b.est->flush_telemetry();
  const telemetry::Counter* cycles = metrics.find_counter("ahb.power.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), b.est->fsm().cycles());
  const telemetry::Gauge* total = metrics.find_gauge("ahb.power.energy.total_j");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value(), b.est->total_energy());

  // Publication happens once even if flushed again.
  b.est->flush_telemetry();
  EXPECT_EQ(cycles->value(), b.est->fsm().cycles());
}

TEST(EstimatorTelemetry, DisabledRegistryStaysEmptyButRunProceeds) {
  telemetry::MetricsRegistry metrics;
  metrics.set_enabled(false);
  PaperTestbench b(rig({.metrics = &metrics}));
  b.run_cycles(200);
  b.est->flush_telemetry();
  EXPECT_GT(b.est->total_energy(), 0.0);  // power analysis unaffected
  const telemetry::Counter* sampled =
      metrics.find_counter("ahb.power.sampled_cycles");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->value(), 0u);  // updates bypassed
}

TEST(EstimatorTelemetry, PerInstructionMetricsMatchFsm) {
  telemetry::MetricsRegistry metrics;
  PaperTestbench b(rig({.metrics = &metrics}));
  b.run_cycles(300);
  b.est->flush_telemetry();

  std::uint64_t from_metrics = 0;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind("ahb.power.instr.", 0) == 0) from_metrics += c.value();
  }
  // Every sampled cycle executes exactly one instruction (the first
  // cycle counts as a self-transition), so the counts sum to cycles().
  EXPECT_EQ(from_metrics, b.est->fsm().cycles());
}

}  // namespace
}  // namespace ahbp::power
