// The paper testbench: what report() carries, the shared address rule,
// master names, and bit-identical reruns of one Config.

#include "campaign/testbench.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ahbp::campaign {
namespace {

/// Three masters on two slaves with faults, a non-fatal monitor and a
/// transaction tracer: every optional part is on.
PaperTestbench::Config full_config(telemetry::MetricsRegistry* metrics) {
  return {.policy = ahb::ArbitrationPolicy::kRoundRobin,
          .wait_states = 1,
          .master_seeds = {5, 6, 7},
          .slaves = 2,
          .faults = fault::FaultPlan::uniform(
              9, {.retry_rate = 0.05, .error_rate = 0.01, .jitter_rate = 0.1}, 2),
          .fault_metrics = metrics,
          .monitor = ahb::BusMonitor::Config{.fatal = false},
          .power = power::AhbPowerEstimator::Config{.txn_trace = true}};
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(PaperTestbench, ReportCarriesEveryPart) {
  telemetry::MetricsRegistry metrics;
  PaperTestbench tb(full_config(&metrics));
  tb.run_cycles(3000);
  const PowerReport r = tb.report();

  const power::AhbPowerEstimator& est = *tb.est;
  EXPECT_GT(r.total_energy, 0.0);
  EXPECT_EQ(r.total_energy, est.total_energy());
  EXPECT_EQ(r.blocks.m2s, est.block_totals().m2s);
  EXPECT_EQ(r.blocks.arb, est.block_totals().arb);
  EXPECT_EQ(r.cycles, est.fsm().cycles());
  EXPECT_GT(r.transfers, 0u);
  EXPECT_EQ(r.transfers, tb.monitor->stats().transfers);
  EXPECT_GT(r.metrics.at("data_share"), 0.0);
  EXPECT_GT(r.metrics.at("arb_share"), 0.0);

  // One attribution entry per bus master, the default master first.
  ASSERT_EQ(r.attribution.size(), 4u);
  const power::TransactionTracer& txn = *est.txn_tracer();
  double attributed = 0.0;
  for (unsigned m = 0; m < r.attribution.size(); ++m) {
    EXPECT_EQ(r.attribution[m].energy_j, txn.attribution().master_energy()[m]);
    EXPECT_EQ(r.attribution[m].txns, txn.master_txns()[m]);
    attributed += r.attribution[m].energy_j;
  }
  for (unsigned m = 1; m < r.attribution.size(); ++m) {
    EXPECT_GT(r.attribution[m].txns, 0u) << "m" << m;
  }
  EXPECT_NEAR(attributed + r.bus_energy_j, r.total_energy, 1e-9 * r.total_energy);

  // The injector fired and counted into the registry it was given.
  ASSERT_NE(tb.injector, nullptr);
  const fault::FaultInjector::Stats& fs = tb.injector->stats();
  EXPECT_GT(fs.retries + fs.errors + fs.jitter_hits, 0u);
  EXPECT_EQ(metrics.counter("ahb.fault.decisions").value(), fs.decisions);
}

TEST(PaperTestbench, MastersShareSlavesByIndex) {
  // Master m sweeps slave m % slaves: m1 and m3 hit s1, m2 hits s2.
  PaperTestbench tb({.master_seeds = {1, 2, 3}, .slaves = 2, .power = std::nullopt});
  tb.run_cycles(3000);
  std::uint64_t master_writes = 0;
  for (const auto& m : tb.masters) master_writes += m->stats().writes;
  const std::uint64_t s1 = tb.slaves[0]->stats().writes;
  const std::uint64_t s2 = tb.slaves[1]->stats().writes;
  EXPECT_EQ(s1 + s2, master_writes);
  EXPECT_EQ(s2, tb.masters[1]->stats().writes);
  EXPECT_EQ(s1, tb.masters[0]->stats().writes + tb.masters[2]->stats().writes);
}

TEST(PaperTestbench, MasterNamesFollowMasterIndex) {
  const PaperTestbench tb({.master_seeds = {1, 2, 3}});
  EXPECT_EQ(tb.master_names(),
            (std::vector<std::string>{"default_master", "m1", "m2", "m3"}));
  EXPECT_EQ(tb.bus.n_masters(), 4u);
}

TEST(PaperTestbench, DefaultIsThePaperRig) {
  const PaperTestbench tb;
  EXPECT_EQ(tb.masters.size(), 2u);
  EXPECT_EQ(tb.slaves.size(), 3u);
  EXPECT_EQ(tb.injector, nullptr);
  EXPECT_EQ(tb.monitor, nullptr);
  ASSERT_NE(tb.est, nullptr);
  EXPECT_EQ(tb.est->txn_tracer(), nullptr);
  EXPECT_EQ(tb.clk.period(), sim::SimTime::ns(10));
}

TEST(PaperTestbench, RejectsNoSlavesAndReportWithoutEstimator) {
  EXPECT_THROW(PaperTestbench({.slaves = 0}), sim::SimError);
  PaperTestbench tb({.power = std::nullopt});
  EXPECT_THROW((void)tb.report(), sim::SimError);
}

TEST(PaperTestbench, SameConfigGivesBitIdenticalReports) {
  auto run_once = [] {
    PaperTestbench tb(full_config(nullptr));
    tb.run_cycles(2000);
    return tb.report();
  };
  const PowerReport a = run_once();
  const PowerReport b = run_once();
  EXPECT_TRUE(same_bits(a.total_energy, b.total_energy));
  for (const auto& [x, y] : {std::pair{a.blocks.arb, b.blocks.arb},
                             std::pair{a.blocks.dec, b.blocks.dec},
                             std::pair{a.blocks.m2s, b.blocks.m2s},
                             std::pair{a.blocks.s2m, b.blocks.s2m},
                             std::pair{a.bus_energy_j, b.bus_energy_j}}) {
    EXPECT_TRUE(same_bits(x, y));
  }
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_EQ(a.attribution.size(), b.attribution.size());
  for (std::size_t m = 0; m < a.attribution.size(); ++m) {
    EXPECT_TRUE(same_bits(a.attribution[m].energy_j, b.attribution[m].energy_j));
    EXPECT_EQ(a.attribution[m].txns, b.attribution[m].txns);
  }
}

}  // namespace
}  // namespace ahbp::campaign
