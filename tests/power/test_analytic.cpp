// Tests for the analytic (simulation-free) power predictor: exactness
// against measured statistics, plausibility of a-priori assumptions.

#include "power/analytic.hpp"

#include <gtest/gtest.h>

#include "campaign/testbench.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

PowerFsm::Config cfg3x4() { return PowerFsm::Config{.n_masters = 3, .n_slaves = 4}; }

TEST(Analytic, ZeroActivityCostsOnlyArbiterIdle) {
  AnalyticPowerModel m(cfg3x4());
  const WorkloadStats quiet{};
  const BlockEnergy e = m.blocks_per_cycle(quiet);
  EXPECT_DOUBLE_EQ(e.dec, 0.0);
  EXPECT_DOUBLE_EQ(e.m2s, 0.0);
  EXPECT_DOUBLE_EQ(e.s2m, 0.0);
  EXPECT_GT(e.arb, 0.0);  // state-register clocking
}

TEST(Analytic, LinearInEveryFeature) {
  AnalyticPowerModel m(cfg3x4());
  WorkloadStats s{};
  s.hd_wdata = 4.0;
  const double e1 = m.energy_per_cycle(s);
  s.hd_wdata = 8.0;
  const double e2 = m.energy_per_cycle(s);
  WorkloadStats zero{};
  const double e0 = m.energy_per_cycle(zero);
  EXPECT_NEAR(e2 - e0, 2.0 * (e1 - e0), 1e-20);
}

TEST(Analytic, ReproducesSimulatedEnergyFromMeasuredStats) {
  // Run the paper testbench; feed the measured per-cycle statistics back
  // through the closed form: it must land on the simulated total
  // (the models are linear; only empirical indicator terms intervene).
  campaign::PaperTestbench tb(
      {.master_seeds = {51, 52}, .slaves = 2, .monitor = ahb::BusMonitor::Config{}});
  tb.run(sim::SimTime::us(50));
  const AhbPowerEstimator& est = *tb.est;
  const ahb::BusMonitor& mon = *tb.monitor;

  const std::uint64_t cycles = est.fsm().cycles();
  const double p_handover = static_cast<double>(mon.stats().handovers) /
                            static_cast<double>(cycles);
  const WorkloadStats stats =
      AnalyticPowerModel::from_activity(est.fsm().activity(), cycles, p_handover);

  AnalyticPowerModel model(est.fsm().config());
  const double predicted = model.energy_per_cycle(stats) * static_cast<double>(cycles);
  const double measured = est.total_energy();
  EXPECT_NEAR(predicted, measured, 0.02 * measured)
      << "analytic reconstruction should be near-exact";

  // Per-block reconstruction too.
  const BlockEnergy pb = model.blocks_per_cycle(stats);
  EXPECT_NEAR(pb.m2s * cycles, est.block_totals().m2s,
              0.02 * est.block_totals().m2s);
  EXPECT_NEAR(pb.dec * cycles, est.block_totals().dec,
              0.05 * est.block_totals().dec);
}

TEST(Analytic, APrioriAssumptionLandsInTheRightBand) {
  // Predict the paper-testbench power *before* simulating: assume ~75%
  // of cycles carry transfers, half writes, 4 KiB windows.
  AnalyticPowerModel model(cfg3x4());
  const WorkloadStats assumed =
      AnalyticPowerModel::assume_random_traffic(0.75, 0.5, 0x1000);
  const double predicted_power = model.power(assumed, 100e6);

  // Measure the real thing.
  double measured_power = 0.0;
  {
    campaign::PaperTestbench tb({.master_seeds = {61, 62}, .slaves = 2});
    tb.run(sim::SimTime::us(50));
    measured_power = tb.est->total_energy() / tb.kernel.now().to_seconds();
  }

  // "Early, cheap indication": same order of magnitude.
  EXPECT_GT(predicted_power, measured_power / 3);
  EXPECT_LT(predicted_power, measured_power * 3);
}

TEST(Analytic, NonzeroCountTracksIndicator) {
  Activity a({"data_slave"});
  unsigned hd = 0;
  for (const std::uint64_t v : {0, 0, 1, 1, 3}) a.store_all(&v, &hd);  // HD 0,0,1,0,1
  EXPECT_EQ(a.nonzero_count(0), 2u);
  // from_activity reads the indicator as 2 toggling one-hot select lines.
  const WorkloadStats s = AnalyticPowerModel::from_activity(a, 4, 0.0);
  EXPECT_DOUBLE_EQ(s.hd_dslave, 2.0 * 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(s.hd_addr, 0.0);  // absent channels read as zero
}

}  // namespace
}  // namespace ahbp::power
