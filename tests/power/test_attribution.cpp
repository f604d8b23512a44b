// Tests for per-master energy attribution and for calibrated macromodel
// coefficients plumbed from charlib into the power FSM.

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "campaign/testbench.hpp"
#include "charlib/charlib.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::AhbBus;
using ahb::CycleView;
using ahb::DefaultMaster;
using ahb::MemorySlave;
using ahb::TrafficMaster;

TEST(Attribution, EnergySplitsAcrossMasters) {
  campaign::PaperTestbench tb({.master_seeds = {71, 72}, .slaves = 2});
  tb.run(sim::SimTime::us(30));
  const AhbPowerEstimator& est = *tb.est;

  const auto& per = est.fsm().per_master_energy();
  ASSERT_EQ(per.size(), 3u);
  double sum = 0.0;
  for (double e : per) sum += e;
  EXPECT_NEAR(sum, est.total_energy(), est.total_energy() * 1e-9);
  // Both traffic masters burn real energy; the parked default master's
  // share is the residual idle cost.
  EXPECT_GT(per[1], 0.0);
  EXPECT_GT(per[2], 0.0);
  EXPECT_GT(per[1], per[0]);
  EXPECT_GT(per[2], per[0]);
}

TEST(Attribution, AsymmetricWorkloadsShowAsymmetricShares) {
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  DefaultMaster dm(&top, "dm", bus);
  // m1 works hard, m2 mostly idles.
  TrafficMaster m1(&top, "m1", bus,
                   {.addr_base = 0x0000, .addr_range = 0x1000,
                    .min_idle_cycles = 1, .max_idle_cycles = 2,
                    .min_pairs = 10, .max_pairs = 24, .seed = 81});
  TrafficMaster m2(&top, "m2", bus,
                   {.addr_base = 0x1000, .addr_range = 0x1000,
                    .min_idle_cycles = 60, .max_idle_cycles = 120,
                    .min_pairs = 1, .max_pairs = 2, .seed = 82});
  MemorySlave s1(&top, "s1", bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000});
  bus.finalize();
  AhbPowerEstimator est(&top, "power", bus);
  k.run(sim::SimTime::us(50));

  const auto& per = est.fsm().per_master_energy();
  EXPECT_GT(per[1], 3 * per[2]);
}

TEST(Attribution, SplitReworkConservesEnergy) {
  // SPLIT rework traffic -- two-cycle responses, masked-master handover
  // cycles, resume re-grants, re-issued transfers -- must attribute
  // conservation-exact: per-master energies sum to the PowerFsm total
  // within 1e-9 relative error.
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  DefaultMaster dm(&top, "dm", bus);
  std::vector<ahb::ScriptedMaster::Op> script;
  for (int i = 0; i < 24; ++i) {
    script.push_back({i % 2 ? ahb::ScriptedMaster::Op::Kind::kRead
                            : ahb::ScriptedMaster::Op::Kind::kWrite,
                      0x100u + 4u * static_cast<std::uint32_t>(i / 2),
                      0xC0DE0000u + static_cast<std::uint32_t>(i), 0});
  }
  ahb::ScriptedMaster m1(&top, "m1", bus, script,
                         ahb::ScriptedMaster::Options{.retry = true,
                                                      .max_retries = 8});
  TrafficMaster m2(&top, "m2", bus,
                   {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 72});
  // Every 3rd transfer to s1 SPLITs; s2 stays clean.
  MemorySlave s1(&top, "s1", bus,
                 {.base = 0x0000,
                  .size = 0x1000,
                  .fault_hook = [](const ahb::FaultQuery& q) {
                    ahb::FaultDecision d;
                    if (q.transfer_index % 3 == 1) {
                      d.resp = ahb::Resp::kSplit;
                      d.split_resume_cycles = 3;
                    }
                    return d;
                  }});
  MemorySlave s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000});
  bus.finalize();
  AhbPowerEstimator est(&top, "power", bus);
  k.run(sim::SimTime::us(30));

  ASSERT_TRUE(m1.finished());
  EXPECT_GT(m1.splits(), 0u);
  EXPECT_GT(s1.stats().splits, 0u);

  const auto& per = est.fsm().per_master_energy();
  ASSERT_EQ(per.size(), 3u);
  double sum = 0.0;
  for (double e : per) sum += e;
  EXPECT_NEAR(sum, est.total_energy(), est.total_energy() * 1e-9);
  EXPECT_GT(per[1], 0.0);  // the split-and-reworked master still pays
}

TEST(Attribution, ReportFormatsNamesAndShares) {
  PowerFsm fsm(PowerFsm::Config{.n_masters = 2, .n_slaves = 2});
  CycleView v;
  v.hmaster = 1;
  v.grant_vector = 2;
  v.data_active = true;
  v.data_write = true;
  v.haddr = 0xFFFF;
  v.hwdata = 0xAAAA;
  fsm.step(v);
  v.hwdata = 0x5555;
  fsm.step(v);
  const std::string s =
      format_master_attribution(fsm, {"default", "cpu"});
  EXPECT_NE(s.find("cpu"), std::string::npos);
  EXPECT_NE(s.find("default"), std::string::npos);
  EXPECT_NE(s.find("100.00 %"), std::string::npos);  // all energy on cpu
}

TEST(Attribution, ResetClearsPerMasterTotals) {
  PowerFsm fsm(PowerFsm::Config{.n_masters = 2, .n_slaves = 2});
  CycleView v;
  v.data_active = true;
  v.haddr = 0xF0F0;
  fsm.step(v);
  fsm.reset();
  for (double e : fsm.per_master_energy()) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(Calibration, FittedCoefficientsChangeTheEstimate) {
  // Fit the M2S-sized mux against gate level, plumb the coefficients in,
  // and verify the estimate moves (and stays positive and finite).
  const auto fit = charlib::characterize_mux(16, 3, 800, 33);
  PowerFsm::Config base{.n_masters = 3, .n_slaves = 4};
  PowerFsm::Config calibrated = base;
  calibrated.m2s_coefficients = fit.calibrated;

  PowerFsm fsm_a(base), fsm_b(calibrated);
  CycleView v;
  v.data_active = true;
  v.data_write = true;
  v.haddr = 0x1234;
  v.hwdata = 0xDEADBEEF;
  CycleView v2 = v;
  v2.haddr = 0x4321;
  v2.hwdata = 0x0BADF00D;
  for (int i = 0; i < 10; ++i) {
    fsm_a.step(i % 2 ? v : v2);
    fsm_b.step(i % 2 ? v : v2);
  }
  EXPECT_GT(fsm_b.total_energy(), 0.0);
  EXPECT_NE(fsm_a.total_energy(), fsm_b.total_energy());
  // The calibrated coefficients came out positive (sanity of the fit).
  EXPECT_GT(fit.calibrated.k_in, 0.0);
}

}  // namespace
}  // namespace ahbp::power
