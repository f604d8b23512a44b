// Tests for the batched PowerFsm::step_repeated fast path and for the
// estimator's physics (energy vs frequency, VCD power channels).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::CycleView;

PowerFsm::Config cfg3x4() { return PowerFsm::Config{.n_masters = 3, .n_slaves = 4}; }

CycleView busy_view() {
  CycleView v;
  v.data_active = true;
  v.data_write = true;
  v.haddr = 0x5A5A;
  v.hwdata = 0xF0F0F0F0;
  v.grant_vector = 1;
  return v;
}

TEST(StepRepeated, MatchesLoopOfSteps) {
  PowerFsm looped(cfg3x4()), batched(cfg3x4());
  CycleView w = busy_view();  // a different preceding cycle
  w.haddr = 0x0F0F;
  w.data_write = false;
  const CycleView v = busy_view();
  looped.step(w);
  batched.step(w);
  for (int i = 0; i < 100; ++i) looped.step(v);
  batched.step_repeated(v, 100);

  EXPECT_EQ(batched.cycles(), looped.cycles());
  EXPECT_NEAR(batched.total_energy(), looped.total_energy(),
              looped.total_energy() * 1e-12);
  EXPECT_NEAR(batched.block_totals().m2s, looped.block_totals().m2s,
              looped.block_totals().m2s * 1e-12);
  EXPECT_NEAR(batched.block_totals().arb, looped.block_totals().arb,
              looped.block_totals().arb * 1e-12);
  // Instruction tables agree.
  const auto lt = looped.instructions();
  const auto bt = batched.instructions();
  ASSERT_EQ(lt.size(), bt.size());
  for (const auto& [name, st] : lt) {
    ASSERT_TRUE(bt.count(name)) << name;
    EXPECT_EQ(bt.at(name).count, st.count) << name;
    EXPECT_NEAR(bt.at(name).energy, st.energy, st.energy * 1e-12) << name;
  }
  // Per-master attribution agrees too.
  EXPECT_NEAR(batched.per_master_energy()[0], looped.per_master_energy()[0],
              looped.per_master_energy()[0] * 1e-12);
  // So do the activity statistics: the repetitions are zero-HD samples.
  const Activity& la = looped.activity();
  const Activity& ba = batched.activity();
  EXPECT_EQ(ba.sample_count(), 101u);
  EXPECT_EQ(ba.sample_count(), la.sample_count());
  ASSERT_EQ(ba.size(), la.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    SCOPED_TRACE(la.name(i));
    EXPECT_EQ(ba.nonzero_count(i), la.nonzero_count(i));
    EXPECT_EQ(ba.bit_change_count(i), la.bit_change_count(i));
    EXPECT_EQ(ba.mean_hd(i), la.mean_hd(i));
  }
  EXPECT_EQ(format_activity_report(ba), format_activity_report(la));
}

TEST(StepRepeated, SmallCountsAndZero) {
  PowerFsm a(cfg3x4()), b(cfg3x4());
  const CycleView v = busy_view();
  a.step_repeated(v, 0);
  EXPECT_EQ(a.cycles(), 0u);
  a.step_repeated(v, 1);
  b.step(v);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_DOUBLE_EQ(a.total_energy(), b.total_energy());
  a.step_repeated(v, 2);
  b.step(v);
  b.step(v);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_NEAR(a.total_energy(), b.total_energy(), b.total_energy() * 1e-12);
  EXPECT_EQ(a.activity().sample_count(), b.activity().sample_count());
}

TEST(Physics, EnergyIndependentOfFrequencyPowerScalesWithIt) {
  // The same number of bus cycles at half the clock: identical switching
  // energy, half the average power.
  auto run = [](std::int64_t period_ns) {
    sim::Kernel k;
    sim::Module top(nullptr, "top");
    sim::Clock clk(&top, "clk", sim::SimTime::ns(period_ns), 0.5,
                   sim::SimTime::ns(period_ns));
    ahb::AhbBus bus(&top, "ahb", clk);
    ahb::DefaultMaster dm(&top, "dm", bus);
    ahb::TrafficMaster m(&top, "m", bus,
                         {.addr_base = 0, .addr_range = 0x1000, .seed = 91});
    ahb::MemorySlave s(&top, "s", bus, {.base = 0, .size = 0x1000});
    bus.finalize();
    AhbPowerEstimator est(&top, "power", bus);
    k.run(sim::SimTime::ns(period_ns) * 2000);  // 2000 cycles either way
    return std::pair{est.total_energy(),
                     est.total_energy() / k.now().to_seconds()};
  };
  const auto [e100, p100] = run(10);  // 100 MHz
  const auto [e50, p50] = run(20);    // 50 MHz
  EXPECT_NEAR(e50, e100, e100 * 0.01);      // same activity, same energy
  EXPECT_NEAR(p50, p100 / 2, p100 * 0.02);  // half the power
}

TEST(VcdIntegration, PowerChannelDumpsWindowedPower) {
  const std::string path = ::testing::TempDir() + "power_trace_test.vcd";
  {
    sim::Kernel k;
    sim::Module top(nullptr, "top");
    sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
    ahb::AhbBus bus(&top, "ahb", clk);
    ahb::DefaultMaster dm(&top, "dm", bus);
    ahb::TrafficMaster m(&top, "m", bus,
                         {.addr_base = 0, .addr_range = 0x1000, .seed = 92});
    ahb::MemorySlave s(&top, "s", bus, {.base = 0, .size = 0x1000});
    bus.finalize();
    AhbPowerEstimator est(&top, "power", bus);
    sim::VcdWriter vcd(path, k);
    // Dump the accumulated energy (in fJ) as a 32-bit channel: the VCD
    // shows the staircase climbing with bus activity.
    vcd.add_channel("bus_energy_fJ", 32, [&est] {
      return static_cast<std::uint64_t>(est.total_energy() * 1e15) & 0xFFFFFFFFull;
    });
    k.run(sim::SimTime::us(2));
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("bus_energy_fJ"), std::string::npos);
  // The channel changed at least a few dozen times over 200 cycles.
  std::size_t changes = 0, pos = 0;
  while ((pos = text.find("\nb", pos)) != std::string::npos) {
    ++changes;
    ++pos;
  }
  EXPECT_GT(changes, 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ahbp::power
