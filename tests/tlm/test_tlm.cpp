// Tests for the transaction-level model: functional behaviour, cycle
// accounting, and power-FSM agreement with the cycle-accurate model.

#include "tlm/tlm.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::tlm {
namespace {

TEST(TlmMemory, ReadWritePeekPoke) {
  TlmMemory mem;
  std::uint32_t v = 1;
  EXPECT_EQ(mem.read(0x10, v), 0u);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.write(0x10, 0xABCD), 0u);
  mem.read(0x10, v);
  EXPECT_EQ(v, 0xABCDu);
  mem.poke(0x20, 7);
  EXPECT_EQ(mem.peek(0x20), 7u);
}

TEST(TlmMemory, UnwrittenWordsReadZero) {
  TlmMemory mem;
  mem.poke(0x40, 0x1234);
  std::uint32_t v = 1;
  mem.read(0x3C, v);  // below the highest written word
  EXPECT_EQ(v, 0u);
  v = 1;
  mem.read(0x44, v);  // past it
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.peek(0x0), 0u);
  EXPECT_EQ(mem.peek(0x1000), 0u);
  EXPECT_EQ(mem.peek(0x40), 0x1234u);
}

TEST(TlmMemory, LastWordOfMappedRange) {
  TlmBus bus({});
  TlmMemory a, b;
  bus.map(a, 0x0000, 0x1000);
  bus.map(b, 0x1000, 0x1000);
  a.poke(0xFFC, 0xA5A5A5A5);
  EXPECT_EQ(a.peek(0xFFC), 0xA5A5A5A5u);
  std::uint32_t v = 0;
  ASSERT_TRUE(bus.read(0, 0x0FFC, v));
  EXPECT_EQ(v, 0xA5A5A5A5u);
  ASSERT_TRUE(bus.write(1, 0x1FFC, 0x5A5A5A5A));
  EXPECT_EQ(b.peek(0xFFC), 0x5A5A5A5Au);  // slave-relative offset
  EXPECT_EQ(b.peek(0x0), 0u);
}

TEST(TlmMemory, WriteReadRoundTripsThroughBus) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0x2000, 0x1000);
  std::mt19937_64 rng(7);
  std::vector<std::uint32_t> expected(0x1000 / 4, 0);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t word = static_cast<std::uint32_t>(rng() % expected.size());
    const auto value = static_cast<std::uint32_t>(rng());
    ASSERT_TRUE(bus.write(0, 0x2000 + 4 * word, value));
    expected[word] = value;
  }
  for (std::uint32_t word = 0; word < expected.size(); ++word) {
    std::uint32_t v = 1;
    ASSERT_TRUE(bus.read(0, 0x2000 + 4 * word, v));
    EXPECT_EQ(v, expected[word]) << "word " << word;
  }
  EXPECT_EQ(bus.errors(), 0u);
}

TEST(TlmMemory, WaitStatesReported) {
  TlmMemory mem(3);
  std::uint32_t v;
  EXPECT_EQ(mem.read(0, v), 3u);
  EXPECT_EQ(mem.write(0, 1), 3u);
}

TEST(TlmBus, MapRejectsOverlap) {
  TlmBus bus({});
  TlmMemory a, b;
  bus.map(a, 0x0000, 0x1000);
  EXPECT_THROW(bus.map(b, 0x0800, 0x1000), sim::SimError);
  EXPECT_THROW(bus.map(b, 0x2000, 0), sim::SimError);
  EXPECT_NO_THROW(bus.map(b, 0x1000, 0x1000));
}

TEST(TlmBus, TransfersRouteAndCount) {
  TlmBus bus({});
  TlmMemory a, b;
  bus.map(a, 0x0000, 0x1000);
  bus.map(b, 0x1000, 0x1000);
  bus.write(0, 0x0010, 0xAA);
  bus.write(1, 0x1010, 0xBB);
  std::uint32_t v = 0;
  bus.read(0, 0x0010, v);
  EXPECT_EQ(v, 0xAAu);
  bus.read(1, 0x1010, v);
  EXPECT_EQ(v, 0xBBu);
  EXPECT_EQ(a.peek(0x10), 0xAAu);
  EXPECT_EQ(b.peek(0x10), 0xBBu);
  EXPECT_EQ(bus.transfers(), 4u);
  EXPECT_EQ(bus.cycles(), 4u);
}

TEST(TlmBus, UnmappedAccessErrors) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x100);
  std::uint32_t v;
  EXPECT_FALSE(bus.read(0, 0x9999, v));
  EXPECT_FALSE(bus.write(0, 0x9999, 1));
  EXPECT_EQ(bus.errors(), 2u);
}

TEST(TlmBus, WaitStatesConsumeCycles) {
  TlmBus bus({});
  TlmMemory slow(2);
  bus.map(slow, 0, 0x100);
  bus.write(0, 0, 1);
  EXPECT_EQ(bus.cycles(), 3u);  // 2 waits + 1 completion
}

TEST(TlmBus, IdleCyclesFeedThePowerFsm) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x100);
  bus.idle(10);
  EXPECT_EQ(bus.cycles(), 10u);
  EXPECT_EQ(bus.fsm().cycles(), 10u);
  // Idle cycles still clock the arbiter model: tiny but non-zero energy.
  EXPECT_GT(bus.total_energy(), 0.0);
  EXPECT_LT(bus.total_energy(), 1e-12);
}

TEST(TlmBus, EnergyGrowsWithPayloadActivity) {
  auto run = [](std::uint32_t pattern) {
    TlmBus bus({});
    TlmMemory a;
    bus.map(a, 0, 0x1000);
    for (int i = 0; i < 100; ++i) {
      bus.write(0, 0x10, i % 2 == 0 ? pattern : 0u);
    }
    return bus.total_energy();
  };
  EXPECT_GT(run(0xFFFFFFFF), run(0x00000001));
}

TEST(TlmRunner, ReadsBackWhatItWrote) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x1000);
  TlmTrafficRunner runner(bus, 1, {.addr_base = 0, .addr_range = 0x1000, .seed = 3});
  runner.run_until(5000);
  EXPECT_GT(runner.writes(), 100u);
  EXPECT_EQ(runner.writes(), runner.reads());
  EXPECT_EQ(runner.mismatches(), 0u);
}

TEST(TlmVsCycleAccurate, EnergyPerCycleAgrees) {
  // The same workload shape on both abstraction levels must land within
  // a modest factor in energy per cycle (the TLM folds away intra-
  // transfer signal detail, so exact agreement is not expected).
  // --- TLM ---
  TlmBus tlm_bus(TlmBus::Config{.n_masters = 3});
  TlmMemory m1, m2;
  tlm_bus.map(m1, 0x0000, 0x1000);
  tlm_bus.map(m2, 0x1000, 0x1000);
  TlmTrafficRunner r1(tlm_bus, 1,
                      {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 101});
  TlmTrafficRunner r2(tlm_bus, 2,
                      {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
  r1.run_until(2500);
  r2.run_until(5000);
  const double tlm_epc =
      tlm_bus.total_energy() / static_cast<double>(tlm_bus.cycles());

  // --- cycle-accurate ---
  double ca_epc = 0.0;
  {
    sim::Kernel k;
    sim::Module top(nullptr, "top");
    sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
    ahb::AhbBus bus(&top, "ahb", clk);
    ahb::DefaultMaster dm(&top, "dm", bus);
    ahb::TrafficMaster tm1(&top, "m1", bus,
                           {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 101});
    ahb::TrafficMaster tm2(&top, "m2", bus,
                           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
    ahb::MemorySlave s1(&top, "s1", bus, {.base = 0x0000, .size = 0x1000});
    ahb::MemorySlave s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000});
    bus.finalize();
    power::AhbPowerEstimator est(&top, "power", bus);
    k.run(sim::SimTime::us(50));
    ca_epc = est.total_energy() / static_cast<double>(est.fsm().cycles());
  }

  const double ratio = tlm_epc / ca_epc;
  EXPECT_GT(ratio, 0.4) << "tlm " << tlm_epc << " vs ca " << ca_epc;
  EXPECT_LT(ratio, 2.5) << "tlm " << tlm_epc << " vs ca " << ca_epc;
}

}  // namespace
}  // namespace ahbp::tlm
