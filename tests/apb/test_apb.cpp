// Tests for the APB side: bridge protocol (SETUP/ENABLE, wait states on
// the AHB side), register file and timer peripherals, decode errors, and
// the APB power monitor.

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "apb/apb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::apb {
namespace {

using ahb::ScriptedMaster;
using sim::SimError;
using Op = ScriptedMaster::Op;

Op write_op(std::uint32_t addr, std::uint32_t data) {
  return Op{Op::Kind::kWrite, addr, data, 0};
}
Op read_op(std::uint32_t addr) { return Op{Op::Kind::kRead, addr, 0, 0}; }
Op idle_op(unsigned n) { return Op{Op::Kind::kIdle, 0, 0, n}; }

/// AHB system with an APB subsystem behind a bridge at 0x8000.
struct ApbBench {
  ApbBench()
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk),
        dm(&top, "dm", bus),
        ram(&top, "ram", bus, {.base = 0x0000, .size = 0x1000}),
        bridge(&top, "bridge", bus, {.base = 0x8000, .size = 0x1000}),
        regs(&top, "regs", bridge, 0x000, 0x100),
        timer(&top, "timer", bridge, 0x100) {}

  void finalize() {
    bus.finalize();
    bridge.finalize();
  }
  void run_cycles(unsigned n) {
    kernel.run(sim::SimTime::ns(10) * static_cast<std::int64_t>(n));
  }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  ahb::MemorySlave ram;
  AhbToApbBridge bridge;
  ApbRegisterFile regs;
  ApbTimer timer;
};

TEST(Bridge, RejectsBadConfigs) {
  ApbBench b;
  EXPECT_THROW(ApbRegisterFile(&b.top, "r1", b.bridge, 0x800, 0),
               SimError);
  EXPECT_THROW(ApbRegisterFile(&b.top, "r2", b.bridge, 0x080, 0x100),
               SimError);  // overlaps regs at 0x000..0x100
  EXPECT_THROW(ApbRegisterFile(&b.top, "r3", b.bridge, 0xF00, 0x200),
               SimError);  // exceeds APB window
}

TEST(Bridge, WriteAndReadBackThroughBridge) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8010, 0xFACE0FF5), read_op(0x8010)});
  b.finalize();
  ahb::BusMonitor mon(&b.top, "mon", b.bus);
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, ahb::Resp::kOkay);
  EXPECT_EQ(m.results()[1].data, 0xFACE0FF5u);
  EXPECT_EQ(b.regs.peek(0x10), 0xFACE0FF5u);
  EXPECT_EQ(b.bridge.stats().apb_writes, 1u);
  EXPECT_EQ(b.bridge.stats().apb_reads, 1u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bridge, AccessesInsertWaitStates) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x8000, 1)});
  b.finalize();
  ahb::BusMonitor mon(&b.top, "mon", b.bus);
  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  // The conversion costs several wait cycles (sample + setup + enable).
  EXPECT_GE(mon.stats().wait_cycles, 3u);
}

TEST(Bridge, FastMemoryUnaffectedByBridgeTraffic) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x0100, 0xAA), write_op(0x8000, 0xBB),
                    read_op(0x0100)});
  b.finalize();
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[2].data, 0xAAu);
}

TEST(Bridge, UnmappedApbAddressErrors) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x8800, 1), idle_op(4)});
  b.finalize();
  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[0].resp, ahb::Resp::kError);
  EXPECT_EQ(b.bridge.stats().decode_errors, 1u);
}

TEST(Bridge, BackToBackAccessesAllComplete) {
  ApbBench b;
  std::vector<Op> script;
  for (int i = 0; i < 6; ++i) script.push_back(write_op(0x8000 + 4 * i, 0x50 + i));
  for (int i = 0; i < 6; ++i) script.push_back(read_op(0x8000 + 4 * i));
  ScriptedMaster m(&b.top, "m", b.bus, script);
  b.finalize();
  ahb::BusMonitor mon(&b.top, "mon", b.bus);
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(m.results()[6 + i].data, 0x50u + i) << i;
  }
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Timer, CountsWhenEnabled) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8100 + ApbTimer::kCtrl, 1),  // enable
                    idle_op(50),
                    read_op(0x8100 + ApbTimer::kCount)});
  b.finalize();
  b.run_cycles(150);
  ASSERT_TRUE(m.finished());
  const std::uint32_t count = m.results()[1].data;
  EXPECT_GT(count, 40u);
  EXPECT_LT(count, 120u);
  EXPECT_TRUE(b.timer.enabled());
}

TEST(Timer, DisabledTimerHoldsCount) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8100 + ApbTimer::kCtrl, 1), idle_op(20),
                    write_op(0x8100 + ApbTimer::kCtrl, 0),  // disable
                    read_op(0x8100 + ApbTimer::kCount), idle_op(30),
                    read_op(0x8100 + ApbTimer::kCount)});
  b.finalize();
  b.run_cycles(250);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[2].data, m.results()[3].data);
}

TEST(Timer, ClearResetsCount) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8100 + ApbTimer::kCtrl, 1), idle_op(30),
                    write_op(0x8100 + ApbTimer::kCtrl, 3),  // enable + clear
                    read_op(0x8100 + ApbTimer::kCount)});
  b.finalize();
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_LT(m.results()[2].data, 20u);  // cleared recently
}

TEST(Timer, CompareMatchLatchesAndClears) {
  ApbBench b;
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8100 + ApbTimer::kCompare, 10),
                    write_op(0x8100 + ApbTimer::kCtrl, 3),  // enable, clear
                    idle_op(40),
                    read_op(0x8100 + ApbTimer::kStatus),
                    write_op(0x8100 + ApbTimer::kStatus, 1),  // clear flag
                    read_op(0x8100 + ApbTimer::kStatus)});
  b.finalize();
  b.run_cycles(300);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[2].data, 1u);  // matched
  EXPECT_EQ(m.results()[4].data, 0u);  // cleared
}

TEST(RegisterFile, PokePeekBackdoor) {
  ApbBench b;
  b.regs.poke(0x20, 0x1234);
  ScriptedMaster m(&b.top, "m", b.bus, {read_op(0x8020)});
  b.finalize();
  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[0].data, 0x1234u);
}

TEST(ApbPower, MonitorAccumulatesOnTraffic) {
  ApbBench b;
  std::vector<Op> script;
  for (int i = 0; i < 8; ++i) script.push_back(write_op(0x8000 + 4 * i, 0xFF00FF00u >> (i % 8)));
  ScriptedMaster m(&b.top, "m", b.bus, script);
  b.finalize();
  ApbPowerMonitor pwr(&b.top, "apb_pwr", b.bridge);
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_GT(pwr.total_energy(), 0.0);
  EXPECT_GT(pwr.cycles(), 100u);
  ASSERT_TRUE(pwr.activity().find("paddr").has_value());
  EXPECT_GT(pwr.activity().bit_change_count(*pwr.activity().find("pwdata")), 0u);
}

TEST(ApbPower, EnergyAndChannelCountsMatchGolden) {
  // Register-file and timer traffic through the bridge; the values were
  // recorded before the APB monitor moved onto the packed activity store.
  ApbBench b;
  std::vector<Op> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back(write_op(0x8000 + 4 * i, 0x9E3779B9u * (i + 1)));
    script.push_back(read_op(0x8000 + 4 * ((i + 3) % 6)));
    script.push_back(idle_op(i % 3));
  }
  script.push_back(write_op(0x8108, 0x00000005u));  // timer COMPARE
  script.push_back(write_op(0x8100, 0x00000001u));  // timer CTRL: enable
  script.push_back(idle_op(7));
  script.push_back(read_op(0x8104));  // timer COUNT
  script.push_back(read_op(0x8108));
  script.push_back(read_op(0x8000));
  ScriptedMaster m(&b.top, "m", b.bus, script);
  b.finalize();
  ApbPowerMonitor pwr(&b.top, "apb_pwr", b.bridge);
  b.run_cycles(300);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(pwr.total_energy(), 0x1.90f982aebc1b8p-34);
  ASSERT_EQ(pwr.cycles(), 299u);
  const power::Activity& a = pwr.activity();
  EXPECT_EQ(a.sample_count(), 299u);
  struct Counts {
    const char* channel;
    std::uint64_t bit_changes, nonzero;
  };
  for (const Counts& want : {Counts{"paddr", 28, 16}, Counts{"pwdata", 123, 8},
                             Counts{"prdata0", 62, 4}, Counts{"prdata1", 4, 2},
                             Counts{"strobes", 82, 51}}) {
    SCOPED_TRACE(want.channel);
    const auto ch = a.find(want.channel);
    ASSERT_TRUE(ch.has_value());
    EXPECT_EQ(a.bit_change_count(*ch), want.bit_changes);
    EXPECT_EQ(a.nonzero_count(*ch), want.nonzero);
  }
}

TEST(ApbPower, IdleApbBusCostsNothing) {
  ApbBench b;
  // Traffic only to AHB RAM; the APB side never moves.
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x0100, 1), read_op(0x0100)});
  b.finalize();
  ApbPowerMonitor pwr(&b.top, "apb_pwr", b.bridge);
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  EXPECT_DOUBLE_EQ(pwr.total_energy(), 0.0);
}

TEST(ApbPower, ModelScalesWithFanout) {
  const gate::Technology tech;
  ApbPowerModel small(1, tech), big(8, tech);
  EXPECT_GT(big.energy(10, 2), small.energy(10, 2));
  EXPECT_DOUBLE_EQ(small.energy(0, 0), 0.0);
  EXPECT_THROW(ApbPowerModel(0, tech), SimError);
}

TEST(ApbPower, HierarchicalTotalIncludesBothBuses) {
  // The methodology composes: AHB estimator + APB monitor give the
  // system-level energy picture across the bus hierarchy.
  ApbBench b;
  std::vector<Op> script;
  for (int i = 0; i < 4; ++i) {
    script.push_back(write_op(0x0100 + 4 * i, i));       // AHB RAM
    script.push_back(write_op(0x8000 + 4 * i, i * 3));   // APB regs
  }
  ScriptedMaster m(&b.top, "m", b.bus, script);
  b.finalize();
  power::AhbPowerEstimator ahb_pwr(&b.top, "ahb_pwr", b.bus);
  ApbPowerMonitor apb_pwr(&b.top, "apb_pwr", b.bridge);
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_GT(ahb_pwr.total_energy(), 0.0);
  EXPECT_GT(apb_pwr.total_energy(), 0.0);
  // The AHB side dominates (wider, busier).
  EXPECT_GT(ahb_pwr.total_energy(), apb_pwr.total_energy());
}

}  // namespace
}  // namespace ahbp::apb
