// Integration tests of the full AHB fabric: scripted transfers through
// memory slaves, wait states, pipelining, default-slave errors, and
// multi-master arbitration -- all under the protocol monitor.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ahb/ahb.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using test::Bench;
using Op = ScriptedMaster::Op;

Op write_op(std::uint32_t addr, std::uint32_t data) {
  return Op{Op::Kind::kWrite, addr, data, 0};
}
Op read_op(std::uint32_t addr) { return Op{Op::Kind::kRead, addr, 0, 0}; }
Op idle_op(unsigned cycles) { return Op{Op::Kind::kIdle, 0, 0, cycles}; }

TEST(Bus, SingleWriteRead) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x100, 0xCAFEBABE), read_op(0x100)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(30);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_TRUE(m.results()[0].write);
  EXPECT_EQ(m.results()[0].resp, Resp::kOkay);
  EXPECT_FALSE(m.results()[1].write);
  EXPECT_EQ(m.results()[1].data, 0xCAFEBABEu);
  EXPECT_EQ(mem.peek(0x100), 0xCAFEBABEu);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bus, BackToBackTransfersArePipelined) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  std::vector<Op> script;
  for (int i = 0; i < 8; ++i) {
    script.push_back(write_op(0x10u * i, 0x1000u + i));
  }
  ScriptedMaster m(&b.top, "m", b.bus, script);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mem.peek(0x10u * i), 0x1000u + i);
  }
  // Zero-wait pipelining: 8 transfers complete in 8 data phases; with
  // grant latency and drain, well under 16 bus cycles of transfers.
  EXPECT_EQ(mon.stats().transfers, 8u);
  EXPECT_EQ(mon.stats().wait_cycles, 0u);
  EXPECT_TRUE(mon.violations().empty());
}

class WaitStateSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(WaitStateSweep, WaitStatesStallButPreserveData) {
  const unsigned ws = GetParam();
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x40, 0xA5A5A5A5), read_op(0x40),
                    write_op(0x44, 0x5A5A5A5A), read_op(0x44)});
  MemorySlave mem(&b.top, "mem", b.bus,
                  {.base = 0, .size = 0x1000, .wait_states = ws});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(80);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 4u);
  EXPECT_EQ(m.results()[1].data, 0xA5A5A5A5u);
  EXPECT_EQ(m.results()[3].data, 0x5A5A5A5Au);
  EXPECT_EQ(mon.stats().transfers, 4u);
  EXPECT_EQ(mon.stats().wait_cycles, 4u * ws);
  EXPECT_TRUE(mon.violations().empty());
}

INSTANTIATE_TEST_SUITE_P(Waits, WaitStateSweep, ::testing::Values(0u, 1u, 2u, 5u));

TEST(Bus, ReadUnwrittenMemoryReturnsZero) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {read_op(0x200)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  b.run_cycles(20);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[0].data, 0u);
}

TEST(Bus, UnmappedAddressGetsErrorResponse) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0xDEAD0000, 1), idle_op(4)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(30);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 1u);
  EXPECT_EQ(m.results()[0].resp, Resp::kError);
  EXPECT_GE(mon.stats().error_responses, 1u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bus, TwoSlavesSeparateAddressSpaces) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x0100, 11), write_op(0x1100, 22), read_op(0x0100),
                    read_op(0x1100)});
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave s1(&b.top, "s1", b.bus, {.base = 0x1000, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[2].data, 11u);
  EXPECT_EQ(m.results()[3].data, 22u);
  EXPECT_EQ(s0.peek(0x100), 11u);
  EXPECT_EQ(s1.peek(0x100), 22u);  // slave-relative offset
  EXPECT_EQ(s0.stats().writes, 1u);
  EXPECT_EQ(s1.stats().writes, 1u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bus, MixedWaitStateSlavesPipelineCorrectly) {
  // A fast slave behind a slow one: wait states of one data phase must
  // stall the next address phase without corrupting it.
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x0000, 0x111), write_op(0x1000, 0x222),
                    read_op(0x0000), read_op(0x1000)});
  MemorySlave slow(&b.top, "slow", b.bus,
                   {.base = 0x0000, .size = 0x1000, .wait_states = 3});
  MemorySlave fast(&b.top, "fast", b.bus, {.base = 0x1000, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[2].data, 0x111u);
  EXPECT_EQ(m.results()[3].data, 0x222u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bus, TwoMastersInterleaveThroughArbitration) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m1(&b.top, "m1", b.bus,
                    {write_op(0x100, 0xAAA), idle_op(3), read_op(0x100)});
  ScriptedMaster m2(&b.top, "m2", b.bus,
                    {write_op(0x200, 0xBBB), idle_op(3), read_op(0x200)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);

  b.run_cycles(100);
  ASSERT_TRUE(m1.finished());
  ASSERT_TRUE(m2.finished());
  EXPECT_EQ(m1.results().back().data, 0xAAAu);
  EXPECT_EQ(m2.results().back().data, 0xBBBu);
  EXPECT_GE(mon.stats().handovers, 2u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Bus, GrantReturnsToDefaultMasterBetweenTenures) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x100, 1), idle_op(6)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  EXPECT_TRUE(b.bus.hgrant(0).read());
  EXPECT_EQ(b.bus.bus().hmaster.read(), 0);
}

TEST(Bus, SlaveStatsCountOperations) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x10, 1), write_op(0x14, 2), read_op(0x10)});
  MemorySlave mem(&b.top, "mem", b.bus,
                  {.base = 0, .size = 0x1000, .wait_states = 1});
  b.bus.finalize();
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(mem.stats().writes, 2u);
  EXPECT_EQ(mem.stats().reads, 1u);
  EXPECT_EQ(mem.stats().wait_cycles, 3u);
}

TEST(Bus, PokeAndPeekBackdoor) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {read_op(0x20)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  mem.poke(0x20, 0x12345678);
  b.bus.finalize();
  b.run_cycles(20);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.results()[0].data, 0x12345678u);
}

TEST(MemorySlave, UnwrittenWordsReadZero) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x40, 0x1234), read_op(0x3C), read_op(0x44),
                    read_op(0x0)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  b.run_cycles(30);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(m.results()[i].data, 0u) << i;
  }
  EXPECT_EQ(mem.peek(0x40), 0x1234u);
  EXPECT_EQ(mem.peek(0xFFC), 0u);
}

TEST(MemorySlave, LastWordOfMappedRange) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x0FFC, 0xA5A5A5A5), write_op(0x1FFC, 0x5A5A5A5A),
                    read_op(0x0FFC), read_op(0x1FFC)});
  MemorySlave a(&b.top, "a", b.bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave c(&b.top, "c", b.bus, {.base = 0x1000, .size = 0x1000, .wait_states = 1});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);
  b.run_cycles(40);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 4u);
  EXPECT_EQ(m.results()[2].data, 0xA5A5A5A5u);
  EXPECT_EQ(m.results()[3].data, 0x5A5A5A5Au);
  EXPECT_EQ(a.peek(0xFFC), 0xA5A5A5A5u);
  EXPECT_EQ(c.peek(0xFFC), 0x5A5A5A5Au);  // slave-relative offset
  EXPECT_EQ(c.peek(0x0), 0u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(MemorySlave, PeekPokeOutsideMappedRangeThrow) {
  Bench b;
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0x1000, .size = 0x100});
  mem.poke(0xFC, 7);
  EXPECT_EQ(mem.peek(0xFC), 7u);
  EXPECT_THROW(mem.poke(0x100, 1), std::out_of_range);
  EXPECT_THROW((void)mem.peek(0x100), std::out_of_range);
  EXPECT_THROW((void)mem.peek(0x1000), std::out_of_range);  // absolute address
}

TEST(Bus, RunWithoutFinalizeHasNoBusActivity) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  EXPECT_FALSE(b.bus.finalized());
  // Masters wait forever for a grant that never comes; nothing crashes.
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x0, 1)});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x100});
  b.bus.finalize();
  EXPECT_TRUE(b.bus.finalized());
}

}  // namespace
}  // namespace ahbp::ahb
