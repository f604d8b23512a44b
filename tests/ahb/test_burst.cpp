// Tests for burst transfers: address sequencing helpers, the burst
// master against memory slaves (all burst kinds, BUSY insertion, wait
// states), and the monitor's burst-sequence checking.

#include "ahb/burst.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "ahb/ahb.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;

TEST(BurstAddr, IncrTypesJustIncrement) {
  for (const Burst b : {Burst::kIncr, Burst::kIncr4, Burst::kIncr8, Burst::kIncr16,
                        Burst::kSingle}) {
    EXPECT_EQ(next_burst_addr(0x100, b, Size::kWord), 0x104u);
    EXPECT_EQ(next_burst_addr(0x100, b, Size::kByte), 0x101u);
    EXPECT_EQ(next_burst_addr(0x100, b, Size::kHalfword), 0x102u);
  }
}

TEST(BurstAddr, Wrap4WrapsAtBlockBoundary) {
  // WRAP4 word: 16-byte blocks.
  EXPECT_EQ(next_burst_addr(0x100, Burst::kWrap4, Size::kWord), 0x104u);
  EXPECT_EQ(next_burst_addr(0x108, Burst::kWrap4, Size::kWord), 0x10Cu);
  EXPECT_EQ(next_burst_addr(0x10C, Burst::kWrap4, Size::kWord), 0x100u);  // wrap
}

TEST(BurstAddr, Wrap8AndWrap16) {
  // WRAP8 word: 32-byte blocks; start mid-block.
  EXPECT_EQ(next_burst_addr(0x11C, Burst::kWrap8, Size::kWord), 0x100u);
  // WRAP16 word: 64-byte blocks.
  EXPECT_EQ(next_burst_addr(0x13C, Burst::kWrap16, Size::kWord), 0x100u);
  EXPECT_EQ(next_burst_addr(0x134, Burst::kWrap16, Size::kWord), 0x138u);
}

TEST(BurstAddr, WrapSequenceVisitsWholeBlockOnce) {
  std::uint32_t a = 0x208;  // start mid-block
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 4; ++i) {
    seen.insert(a);
    a = next_burst_addr(a, Burst::kWrap4, Size::kWord);
  }
  EXPECT_EQ(a, 0x208u);  // back at the start after 4 beats
  EXPECT_EQ(seen, (std::set<std::uint32_t>{0x200, 0x204, 0x208, 0x20C}));
}

TEST(BurstAddr, WrapBoundary) {
  EXPECT_EQ(wrap_boundary(0x10C, Burst::kWrap4, Size::kWord), 0x100u);
  EXPECT_EQ(wrap_boundary(0x13F, Burst::kWrap16, Size::kWord), 0x100u);
  EXPECT_EQ(wrap_boundary(0x123, Burst::kIncr, Size::kWord), 0x123u);
}

TEST(BurstMaster, RejectsBadConfigs) {
  Bench b;
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  EXPECT_THROW(
      BurstMaster(&b.top, "m1", b.bus, {.burst = Burst::kSingle}),
      SimError);
  EXPECT_THROW(BurstMaster(&b.top, "m2", b.bus,
                           {.burst = Burst::kIncr, .incr_beats = 1}),
               SimError);
  EXPECT_THROW(BurstMaster(&b.top, "m3", b.bus,
                           {.addr_range = 8, .burst = Burst::kIncr4}),
               SimError);
  EXPECT_THROW(BurstMaster(&b.top, "m4", b.bus,
                           {.addr_base = 0x104, .burst = Burst::kWrap4}),
               SimError);
  EXPECT_THROW(BurstMaster(&b.top, "m5", b.bus,
                           {.burst = Burst::kIncr4, .busy_percent = 101}),
               SimError);
}

struct BurstBench : Bench {
  BurstBench(Burst burst, unsigned busy_percent, unsigned wait_states)
      : dm(&top, "dm", bus),
        m(&top, "m", bus,
          BurstMaster::Config{.addr_base = 0x0000,
                              .addr_range = 0x1000,
                              .burst = burst,
                              .incr_beats = 6,
                              .busy_percent = busy_percent,
                              .seed = 77}),
        mem(&top, "mem", bus,
            {.base = 0, .size = 0x1000, .wait_states = wait_states}),
        mon_cfg{.fatal = false},
        mon(&top, "mon", bus, mon_cfg) {
    bus.finalize();
  }
  DefaultMaster dm;
  BurstMaster m;
  MemorySlave mem;
  BusMonitor::Config mon_cfg;
  BusMonitor mon;
};

// gtest names each case after a byte dump of its parameter, so the struct
// must have no padding: padding bytes are indeterminate and would make the
// test names change from run to run.
struct BurstCase {
  BurstCase(Burst b, unsigned busy, unsigned waits)
      : burst(b), busy_percent(busy), wait_states(waits) {}
  Burst burst;
  std::uint8_t zero[3] = {};
  unsigned busy_percent;
  unsigned wait_states;
};
static_assert(std::has_unique_object_representations_v<BurstCase>);

class BurstSweep : public ::testing::TestWithParam<BurstCase> {};

TEST_P(BurstSweep, CleanRunWithCorrectData) {
  const Burst burst = GetParam().burst;
  const unsigned busy = GetParam().busy_percent;
  BurstBench b(burst, busy, GetParam().wait_states);
  b.run_cycles(3000);
  EXPECT_TRUE(b.mon.violations().empty())
      << "first violation: " << b.mon.violations().front();
  EXPECT_GT(b.m.stats().bursts, 4u);
  EXPECT_GT(b.m.stats().write_beats, 10u);
  EXPECT_EQ(b.m.stats().read_mismatches, 0u)
      << "burst read-back corrupted (" << to_string(burst) << ")";
  EXPECT_EQ(b.m.stats().error_responses, 0u);
  if (busy > 0) {
    EXPECT_GT(b.m.stats().busy_beats, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BurstSweep,
    ::testing::Values(BurstCase{Burst::kIncr4, 0, 0},
                      BurstCase{Burst::kIncr8, 0, 0},
                      BurstCase{Burst::kIncr16, 0, 0},
                      BurstCase{Burst::kIncr, 0, 0},
                      BurstCase{Burst::kWrap4, 0, 0},
                      BurstCase{Burst::kWrap8, 0, 0},
                      BurstCase{Burst::kWrap16, 0, 0},
                      BurstCase{Burst::kIncr4, 25, 0},
                      BurstCase{Burst::kWrap8, 25, 0},
                      BurstCase{Burst::kIncr4, 0, 2},
                      BurstCase{Burst::kIncr8, 25, 1}));

TEST(BurstMaster, SeqBeatsAreBackToBack) {
  // Zero-wait INCR4: each burst's 4 beats complete in 4 consecutive
  // cycles (pipelined), so transfers/cycle during a tenure approaches 1.
  BurstBench b(Burst::kIncr4, 0, 0);
  b.run_cycles(2000);
  const auto& st = b.mon.stats();
  EXPECT_EQ(st.wait_cycles, 0u);
  // beats = transfers; bursts complete fully.
  EXPECT_EQ((b.m.stats().write_beats + b.m.stats().read_beats) % 4, 0u);
}

TEST(BurstMaster, BusyBeatsDoNotTransfer) {
  BurstBench with_busy(Burst::kIncr8, 40, 0);
  with_busy.run_cycles(3000);
  // BUSY beats consume cycles but no transfers: slave write count equals
  // write beats exactly.
  EXPECT_EQ(with_busy.mem.stats().writes, with_busy.m.stats().write_beats);
  EXPECT_GT(with_busy.m.stats().busy_beats, 10u);
}

TEST(BurstMaster, TwoBurstMastersShareBusCleanly) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  BurstMaster m1(&b.top, "m1", b.bus,
                 {.addr_base = 0x0000, .addr_range = 0x1000,
                  .burst = Burst::kIncr4, .seed = 1});
  BurstMaster m2(&b.top, "m2", b.bus,
                 {.addr_base = 0x1000, .addr_range = 0x1000,
                  .burst = Burst::kWrap8, .seed = 2});
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave s1(&b.top, "s1", b.bus, {.base = 0x1000, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(4000);
  EXPECT_TRUE(mon.violations().empty());
  EXPECT_EQ(m1.stats().read_mismatches, 0u);
  EXPECT_EQ(m2.stats().read_mismatches, 0u);
  EXPECT_GT(mon.stats().handovers, 4u);
}

TEST(BurstMaster, MixedWithTrafficMaster) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  BurstMaster bm(&b.top, "bm", b.bus,
                 {.addr_base = 0x0000, .addr_range = 0x1000,
                  .burst = Burst::kIncr4, .seed = 3});
  TrafficMaster tm(&b.top, "tm", b.bus,
                   {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 4});
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave s1(&b.top, "s1", b.bus, {.base = 0x1000, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(4000);
  EXPECT_TRUE(mon.violations().empty());
  EXPECT_EQ(bm.stats().read_mismatches, 0u);
  EXPECT_EQ(tm.stats().read_mismatches, 0u);
}

TEST(Monitor, CatchesBrokenBurstSequence) {
  // A hand-driven master that violates the SEQ address pattern.
  Bench b;
  struct BadMaster : AhbMaster {
    BadMaster(sim::Module* p, AhbBus& bus)
        : AhbMaster(p, "bad", bus), thread_(this, "t", [this] { return body(); }) {}
    sim::Task body() {
      request();
      co_await owned_edge();
      sig_.htrans.write(raw(Trans::kNonSeq));
      sig_.hburst.write(raw(Burst::kIncr4));
      sig_.haddr.write(0x100);
      co_await ready_edge();
      sig_.htrans.write(raw(Trans::kSeq));
      sig_.haddr.write(0x200);  // WRONG: should be 0x104
      co_await ready_edge();
      sig_.htrans.write(raw(Trans::kIdle));
      sig_.hbusreq.write(false);
    }
    sim::Thread thread_;
  } bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(30);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_NE(mon.violations().front().find("burst address sequence"),
            std::string::npos);
}

}  // namespace
}  // namespace ahbp::ahb
