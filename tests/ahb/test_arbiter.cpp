// Unit tests for the AHB arbiter: default master, priority, round-robin,
// handover-only-during-idle.

#include "ahb/arbiter.hpp"

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;

/// A master shell that lets the test drive hbusreq/htrans by hand.
struct ManualMaster : AhbMaster {
  ManualMaster(sim::Module* parent, std::string name, AhbBus& bus)
      : AhbMaster(parent, std::move(name), bus) {}
};

struct ArbBench : Bench {
  explicit ArbBench(AhbBus::Config cfg = AhbBus::Config{})
      : Bench(cfg),
        m0(&top, "m0", bus),
        m1(&top, "m1", bus),
        m2(&top, "m2", bus),
        mem(&top, "mem", bus, {.base = 0, .size = 0x1000}) {
    bus.finalize();
  }
  ManualMaster m0, m1, m2;
  MemorySlave mem;
};

TEST(Arbiter, DefaultMasterGrantedAtReset) {
  ArbBench b;
  b.run_cycles(2);
  EXPECT_TRUE(b.bus.hgrant(0).read());
  EXPECT_FALSE(b.bus.hgrant(1).read());
  EXPECT_FALSE(b.bus.hgrant(2).read());
  EXPECT_EQ(b.bus.bus().hmaster.read(), 0);
}

TEST(Arbiter, RequestMovesGrant) {
  ArbBench b;
  b.run_cycles(2);
  b.m1.signals().hbusreq.write(true);
  b.run_cycles(2);
  EXPECT_TRUE(b.bus.hgrant(1).read());
  EXPECT_EQ(b.bus.bus().hmaster.read(), 1);
  EXPECT_EQ(b.bus.arbiter().handover_count(), 1u);
}

TEST(Arbiter, GrantReturnsToDefaultOnRelease) {
  ArbBench b;
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(2).read());
  b.m2.signals().hbusreq.write(false);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(0).read());
  EXPECT_EQ(b.bus.arbiter().handover_count(), 2u);
}

TEST(Arbiter, FixedPriorityPrefersLowerIndex) {
  ArbBench b;
  b.m1.signals().hbusreq.write(true);
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(1).read());
  EXPECT_FALSE(b.bus.hgrant(2).read());
}

TEST(Arbiter, OwnerKeepsBusWhileRequesting) {
  // Even a higher-priority request cannot steal the bus from an owner
  // that still requests it (non-interruptible sequences).
  ArbBench b;
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(3);
  ASSERT_TRUE(b.bus.hgrant(2).read());
  b.m1.signals().hbusreq.write(true);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(2).read()) << "ownership stolen mid-tenure";
  b.m2.signals().hbusreq.write(false);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(1).read());
}

TEST(Arbiter, NoHandoverWhileTransferInProgress) {
  ArbBench b;
  b.m1.signals().hbusreq.write(true);
  b.run_cycles(3);
  ASSERT_TRUE(b.bus.hgrant(1).read());
  // m1 launches a transfer and (wrongly) drops its request mid-transfer;
  // the arbiter must still wait for IDLE before re-granting.
  b.m1.signals().htrans.write(raw(Trans::kNonSeq));
  b.m1.signals().haddr.write(0x10);
  b.run_cycles(1);
  b.m1.signals().hbusreq.write(false);
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(1);
  EXPECT_TRUE(b.bus.hgrant(1).read());  // HTRANS is NONSEQ: no handover
  b.m1.signals().htrans.write(raw(Trans::kIdle));
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(2).read());
}

TEST(Arbiter, RoundRobinRotates) {
  ArbBench b(AhbBus::Config{.policy = ArbitrationPolicy::kRoundRobin});
  // All three request; release one at a time and check rotation order.
  b.m1.signals().hbusreq.write(true);
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(3);
  // current was 0 -> next in rotation is 1.
  EXPECT_TRUE(b.bus.hgrant(1).read());
  b.m1.signals().hbusreq.write(false);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(2).read());
  b.m2.signals().hbusreq.write(false);
  b.m1.signals().hbusreq.write(true);
  b.run_cycles(3);
  EXPECT_TRUE(b.bus.hgrant(1).read());
}

TEST(Arbiter, ExactlyOneGrantAlways) {
  ArbBench b;
  BusMonitor mon(&b.top, "mon", b.bus);
  b.m1.signals().hbusreq.write(true);
  b.run_cycles(5);
  b.m1.signals().hbusreq.write(false);
  b.m2.signals().hbusreq.write(true);
  b.run_cycles(5);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Arbiter, BadDefaultMasterRejected) {
  Bench b(AhbBus::Config{.default_master = 7});
  ManualMaster m0(&b.top, "m0", b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x100});
  EXPECT_THROW(b.bus.finalize(), SimError);
}

TEST(Arbiter, FinalizeWithoutMastersRejected) {
  Bench b;
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x100});
  EXPECT_THROW(b.bus.finalize(), SimError);
}

TEST(Arbiter, DoubleFinalizeRejected) {
  ArbBench b;
  EXPECT_THROW(b.bus.finalize(), SimError);
}

}  // namespace
}  // namespace ahbp::ahb
