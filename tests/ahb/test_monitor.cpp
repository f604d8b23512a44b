// Negative tests for the protocol monitor: deliberately misbehaving
// masters must be caught, and the fatal/non-fatal modes must behave.

#include "ahb/monitor.hpp"

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;

/// A master that changes its address mid-wait-state (illegal).
struct WobblyMaster : AhbMaster {
  WobblyMaster(sim::Module* p, AhbBus& bus)
      : AhbMaster(p, "wobbly", bus), thread_(this, "t", [this] { return body(); }) {}
  sim::Task body() {
    request();
    co_await owned_edge();
    // Launch a transfer into the slow slave...
    sig_.htrans.write(raw(Trans::kNonSeq));
    sig_.haddr.write(0x100);
    sig_.hwrite.write(true);
    co_await ready_edge();
    // First data-phase cycle (stalled): fire a second address phase and
    // then ILLEGALLY change it while HREADY is low.
    sig_.haddr.write(0x200);
    co_await wait(edge_);
    sig_.haddr.write(0x300);  // illegal mid-wait change
    co_await wait(edge_);
    co_await wait(edge_);
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
  }
  sim::Thread thread_;
};

TEST(Monitor, CatchesAddressChangeDuringWaitStates) {
  Bench b;
  WobblyMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus,
                  {.base = 0, .size = 0x1000, .wait_states = 3});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(40);
  ASSERT_FALSE(mon.violations().empty());
  bool found = false;
  for (const auto& v : mon.violations()) {
    if (v.find("wait states") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << mon.violations().front();
}

/// A master that starts a burst with SEQ (illegal).
struct SeqFirstMaster : AhbMaster {
  SeqFirstMaster(sim::Module* p, AhbBus& bus)
      : AhbMaster(p, "seqfirst", bus),
        thread_(this, "t", [this] { return body(); }) {}
  sim::Task body() {
    request();
    co_await owned_edge();
    sig_.htrans.write(raw(Trans::kSeq));  // illegal: SEQ out of IDLE
    sig_.haddr.write(0x10);
    co_await wait(edge_);
    co_await wait(edge_);
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
  }
  sim::Thread thread_;
};

TEST(Monitor, CatchesSeqAfterIdle) {
  Bench b;
  SeqFirstMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(20);
  ASSERT_FALSE(mon.violations().empty());
  bool found = false;
  for (const auto& v : mon.violations()) {
    if (v.find("SEQ transfer immediately after IDLE") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

/// A master that injects BUSY without a burst in progress.
struct BusyIdleMaster : AhbMaster {
  BusyIdleMaster(sim::Module* p, AhbBus& bus)
      : AhbMaster(p, "busyidle", bus),
        thread_(this, "t", [this] { return body(); }) {}
  sim::Task body() {
    request();
    co_await owned_edge();
    sig_.htrans.write(raw(Trans::kBusy));  // illegal: BUSY out of IDLE
    co_await wait(edge_);
    co_await wait(edge_);
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
  }
  sim::Thread thread_;
};

TEST(Monitor, CatchesBusyOutsideBurst) {
  Bench b;
  BusyIdleMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(20);
  bool found = false;
  for (const auto& v : mon.violations()) {
    if (v.find("BUSY beat outside a burst") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Monitor, ViolationMessagesCarryContext) {
  Bench b;
  SeqFirstMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(20);
  ASSERT_FALSE(mon.violations().empty());
  // Every recorded violation says where (cycle, sim time) and who
  // (address-phase master) before what went wrong.
  for (const auto& v : mon.violations()) {
    EXPECT_EQ(v.find("cycle "), 0u) << v;
    EXPECT_NE(v.find(" @"), std::string::npos) << v;
    EXPECT_NE(v.find(" master "), std::string::npos) << v;
    EXPECT_NE(v.find(": "), std::string::npos) << v;
  }
}

TEST(Monitor, ViolationCounterTracksMetricsRegistry) {
  Bench b;
  SeqFirstMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  telemetry::MetricsRegistry metrics;
  BusMonitor::Config cfg{.fatal = false, .metrics = &metrics};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);
  b.run_cycles(20);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(metrics.counter("ahb.monitor.violations").value(),
            mon.violations().size());
}

TEST(Monitor, FatalModeThrowsOnFirstViolation) {
  Bench b;
  SeqFirstMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);  // fatal by default
  EXPECT_THROW(b.run_cycles(20), SimError);
}

TEST(Monitor, CleanTrafficProducesNoViolations) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  TrafficMaster m(&b.top, "m", b.bus,
                  {.addr_base = 0, .addr_range = 0x1000, .seed = 5});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);  // fatal: any violation aborts
  EXPECT_NO_THROW(b.run_cycles(2000));
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Monitor, DefaultSlaveTwoCycleErrorIsClean) {
  // Regression for the two-cycle-response check: the default slave's
  // unmapped-address ERROR is a well-formed two-cycle response, so the
  // monitor must record the error without flagging a violation.
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {{ScriptedMaster::Op::Kind::kWrite, 0x5000, 1, 0},
                    {ScriptedMaster::Op::Kind::kWrite, 0x10, 2, 0}},
                   ScriptedMaster::Options{.retry = false});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, Resp::kError);  // 0x5000 is unmapped
  EXPECT_EQ(m.results()[1].resp, Resp::kOkay);
  EXPECT_EQ(mon.stats().error_responses, 1u);
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
}

/// A slave that answers every transfer with a single-cycle ERROR --
/// HREADY stays high on the first response cycle, violating the
/// two-cycle rule.
struct SingleCycleErrorSlave : AhbSlave {
  SingleCycleErrorSlave(sim::Module* p, AhbBus& bus)
      : AhbSlave(p, "badslave", bus, 0, 0x1000),
        proc_(this, "clocked", [this] { on_clock(); }) {
    sig_.hreadyout.write(true);
    sig_.hresp.write(raw(Resp::kOkay));
    proc_.sensitive(clock().posedge_event()).dont_initialize();
  }
  void on_clock() {
    BusSignals& bus = bus_signals();
    if (erroring_) {
      sig_.hresp.write(raw(Resp::kOkay));
      erroring_ = false;
      return;
    }
    if (selected() && is_active(static_cast<Trans>(bus.htrans.read())) &&
        bus.hready.read()) {
      sig_.hresp.write(raw(Resp::kError));  // HREADY left high: illegal
      erroring_ = true;
    }
  }
  sim::Method proc_;
  bool erroring_ = false;
};

TEST(Monitor, CatchesSingleCycleErrorResponse) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {{ScriptedMaster::Op::Kind::kWrite, 0x10, 1, 0}},
                   ScriptedMaster::Options{.retry = false});
  SingleCycleErrorSlave bad(&b.top, b.bus);
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(40);
  bool found = false;
  for (const auto& v : mon.violations()) {
    if (v.find("single-cycle") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << (mon.violations().empty() ? "no violations"
                                                  : mon.violations()[0]);
}

TEST(Monitor, StatsClassifyCycleTypes) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {{ScriptedMaster::Op::Kind::kWrite, 0x10, 1, 0},
                    {ScriptedMaster::Op::Kind::kIdle, 0, 0, 5},
                    {ScriptedMaster::Op::Kind::kRead, 0x10, 0, 0}});
  MemorySlave mem(&b.top, "mem", b.bus,
                  {.base = 0, .size = 0x1000, .wait_states = 1});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus);
  b.run_cycles(60);
  EXPECT_EQ(mon.stats().transfers, 2u);
  EXPECT_EQ(mon.stats().writes, 1u);
  EXPECT_EQ(mon.stats().reads, 1u);
  EXPECT_EQ(mon.stats().wait_cycles, 2u);
  EXPECT_GT(mon.stats().idle_cycles, 5u);
  EXPECT_GT(mon.stats().cycles, 20u);
}

}  // namespace
}  // namespace ahbp::ahb
