// Long-running randomized tests: the paper's testbench topology (two
// traffic masters + default master + three slaves) under the protocol
// monitor, plus parameterized sweeps over arbitration policy and wait
// states.

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "campaign/testbench.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

/// The paper's testbench (campaign::PaperTestbench, seeds 101/202)
/// under a non-fatal protocol monitor, with a handle per part.
struct PaperBench : campaign::PaperTestbench {
  explicit PaperBench(unsigned wait_states = 0,
                      ArbitrationPolicy policy = ArbitrationPolicy::kFixedPriority)
      : PaperTestbench({.policy = policy,
                        .wait_states = wait_states,
                        .monitor = BusMonitor::Config{.fatal = false},
                        .power = std::nullopt}) {}

  TrafficMaster& m1 = *masters[0];
  TrafficMaster& m2 = *masters[1];
  MemorySlave& s1 = *slaves[0];
  MemorySlave& s2 = *slaves[1];
  MemorySlave& s3 = *slaves[2];
  BusMonitor& mon = *monitor;
};

TEST(TrafficMaster, RejectedConfigNeverAttaches) {
  test::Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  EXPECT_THROW(TrafficMaster(&b.top, "bad", b.bus, {.min_idle_cycles = 0}),
               sim::SimError);
  TrafficMaster m(&b.top, "m", b.bus, {});  // the same default window
  MemorySlave mem(&b.top, "mem", b.bus, {});
  b.bus.finalize();
  EXPECT_EQ(b.bus.n_masters(), 2u);
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(100);
  EXPECT_GT(m.stats().writes, 0u);
  EXPECT_EQ(m.stats().read_mismatches, 0u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Traffic, PaperTestbenchRunsCleanFor5000Cycles) {
  PaperBench b;
  b.run_cycles(5000);
  EXPECT_TRUE(b.mon.violations().empty())
      << "first violation: " << b.mon.violations().front();
  EXPECT_GT(b.m1.stats().sequences, 10u);
  EXPECT_GT(b.m2.stats().sequences, 10u);
  EXPECT_EQ(b.m1.stats().read_mismatches, 0u);
  EXPECT_EQ(b.m2.stats().read_mismatches, 0u);
  EXPECT_EQ(b.m1.stats().error_responses, 0u);
  EXPECT_EQ(b.m2.stats().error_responses, 0u);
}

TEST(Traffic, WritesEqualReads) {
  // Every tenure is WRITE-READ pairs; at an arbitrary stopping point a
  // master can be at most one completed write ahead of its reads.
  PaperBench b;
  b.run_cycles(3000);
  for (const TrafficMaster* m : {&b.m1, &b.m2}) {
    EXPECT_GE(m->stats().writes, m->stats().reads);
    EXPECT_LE(m->stats().writes - m->stats().reads, 1u);
    EXPECT_GT(m->stats().writes, 0u);
  }
}

TEST(Traffic, MonitorCountsMatchMasterCounts) {
  PaperBench b;
  b.run_cycles(2000);
  const auto total_master_transfers = b.m1.stats().writes + b.m1.stats().reads +
                                      b.m2.stats().writes + b.m2.stats().reads;
  // The monitor may have seen a few transfers still in flight; allow a
  // difference of at most 2 (one pending data phase per master).
  EXPECT_NEAR(static_cast<double>(b.mon.stats().transfers),
              static_cast<double>(total_master_transfers), 2.0);
}

TEST(Traffic, HandoversHappenAndOnlyDuringIdle) {
  PaperBench b;
  b.run_cycles(3000);
  EXPECT_GT(b.mon.stats().handovers, 10u);
  // The monitor's handover-during-transfer check never fired:
  EXPECT_TRUE(b.mon.violations().empty());
}

TEST(Traffic, SlaveTrafficLandsInTheRightSlaves) {
  PaperBench b;
  b.run_cycles(3000);
  // m1 only targets s1's window, m2 only targets s2's.
  EXPECT_GT(b.s1.stats().writes, 0u);
  EXPECT_GT(b.s2.stats().writes, 0u);
  EXPECT_EQ(b.s3.stats().writes, 0u);
  EXPECT_EQ(b.s1.stats().writes + b.s2.stats().writes,
            b.m1.stats().writes + b.m2.stats().writes);
}

class TrafficWaitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TrafficWaitSweep, CleanUnderWaitStates) {
  PaperBench b(GetParam());
  b.run_cycles(2000);
  EXPECT_TRUE(b.mon.violations().empty());
  EXPECT_EQ(b.m1.stats().read_mismatches, 0u);
  EXPECT_EQ(b.m2.stats().read_mismatches, 0u);
  if (GetParam() > 0) {
    EXPECT_GT(b.mon.stats().wait_cycles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Waits, TrafficWaitSweep, ::testing::Values(0u, 1u, 3u));

TEST(Traffic, RoundRobinPolicyAlsoClean) {
  PaperBench b(0, ArbitrationPolicy::kRoundRobin);
  b.run_cycles(3000);
  EXPECT_TRUE(b.mon.violations().empty());
  EXPECT_EQ(b.m1.stats().read_mismatches, 0u);
  EXPECT_EQ(b.m2.stats().read_mismatches, 0u);
  EXPECT_GT(b.m1.stats().sequences, 5u);
  EXPECT_GT(b.m2.stats().sequences, 5u);
}

TEST(Traffic, ThroughputIsFairUnderContention) {
  // With symmetric configs both masters should complete a comparable
  // number of sequences (fixed priority is technically unfair, but
  // tenures are short and requests alternate).
  PaperBench b;
  b.run_cycles(5000);
  const double r = static_cast<double>(b.m1.stats().sequences) /
                   static_cast<double>(b.m2.stats().sequences);
  EXPECT_GT(r, 0.5);
  EXPECT_LT(r, 2.0);
}

TEST(Traffic, DeterministicForFixedSeeds) {
  // Only one kernel may be alive at a time, so run the two replicas
  // sequentially and compare their summaries.
  auto run_once = [] {
    PaperBench b;
    b.run_cycles(1000);
    return std::tuple{b.m1.stats().writes, b.m2.stats().reads,
                      b.mon.stats().handovers};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ahbp::ahb
