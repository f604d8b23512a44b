// Fault-injection tests: RETRY/ERROR/SPLIT responses from a memory slave
// whose fault hook fails transfers at a fixed cadence, the
// scripted master's retry machinery, and system behaviour around the
// default slave's error responses.

#include <gtest/gtest.h>

#include <string>

#include "ahb/ahb.hpp"
#include "power/estimator.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;
using test::fail_every;
using test::failures;
using test::outcome;
using Op = ScriptedMaster::Op;

Op write_op(std::uint32_t addr, std::uint32_t data) {
  return Op{Op::Kind::kWrite, addr, data, 0};
}
Op read_op(std::uint32_t addr) { return Op{Op::Kind::kRead, addr, 0, 0}; }

// The FaultySlave rigs run a MemorySlave under a fail_every() hook.
// Their outcome() strings and energies are goldens: any change to the
// slave's fault-response timing shows up here.

TEST(MemorySlave, RejectsBadConfigs) {
  Bench b;
  EXPECT_THROW(MemorySlave(&b.top, "m1", b.bus, {.size = 6}), SimError);
  // A SPLIT cadence with the default resume delay is accepted.  (A fresh
  // address range: the throwing constructor above already claimed the
  // default one in the decoder before its config check fired.)
  EXPECT_NO_THROW(MemorySlave(&b.top, "m2", b.bus,
                              {.base = 0x4000,
                               .fault_hook = fail_every(3, Resp::kSplit)}));
}

TEST(FaultySlave, RetryResponseReachesMaster) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  // Every transfer fails -> a non-retrying master records the RETRY.
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = false});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(1)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(30);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 1u);
  EXPECT_EQ(m.results()[0].resp, Resp::kRetry);
  EXPECT_EQ(failures(fs), 1u);
  EXPECT_EQ(fs.stats().writes, 0u);
  EXPECT_EQ(outcome(m, fs, mon),
            "results 2:1 | retries 0 splits 0 | slave w0 r0 f1"
            " | mon c30 t1 r0 w1 wait1 idle29 ho2 err0 rty1 spl0 v0");
}

TEST(FaultySlave, RetryingMasterEventuallySucceeds) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x20, 0xBEEF), read_op(0x20)},
                   ScriptedMaster::Options{.retry = true});
  // Every 2nd transfer fails: first write attempt fails, retry succeeds...
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(2)});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);

  b.run_cycles(100);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].data, 0xBEEFu);
  EXPECT_GT(m.retries(), 0u);
  EXPECT_EQ(fs.peek(0x20), 0xBEEFu);
  EXPECT_TRUE(mon.violations().empty());
  EXPECT_EQ(outcome(m, fs, mon),
            "results 0:beef 0:beef | retries 1 splits 0 | slave w1 r1 f1"
            " | mon c100 t3 r2 w1 wait1 idle97 ho2 err0 rty1 spl0 v0");
}

TEST(FaultySlave, MaxRetriesGivesUp) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = true, .max_retries = 3});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .fault_hook = fail_every(1)});  // always fails
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.retries(), 3u);
  EXPECT_EQ(m.results()[0].resp, Resp::kRetry);  // gave up, recorded RETRY
  EXPECT_EQ(outcome(m, fs, mon),
            "results 2:1 | retries 3 splits 0 | slave w0 r0 f4"
            " | mon c200 t4 r0 w4 wait4 idle196 ho2 err0 rty4 spl0 v0");
}

TEST(FaultySlave, ErrorsAreNotRetried) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1), read_op(0x14)},
                   ScriptedMaster::Options{.retry = true});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .fault_hook = fail_every(2, Resp::kError)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(100);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.retries(), 0u);
  // Exactly one of the two transfers hit the every-2nd failure.
  const int errors = (m.results()[0].resp == Resp::kError ? 1 : 0) +
                     (m.results()[1].resp == Resp::kError ? 1 : 0);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(outcome(m, fs, mon),
            "results 0:1 1:0 | retries 0 splits 0 | slave w1 r0 f1"
            " | mon c100 t2 r1 w1 wait1 idle98 ho2 err1 rty0 spl0 v0");
}

TEST(FaultySlave, FailureCadenceIsExact) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  std::vector<Op> script;
  for (int i = 0; i < 9; ++i) script.push_back(write_op(0x100 + 4 * i, i));
  ScriptedMaster m(&b.top, "m", b.bus, script,
                   ScriptedMaster::Options{.retry = false});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(3)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(failures(fs), 3u);   // transfers 3, 6, 9
  EXPECT_EQ(fs.stats().writes, 6u);
  EXPECT_EQ(outcome(m, fs, mon),
            "results 0:0 0:1 2:2 0:3 0:4 2:5 0:6 0:7 2:8"
            " | retries 0 splits 0 | slave w6 r0 f3"
            " | mon c200 t9 r0 w9 wait3 idle189 ho2 err0 rty3 spl0 v0");
}

TEST(FaultySlave, SplitReworkEventuallySucceeds) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x30, 0xCAFE), read_op(0x30)},
                   ScriptedMaster::Options{.retry = true});
  // Every 2nd transfer SPLITs: the arbiter masks the master, the slave's
  // resume countdown re-grants it, and the re-issued transfer lands.
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .fault_hook = fail_every(2, Resp::kSplit, 3)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});

  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].data, 0xCAFEu);
  EXPECT_GT(m.splits(), 0u);
  EXPECT_EQ(fs.peek(0x30), 0xCAFEu);
  EXPECT_GT(b.bus.arbiter().split_count(), 0u);
  EXPECT_EQ(b.bus.arbiter().split_mask(), 0u);  // every split resumed
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
  EXPECT_GT(mon.stats().split_responses, 0u);
  EXPECT_EQ(outcome(m, fs, mon),
            "results 0:cafe 0:cafe | retries 1 splits 1 | slave w1 r1 f1"
            " | mon c200 t3 r2 w1 wait1 idle197 ho4 err0 rty0 spl1 v0");
}

TEST(FaultySlave, SplitRetryExhaustionGivesUp) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = true, .max_retries = 3});
  // Every transfer SPLITs.
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .fault_hook = fail_every(1, Resp::kSplit, 2)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(300);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.retries(), 3u);
  EXPECT_EQ(m.splits(), 3u);
  EXPECT_EQ(m.results()[0].resp, Resp::kSplit);  // gave up, recorded SPLIT
  EXPECT_EQ(fs.stats().writes, 0u);
  EXPECT_EQ(outcome(m, fs, mon),
            "results 3:1 | retries 3 splits 3 | slave w0 r0 f4"
            " | mon c300 t4 r0 w4 wait4 idle296 ho2 err0 rty0 spl4 v0");
}

TEST(MemorySlave, FaultHookInjectsSplitRework) {
  // The MemorySlave hook path: every 3rd transfer SPLITs, everything
  // retried to completion, memory ends up consistent.
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  std::vector<Op> script;
  for (int i = 0; i < 6; ++i) script.push_back(write_op(0x100 + 4 * i, 0xB0 + i));
  for (int i = 0; i < 6; ++i) script.push_back(read_op(0x100 + 4 * i));
  ScriptedMaster m(&b.top, "m", b.bus, script,
                   ScriptedMaster::Options{.retry = true, .max_retries = 8});
  MemorySlave ms(&b.top, "ms", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .wait_states = 0,
                  .fault_hook = [](const FaultQuery& q) {
                    FaultDecision d;
                    if (q.transfer_index % 3 == 2) {
                      d.resp = Resp::kSplit;
                      d.split_resume_cycles = 2;
                    }
                    return d;
                  }});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(400);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), script.size());
  for (std::size_t i = 0; i < m.results().size(); ++i) {
    EXPECT_EQ(m.results()[i].resp, Resp::kOkay) << "op " << i;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ms.peek(0x100 + 4 * i), 0xB0u + static_cast<unsigned>(i));
  }
  EXPECT_GT(ms.stats().splits, 0u);
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
  EXPECT_EQ(outcome(m, ms, mon),
            "results 0:b0 0:b1 0:b2 0:b3 0:b4 0:b5 0:b0 0:b1 0:b2 0:b3 0:b4 0:b5"
            " | retries 5 splits 5 | slave w6 r6 f5"
            " | mon c400 t17 r9 w8 wait5 idle383 ho2 err0 rty0 spl5 v0");
}

TEST(FaultySlave, PowerAnalysisSeesRetryTraffic) {
  // Failure cycles are bus activity too: the estimator keeps working and
  // records extra energy relative to a clean run.
  struct Run {
    double energy;
    std::string outcome;
  };
  auto run = [](unsigned fail_every_n) {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    std::vector<Op> script;
    for (int i = 0; i < 16; ++i) script.push_back(write_op(0x100 + 4 * i, 0xA0 + i));
    ScriptedMaster m(&b.top, "m", b.bus, script,
                     ScriptedMaster::Options{.retry = true});
    MemorySlave fs(&b.top, "fs", b.bus,
                   {.base = 0,
                    .size = 0x1000,
                    .fault_hook = fail_every(fail_every_n)});
    b.bus.finalize();
    BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
    power::AhbPowerEstimator est(&b.top, "pwr", b.bus);
    b.run_cycles(400);
    return Run{est.total_energy(), outcome(m, fs, mon)};
  };
  const Run clean = run(1000000);  // effectively never fails
  const Run faulty = run(2);
  EXPECT_GT(faulty.energy, clean.energy);
  EXPECT_EQ(clean.energy, 0x1.3961952af0f19p-33);
  EXPECT_EQ(faulty.energy, 0x1.1b4ff136cd15cp-32);
  EXPECT_EQ(clean.outcome,
            "results 0:a0 0:a1 0:a2 0:a3 0:a4 0:a5 0:a6 0:a7"
            " 0:a8 0:a9 0:aa 0:ab 0:ac 0:ad 0:ae 0:af"
            " | retries 0 splits 0 | slave w16 r0 f0"
            " | mon c400 t16 r0 w16 wait0 idle384 ho2 err0 rty0 spl0 v0");
  EXPECT_EQ(faulty.outcome,
            "results 0:a0 0:a1 0:a2 0:a3 0:a4 0:a5 0:a6 0:a7"
            " 0:a8 0:a9 0:aa 0:ab 0:ac 0:ad 0:ae 0:af"
            " | retries 15 splits 0 | slave w16 r0 f15"
            " | mon c400 t31 r0 w31 wait15 idle369 ho2 err0 rty15 spl0 v0");
}

}  // namespace
}  // namespace ahbp::ahb
