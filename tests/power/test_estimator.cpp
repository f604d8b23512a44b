// Integration tests: power estimation over the live AHB testbench, the
// three integration styles, and the power trace.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::AhbBus;
using ahb::DefaultMaster;
using ahb::MemorySlave;
using ahb::TrafficMaster;

/// The paper's testbench plus a power estimator.
struct PowerBench {
  explicit PowerBench(AhbPowerEstimator::Config cfg = AhbPowerEstimator::Config{})
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk),
        dm(&top, "dm", bus),
        m1(&top, "m1", bus, {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 11}),
        m2(&top, "m2", bus, {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 22}),
        s1(&top, "s1", bus, {.base = 0x0000, .size = 0x1000}),
        s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000}),
        s3(&top, "s3", bus, {.base = 0x2000, .size = 0x1000}) {
    bus.finalize();
    est = std::make_unique<AhbPowerEstimator>(&top, "power", bus, cfg);
  }

  void run_cycles(unsigned n) {
    kernel.run(sim::SimTime::ns(10) * static_cast<std::int64_t>(n));
  }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  AhbBus bus;
  DefaultMaster dm;
  TrafficMaster m1, m2;
  MemorySlave s1, s2, s3;
  std::unique_ptr<AhbPowerEstimator> est;
};

TEST(Estimator, RequiresFinalizedBus) {
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  EXPECT_THROW(AhbPowerEstimator(&top, "p", bus), sim::SimError);
}

TEST(Estimator, AccumulatesEnergyOverRun) {
  PowerBench b;
  b.run_cycles(1000);
  EXPECT_GT(b.est->total_energy(), 0.0);
  // The clock's first falling edge is at 15 ns, so a 10 us run samples
  // 999 full cycles.
  EXPECT_GE(b.est->fsm().cycles(), 999u);
}

TEST(Estimator, PaperShapeDataPathDominatesArbitration) {
  // The paper's headline: ~87% of the energy in data-transfer
  // instructions with no handover, ~13% in arbitration. We require the
  // same ordering with generous margins.
  PowerBench b;
  b.run_cycles(5000);
  const double data = data_transfer_share(b.est->fsm());
  const double arb = arbitration_share(b.est->fsm());
  EXPECT_GT(data, 0.6) << format_instruction_table(b.est->fsm());
  EXPECT_LT(arb, 0.35);
  EXPECT_GT(arb, 0.0);
  EXPECT_GT(data, arb * 3);
}

TEST(Estimator, PaperShapeM2sDominatesArbiterPower) {
  PowerBench b;
  b.run_cycles(5000);
  const BlockEnergy& e = b.est->block_totals();
  EXPECT_GT(e.m2s, 10 * e.arb) << format_block_breakdown(e);
  EXPECT_GT(e.m2s, e.dec);
  EXPECT_GT(e.m2s, e.s2m);
  EXPECT_GT(e.s2m, 0.0);
  EXPECT_GT(e.dec, 0.0);
  EXPECT_GT(e.arb, 0.0);
}

TEST(Estimator, InstructionAveragesInPaperBand) {
  PowerBench b;
  b.run_cycles(5000);
  const auto& tab = b.est->fsm().instructions();
  ASSERT_TRUE(tab.count("WRITE_READ"));
  ASSERT_TRUE(tab.count("READ_WRITE"));
  for (const char* name : {"WRITE_READ", "READ_WRITE"}) {
    const double avg = tab.at(name).average();
    EXPECT_GT(avg, 2e-12) << name;
    EXPECT_LT(avg, 60e-12) << name;
  }
}

TEST(Estimator, PaperInstructionsAppear)
{
  PowerBench b;
  b.run_cycles(5000);
  const auto& tab = b.est->fsm().instructions();
  // The five instructions of the paper's Table 1:
  for (const char* name : {"IDLE_HO_IDLE_HO", "IDLE_HO_WRITE", "READ_WRITE",
                           "READ_IDLE_HO", "WRITE_READ"}) {
    EXPECT_TRUE(tab.count(name)) << "missing instruction " << name << "\n"
                                 << format_instruction_table(b.est->fsm());
  }
}

TEST(Estimator, TraceProducesWindows) {
  PowerBench b(AhbPowerEstimator::Config{.telemetry_window_cycles = 10});
  b.run_cycles(1000);  // 10 us
  b.est->flush_telemetry();
  ASSERT_NE(b.est->windows(), nullptr);
  const telemetry::WindowSeries& ws = *b.est->windows();
  const sim::SimTime period = b.clk.period();
  const std::vector<double> total = window_power(ws, "total", period);
  ASSERT_GE(total.size(), 90u);
  EXPECT_EQ(ws.windows()[10].start_tick, 100u);  // 10-cycle windows
  // Total power is the sum of the block powers.
  const std::size_t i = 10;
  EXPECT_NEAR(total[i],
              window_power(ws, "arb", period)[i] + window_power(ws, "dec", period)[i] +
                  window_power(ws, "m2s", period)[i] +
                  window_power(ws, "s2m", period)[i],
              1e-9);
}

TEST(Estimator, TraceEnergyMatchesTotalEnergy) {
  PowerBench b(AhbPowerEstimator::Config{.telemetry_window_cycles = 25});
  b.run_cycles(800);
  b.est->flush_telemetry();
  double trace_total = 0.0;
  for (const double e : window_energy(*b.est->windows(), "total")) trace_total += e;
  EXPECT_NEAR(trace_total, b.est->total_energy(), b.est->total_energy() * 1e-9);
}

TEST(Estimator, NoTraceByDefault) {
  PowerBench b;
  EXPECT_EQ(b.est->windows(), nullptr);
  b.est->flush_telemetry();  // no-op, no crash
}

/// The two FSMs agree bit for bit: total energy, the per-instruction
/// table and the activity report.
void expect_identical(const PowerFsm& a, const PowerFsm& b) {
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.total_energy(), b.total_energy());
  const auto ta = a.instructions();
  const auto tb = b.instructions();
  ASSERT_EQ(ta.size(), tb.size());
  for (const auto& [name, st] : ta) {
    ASSERT_TRUE(tb.count(name)) << name;
    EXPECT_EQ(st.count, tb.at(name).count) << name;
    EXPECT_EQ(st.energy, tb.at(name).energy) << name;
  }
  EXPECT_EQ(format_activity_report(a.activity()),
            format_activity_report(b.activity()));
}

TEST(Styles, LocalAndGlobalAgreeExactly) {
  // The global analyzer runs the same FSM on the bus's one per-cycle
  // sample, so the two styles must produce identical energy.
  PowerBench b;
  GlobalPowerAnalyzer analyzer(
      &b.top, "analyzer",
      PowerFsm::Config{.n_masters = b.bus.n_masters(), .n_slaves = b.bus.n_slaves()});
  b.bus.subscribe(analyzer);
  b.run_cycles(2000);
  EXPECT_GT(analyzer.total_energy(), 0.0);
  EXPECT_EQ(analyzer.total_energy(), b.est->total_energy());
  EXPECT_GE(analyzer.fsm().cycles(), 1999u);
  expect_identical(analyzer.fsm(), b.est->fsm());
}

TEST(Styles, LocalAndGlobalAgreeExactlyUnderSplit) {
  // SPLIT traffic (the rig of Attribution.SplitReworkConservesEnergy):
  // masked masters keep requesting, so the view's split vector decides
  // IDLE vs IDLE_HO. Both styles read it from the same sample.
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
  GlobalPowerAnalyzer analyzer(
      &top, "analyzer",
      PowerFsm::Config{.n_masters = bus.n_masters(), .n_slaves = bus.n_slaves()});
  bus.subscribe(analyzer);
  k.run(sim::SimTime::us(30));

  ASSERT_TRUE(m1.finished());
  EXPECT_GT(m1.splits(), 0u);
  EXPECT_GT(analyzer.total_energy(), 0.0);
  expect_identical(analyzer.fsm(), est.fsm());
}

TEST(Styles, PrivateStyleSameOrderOfMagnitude) {
  // Event-level accounting differs from cycle-level sampling (it sees
  // intra-cycle changes separately) but must land in the same ballpark
  // and preserve the M2S >> ARB ordering.
  PowerBench b;
  PrivatePowerModel priv(&b.top, "priv", b.bus);
  b.run_cycles(2000);
  EXPECT_GT(priv.total_energy(), 0.0);
  const double ratio = priv.total_energy() / b.est->total_energy();
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(priv.block_totals().m2s, priv.block_totals().arb);
  EXPECT_GT(priv.event_count(), 0u);
}

TEST(Styles, GlobalAnalyzerIsBusAgnostic) {
  // The analyzer can be driven directly, with no bus at all.
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  GlobalPowerAnalyzer analyzer(&top, "an",
                               PowerFsm::Config{.n_masters = 2, .n_slaves = 2});
  ahb::CycleView v;
  v.data_active = true;
  v.data_write = true;
  v.haddr = 0xFF;
  v.hwdata = 0xFF00FF00;
  analyzer.post_cycle(v);
  analyzer.post_cycle(v);
  EXPECT_GT(analyzer.total_energy(), 0.0);
}

TEST(Estimator, PaperRigKernelActivityPerCycle) {
  // Pins the scheduler's work on the estimator + monitor rig. Clock edges
  // cost no process activation and no timed notification: a clock driven
  // by a process of its own would add one activation at initialization
  // and one per edge (1999 in 1000 cycles), i.e. 2 per cycle.
  PowerBench b;
  ahb::BusMonitor mon(&b.top, "monitor", b.bus);
  b.run_cycles(1000);
  const sim::Kernel::Stats& st = b.kernel.stats();
  EXPECT_EQ(st.processes_executed, 12525u);
  EXPECT_EQ(st.time_advances, 1999u);
  EXPECT_EQ(st.timed_notifications, 0u);
  EXPECT_EQ(b.kernel.delta_count(), 5491u);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(CycleStream, ExtraSubscribersAddNoProcessActivations) {
  // The analyzer, the recorder, the gate-level cross-check and the
  // governor all read the bus's one sample inside its sampling process:
  // none runs a process of its own.
  std::uint64_t alone = 0;
  {
    PowerBench b;
    b.run_cycles(1000);
    alone = b.kernel.stats().processes_executed;
  }
  PowerBench b;
  GlobalPowerAnalyzer analyzer(
      &b.top, "analyzer",
      PowerFsm::Config{.n_masters = b.bus.n_masters(), .n_slaves = b.bus.n_slaves()});
  b.bus.subscribe(analyzer);
  ahb::TraceRecorder recorder(&b.top, "recorder", b.bus);
  GateLevelCrossCheck cosim(&b.top, "cosim", b.bus);
  PowerGovernor governor(&b.top, "governor", *b.est, PowerGovernor::Config{});
  b.run_cycles(1000);

  EXPECT_EQ(b.kernel.stats().processes_executed, alone);
  const std::uint64_t cycles = b.est->fsm().cycles();
  EXPECT_EQ(analyzer.fsm().cycles(), cycles);
  EXPECT_EQ(cosim.cycles(), cycles);
  EXPECT_EQ(governor.stats().windows, cycles / 32);
  EXPECT_GT(recorder.trace().size(), 0u);
}

/// Counts its views into a counter that outlives it.
struct CountingSubscriber : ahb::CycleSubscriber {
  explicit CountingSubscriber(std::uint64_t& n) : posts(n) {}
  void post_cycle(const ahb::CycleView&) override { ++posts; }
  std::uint64_t& posts;
};

TEST(CycleStream, DestroyedSubscriberStopsWhileOthersGoOn) {
  PowerBench b;  // the estimator subscribes first and creates the tap
  std::uint64_t first_posts = 0;
  std::uint64_t second_posts = 0;
  auto first = std::make_unique<CountingSubscriber>(first_posts);
  CountingSubscriber second(second_posts);
  b.bus.subscribe(*first);
  b.bus.subscribe(second);
  EXPECT_THROW(b.bus.subscribe(second), sim::SimError);
  b.run_cycles(100);
  const std::uint64_t seen = first_posts;
  EXPECT_EQ(seen, b.est->fsm().cycles());

  first.reset();
  b.run_cycles(100);
  EXPECT_EQ(first_posts, seen);
  EXPECT_EQ(second_posts, b.est->fsm().cycles());

  // The subscriber that created the tap can leave too.
  const std::uint64_t before = second_posts;
  b.est.reset();
  b.run_cycles(100);
  EXPECT_EQ(second_posts, before + 100);
}

TEST(CycleStream, SubscriberMayOutliveItsBus) {
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10));
  std::uint64_t posts = 0;
  CountingSubscriber sub(posts);
  {
    AhbBus bus(&top, "ahb", clk);
    DefaultMaster dm(&top, "dm", bus);
    EXPECT_THROW(bus.subscribe(sub), sim::SimError);  // not finalized
    bus.finalize();
    bus.subscribe(sub);
    k.run(sim::SimTime::ns(100));
  }
  EXPECT_GT(posts, 0u);
  // `sub` is destroyed after its bus; it must not detach from it.
}

}  // namespace
}  // namespace ahbp::power
