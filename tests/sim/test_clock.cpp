// Unit tests for the Clock waveform generator.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ahbp::sim {
namespace {

struct EdgeRecorder : Module {
  EdgeRecorder(Module* parent, Clock& clk)
      : Module(parent, "rec"),
        pos_(this, "pos", [this, &clk] { pos_times.push_back(kernel().now()); }),
        neg_(this, "neg", [this, &clk] { neg_times.push_back(kernel().now()); }) {
    pos_.sensitive(clk.posedge_event()).dont_initialize();
    neg_.sensitive(clk.negedge_event()).dont_initialize();
  }
  std::vector<SimTime> pos_times, neg_times;
  Method pos_, neg_;
};

TEST(Clock, PeriodicEdgesWithStartDelay) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  EdgeRecorder rec(&top, clk);
  k.run(SimTime::ns(45));
  // Posedges at 10, 20, 30, 40; negedges at 15, 25, 35 (45 not yet settled).
  ASSERT_GE(rec.pos_times.size(), 4u);
  EXPECT_EQ(rec.pos_times[0], SimTime::ns(10));
  EXPECT_EQ(rec.pos_times[1], SimTime::ns(20));
  EXPECT_EQ(rec.pos_times[2], SimTime::ns(30));
  EXPECT_EQ(rec.pos_times[3], SimTime::ns(40));
  ASSERT_GE(rec.neg_times.size(), 3u);
  EXPECT_EQ(rec.neg_times[0], SimTime::ns(15));
  EXPECT_EQ(rec.neg_times[1], SimTime::ns(25));
}

TEST(Clock, ZeroStartDelayRisesAtTimeZero) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10));
  EdgeRecorder rec(&top, clk);
  k.run(SimTime::ns(19));
  ASSERT_GE(rec.pos_times.size(), 2u);
  EXPECT_EQ(rec.pos_times[0], SimTime::zero());
  EXPECT_EQ(rec.pos_times[1], SimTime::ns(10));
}

TEST(Clock, ZeroStartDelayRisesInFirstDelta) {
  // The rise is applied in the first update phase at t=0: an initial
  // process still reads the low level, posedge subscribers run one delta
  // later.
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10));
  bool initial_level = true;
  Method init(&top, "init", [&] { initial_level = clk.read(); });
  std::vector<std::uint64_t> pos_deltas;
  bool edge_flag = false;
  Method pos(&top, "pos", [&] {
    if (pos_deltas.empty()) edge_flag = clk.signal().event();
    pos_deltas.push_back(k.delta_count());
  });
  pos.sensitive(clk.posedge_event()).dont_initialize();
  k.run(SimTime::ns(4));  // inside the first high phase (0..5)
  EXPECT_FALSE(initial_level);
  ASSERT_EQ(pos_deltas.size(), 1u);
  EXPECT_EQ(pos_deltas[0], 1u);
  EXPECT_TRUE(edge_flag);
  EXPECT_TRUE(clk.read());
}

TEST(Clock, TimedWaitOnEdgeWakesOneDeltaBeforePosedgeSubscribers) {
  // A thread whose timed wait ends on a clock edge runs in the edge's
  // first delta, before the new level is visible; posedge subscribers run
  // in the next delta.
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  std::uint64_t thread_delta = 0, pos_delta = 0;
  bool level_at_wake = true;
  Thread t(&top, "t", [&]() -> Task {
    co_await wait(SimTime::ns(20));
    thread_delta = k.delta_count();
    level_at_wake = clk.read();
  });
  Method pos(&top, "pos", [&] {
    if (k.now() == SimTime::ns(20)) pos_delta = k.delta_count();
  });
  pos.sensitive(clk.posedge_event()).dont_initialize();
  k.run(SimTime::ns(25));
  EXPECT_FALSE(level_at_wake);
  EXPECT_GT(thread_delta, 0u);
  EXPECT_EQ(pos_delta, thread_delta + 1);
}

TEST(Clock, BuiltBetweenRunsTicks) {
  Kernel k;
  Module top(nullptr, "top");
  k.run(SimTime::ns(50));
  Clock clk(&top, "clk", SimTime::ns(10));
  EdgeRecorder rec(&top, clk);
  k.run(SimTime::ns(50));
  // Starts at the run() that follows construction: rises at 50 ns.
  ASSERT_EQ(rec.pos_times.size(), 6u);  // 50, 60, ..., 100 ns
  EXPECT_EQ(rec.pos_times[0], SimTime::ns(50));
  EXPECT_EQ(rec.pos_times[5], SimTime::ns(100));
  EXPECT_EQ(rec.neg_times.size(), 5u);  // 55, ..., 95 ns
}

TEST(Clock, DestroyedClockStopsDrivingTime) {
  Kernel k;
  Module top(nullptr, "top");
  {
    Clock clk(&top, "clk", SimTime::ns(10));
    k.run(SimTime::ns(20));
  }
  k.run();  // nothing left to do: returns at once
  EXPECT_EQ(k.now(), SimTime::ns(20));
}

TEST(Clock, DutyCycleControlsHighTime) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.3, SimTime::ns(10));
  EdgeRecorder rec(&top, clk);
  k.run(SimTime::ns(25));
  ASSERT_GE(rec.pos_times.size(), 1u);
  ASSERT_GE(rec.neg_times.size(), 1u);
  EXPECT_EQ(rec.pos_times[0], SimTime::ns(10));
  EXPECT_EQ(rec.neg_times[0], SimTime::ns(13));  // 30% of 10 ns high
}

TEST(Clock, ReadTracksLevel) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  k.run(SimTime::ns(12));
  EXPECT_TRUE(clk.read());  // inside the high phase (10..15)
  k.run(SimTime::ns(5));
  EXPECT_FALSE(clk.read());  // inside the low phase (15..20)
}

TEST(Clock, InvalidParametersThrow) {
  Kernel k;
  Module top(nullptr, "top");
  EXPECT_THROW(Clock(&top, "c1", SimTime::zero()), SimError);
  EXPECT_THROW(Clock(&top, "c2", SimTime::ns(10), 0.0), SimError);
  EXPECT_THROW(Clock(&top, "c3", SimTime::ns(10), 1.0), SimError);
}

TEST(Clock, PeriodAccessor) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10));
  EXPECT_EQ(clk.period(), SimTime::ns(10));
}

}  // namespace
}  // namespace ahbp::sim
