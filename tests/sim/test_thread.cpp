// Unit tests for coroutine Thread processes: timed waits, event waits,
// interleaving with signals, and termination.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ahbp::sim {
namespace {

/// A module hosting a simple thread used across several tests.
struct WaiterModule : Module {
  WaiterModule(Module* parent, std::string name)
      : Module(parent, std::move(name)),
        thread(this, "t", [this] { return body(); }) {}

  Task body() {
    timestamps.push_back(kernel().now());
    co_await wait(SimTime::ns(10));
    timestamps.push_back(kernel().now());
    co_await wait(SimTime::ns(5));
    timestamps.push_back(kernel().now());
  }

  std::vector<SimTime> timestamps;
  Thread thread;
};

TEST(Thread, TimedWaitsAdvanceTime) {
  Kernel k;
  Module top(nullptr, "top");
  WaiterModule w(&top, "w");
  k.run();
  ASSERT_EQ(w.timestamps.size(), 3u);
  EXPECT_EQ(w.timestamps[0], SimTime::zero());
  EXPECT_EQ(w.timestamps[1], SimTime::ns(10));
  EXPECT_EQ(w.timestamps[2], SimTime::ns(15));
  EXPECT_TRUE(w.thread.done());
}

TEST(Thread, PartialRunSuspendsAndResumes) {
  Kernel k;
  Module top(nullptr, "top");
  WaiterModule w(&top, "w");
  k.run(SimTime::ns(12));
  EXPECT_EQ(w.timestamps.size(), 2u);
  EXPECT_FALSE(w.thread.done());
  k.run(SimTime::ns(12));
  EXPECT_EQ(w.timestamps.size(), 3u);
  EXPECT_TRUE(w.thread.done());
}

struct EventWaiter : Module {
  EventWaiter(Module* parent, std::string name, Event& ev)
      : Module(parent, std::move(name)),
        ev_(ev),
        thread(this, "t", [this] { return body(); }) {}

  Task body() {
    while (true) {
      co_await wait(ev_);
      ++wakes;
      last_wake = kernel().now();
    }
  }

  Event& ev_;
  int wakes = 0;
  SimTime last_wake;
  Thread thread;
};

TEST(Thread, EventWaitWakesOncePerTrigger) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  EventWaiter w(&top, "w", ev);
  ev.notify(SimTime::ns(3));
  k.run();
  EXPECT_EQ(w.wakes, 1);
  EXPECT_EQ(w.last_wake, SimTime::ns(3));
  ev.notify(SimTime::ns(4));
  k.run();
  EXPECT_EQ(w.wakes, 2);
  EXPECT_EQ(w.last_wake, SimTime::ns(7));
}

struct ClockedCounter : Module {
  ClockedCounter(Module* parent, std::string name, Clock& clk, int limit)
      : Module(parent, std::move(name)),
        clk_(clk),
        limit_(limit),
        thread(this, "t", [this] { return body(); }) {}

  Task body() {
    while (count < limit_) {
      co_await wait(clk_.posedge_event());
      ++count;
      edge_times.push_back(kernel().now());
    }
  }

  Clock& clk_;
  int limit_;
  int count = 0;
  std::vector<SimTime> edge_times;
  Thread thread;
};

TEST(Thread, WaitOnClockEdges) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  ClockedCounter c(&top, "c", clk, 4);
  k.run(SimTime::ns(100));
  EXPECT_EQ(c.count, 4);
  ASSERT_EQ(c.edge_times.size(), 4u);
  EXPECT_EQ(c.edge_times[0], SimTime::ns(10));
  EXPECT_EQ(c.edge_times[1], SimTime::ns(20));
  EXPECT_EQ(c.edge_times[3], SimTime::ns(40));
}

TEST(Thread, WaitUntilResumesOnceWhenTheGuardHolds) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  std::vector<std::pair<SimTime, unsigned>> resumes;  // (time, triggers)
  Thread t(&top, "t", [&]() -> Task {
    auto after_40ns = [&k] { return k.now() >= SimTime::ns(40); };
    unsigned n = co_await wait_until(clk.posedge_event(), after_40ns);
    resumes.emplace_back(k.now(), n);
    // The guard already holds: still at least one trigger.
    n = co_await wait_until(clk.posedge_event(), after_40ns);
    resumes.emplace_back(k.now(), n);
  });
  k.run(SimTime::ns(100));
  ASSERT_EQ(resumes.size(), 2u);
  EXPECT_EQ(resumes[0], std::make_pair(SimTime::ns(40), 4u));
  EXPECT_EQ(resumes[1], std::make_pair(SimTime::ns(50), 1u));
  EXPECT_TRUE(t.done());
  // The thread still executes at every edge it waits through: once at
  // initialization, then at 10, 20, 30, 40 and 50 ns.
  EXPECT_EQ(k.stats().processes_executed, 6u);
}

struct Producer : Module {
  Producer(Module* parent, std::string name, Signal<int>& out)
      : Module(parent, std::move(name)),
        out_(out),
        thread(this, "t", [this] { return body(); }) {}

  Task body() {
    for (int i = 1; i <= 3; ++i) {
      out_.write(i);
      co_await wait(SimTime::ns(10));
    }
  }

  Signal<int>& out_;
  Thread thread;
};

TEST(Thread, ProducerDrivesSignalOverTime) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  Producer p(&top, "p", s);
  std::vector<int> seen;
  Method obs(&top, "obs", [&] { seen.push_back(s.read()); });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  k.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

struct Thrower : Module {
  Thrower(Module* parent, std::string name)
      : Module(parent, std::move(name)),
        thread(this, "t", [this] { return body(); }) {}

  Task body() {
    co_await wait(SimTime::ns(1));
    throw SimError("thread failure");
  }

  Thread thread;
};

TEST(Thread, ExceptionPropagatesOutOfRun) {
  Kernel k;
  Module top(nullptr, "top");
  Thrower t(&top, "t");
  EXPECT_THROW(k.run(), SimError);
}

TEST(Thread, ZeroDelayWaitResumesSameTime) {
  Kernel k;
  Module top(nullptr, "top");
  std::vector<std::uint64_t> deltas;
  struct Z : Module {
    Z(Module* p, std::vector<std::uint64_t>& d)
        : Module(p, "z"), deltas(d), thread(this, "t", [this] { return body(); }) {}
    Task body() {
      deltas.push_back(kernel().delta_count());
      co_await wait(SimTime::zero());
      deltas.push_back(kernel().delta_count());
    }
    std::vector<std::uint64_t>& deltas;
    Thread thread;
  } z(&top, deltas);
  k.run();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_GT(deltas[1], deltas[0]);
  EXPECT_EQ(k.now(), SimTime::zero());
}

}  // namespace
}  // namespace ahbp::sim
