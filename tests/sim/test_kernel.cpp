// Unit tests for the scheduler: event notification semantics, delta
// cycles, method processes and the evaluate/update protocol.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ahbp::sim {
namespace {

TEST(Kernel, OnlyOneAlive) {
  Kernel k;
  EXPECT_THROW(Kernel{}, SimError);
}

TEST(Kernel, CurrentTracksLifetime) {
  EXPECT_EQ(Kernel::current_or_null(), nullptr);
  {
    Kernel k;
    EXPECT_EQ(&Kernel::current(), &k);
  }
  EXPECT_EQ(Kernel::current_or_null(), nullptr);
  EXPECT_THROW((void)Kernel::current(), SimError);
}

TEST(Kernel, ObjectWithoutKernelThrows) {
  EXPECT_THROW(Module(nullptr, "orphan"), SimError);
}

TEST(Kernel, MethodsRunOnceAtInitialization) {
  Kernel k;
  Module top(nullptr, "top");
  int runs = 0;
  Method m(&top, "m", [&] { ++runs; });
  k.run();
  EXPECT_EQ(runs, 1);
}

TEST(Kernel, DontInitializeSuppressesFirstRun) {
  Kernel k;
  Module top(nullptr, "top");
  int runs = 0;
  Method m(&top, "m", [&] { ++runs; });
  m.dont_initialize();
  k.run();
  EXPECT_EQ(runs, 0);
}

TEST(Kernel, TimedNotificationAdvancesTime) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  SimTime seen = SimTime::max();
  Method m(&top, "m", [&] { seen = k.now(); });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::ns(25));
  k.run();
  EXPECT_EQ(seen, SimTime::ns(25));
  EXPECT_EQ(k.now(), SimTime::ns(25));
}

TEST(Kernel, BoundedRunAdvancesToExactlyTheBound) {
  Kernel k;
  Module top(nullptr, "top");
  k.run(SimTime::us(3));
  EXPECT_EQ(k.now(), SimTime::us(3));
}

TEST(Kernel, BoundedRunDoesNotExecuteEventsBeyondBound) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  int runs = 0;
  Method m(&top, "m", [&] { ++runs; });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::ns(100));
  k.run(SimTime::ns(50));
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(k.now(), SimTime::ns(50));
  k.run(SimTime::ns(50));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(k.now(), SimTime::ns(100));
}

TEST(Kernel, DeltaNotificationRunsAtSameTime) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  std::vector<std::uint64_t> deltas;
  Method producer(&top, "p", [&] { ev.notify_delta(); });
  Method consumer(&top, "c", [&] { deltas.push_back(k.delta_count()); });
  consumer.sensitive(ev).dont_initialize();
  k.run();
  EXPECT_EQ(k.now(), SimTime::zero());
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_GE(deltas[0], 1u);  // ran in a later delta than the producer
}

TEST(Kernel, ImmediateNotificationRunsInSameEvaluation) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  std::uint64_t producer_delta = ~0ull, consumer_delta = ~0ull;
  Method consumer(&top, "c", [&] { consumer_delta = k.delta_count(); });
  consumer.sensitive(ev).dont_initialize();
  Method producer(&top, "p", [&] {
    producer_delta = k.delta_count();
    ev.notify();
  });
  k.run();
  EXPECT_EQ(consumer_delta, producer_delta);
}

TEST(Kernel, TimedEventsAtSameInstantAllFire) {
  Kernel k;
  Module top(nullptr, "top");
  Event a(&top, "a"), b(&top, "b");
  int fired = 0;
  Method ma(&top, "ma", [&] { ++fired; });
  ma.sensitive(a).dont_initialize();
  Method mb(&top, "mb", [&] { ++fired; });
  mb.sensitive(b).dont_initialize();
  a.notify(SimTime::ns(5));
  b.notify(SimTime::ns(5));
  k.run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, EventCancelSuppressesNotification) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  int fired = 0;
  Method m(&top, "m", [&] { ++fired; });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::ns(5));
  ev.cancel();
  k.run();
  EXPECT_EQ(fired, 0);
}

TEST(Kernel, EarlierTimedNotifyOverridesLater) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  std::vector<SimTime> fires;
  Method m(&top, "m", [&] { fires.push_back(k.now()); });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::ns(50));
  ev.notify(SimTime::ns(10));  // earlier: overrides
  k.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], SimTime::ns(10));
}

TEST(Kernel, LaterTimedNotifyIsIgnoredWhilePending) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  std::vector<SimTime> fires;
  Method m(&top, "m", [&] { fires.push_back(k.now()); });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::ns(10));
  ev.notify(SimTime::ns(50));  // later: ignored
  k.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], SimTime::ns(10));
}

TEST(Kernel, DeltaOverridesPendingTimed) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  std::vector<SimTime> fires;
  Method m(&top, "m", [&] { fires.push_back(k.now()); });
  m.sensitive(ev).dont_initialize();
  Method kick(&top, "kick", [&] {
    ev.notify(SimTime::ns(50));
    ev.notify_delta();
  });
  k.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], SimTime::zero());
}

TEST(Kernel, StopEndsRun) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  int fired = 0;
  Method m(&top, "m", [&] {
    if (++fired == 3) {
      k.stop();
    } else {
      ev.notify(SimTime::ns(1));
    }
  });
  m.sensitive(ev);
  k.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(k.now(), SimTime::ns(2));
}

TEST(Kernel, RunnableDeduplication) {
  // A process sensitive to two events that fire in the same delta runs once.
  Kernel k;
  Module top(nullptr, "top");
  Event a(&top, "a"), b(&top, "b");
  int runs = 0;
  Method m(&top, "m", [&] { ++runs; });
  m.sensitive(a).sensitive(b).dont_initialize();
  a.notify(SimTime::ns(1));
  b.notify(SimTime::ns(1));
  k.run();
  EXPECT_EQ(runs, 1);
}

TEST(Kernel, FullNamesReflectHierarchy) {
  Kernel k;
  Module top(nullptr, "top");
  Module sub(&top, "bus");
  Event ev(&sub, "ev");
  EXPECT_EQ(ev.full_name(), "top.bus.ev");
  EXPECT_EQ(sub.full_name(), "top.bus");
  EXPECT_EQ(top.full_name(), "top");
  EXPECT_EQ(ev.parent(), &sub);
  ASSERT_EQ(top.children().size(), 1u);
  EXPECT_EQ(top.children()[0], &sub);
}

TEST(Kernel, ObjectsRegisterAndUnregister) {
  Kernel k;
  auto before = k.objects().size();
  {
    Module top(nullptr, "top");
    EXPECT_EQ(k.objects().size(), before + 1);
  }
  EXPECT_EQ(k.objects().size(), before);
}

TEST(Kernel, ZeroDelayTimedNotifyActsAsDelta) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  int fired = 0;
  Method m(&top, "m", [&] { ++fired; });
  m.sensitive(ev).dont_initialize();
  ev.notify(SimTime::zero());
  k.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, MethodExceptionPropagatesOutOfRun) {
  Kernel k;
  Module top(nullptr, "top");
  Method m(&top, "m", [] { throw SimError("boom"); });
  EXPECT_THROW(k.run(), SimError);
}

TEST(Kernel, MethodBuiltBetweenRunsInitializes) {
  Kernel k;
  Module top(nullptr, "top");
  k.run(SimTime::ns(10));
  int runs = 0;
  Method m(&top, "m", [&] { ++runs; });
  k.run(SimTime::ns(10));
  EXPECT_EQ(runs, 1);
  k.run(SimTime::ns(10));
  EXPECT_EQ(runs, 1);  // initialized once, not on every run()
}

TEST(Kernel, DontInitializeHonouredForMethodBuiltBetweenRuns) {
  Kernel k;
  Module top(nullptr, "top");
  k.run(SimTime::ns(10));
  Event ev(&top, "ev");
  std::vector<SimTime> seen;
  Method m(&top, "m", [&] { seen.push_back(k.now()); });
  m.sensitive(ev).dont_initialize();  // set after construction
  ev.notify(SimTime::ns(5));
  k.run(SimTime::ns(10));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], SimTime::ns(15));
}

TEST(Kernel, ClockEdgesRunNoProcess) {
  // The kernel drives clocks itself: the only activations are the
  // subscriber's, one per posedge.
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  int edges = 0;
  Method m(&top, "m", [&] { ++edges; });
  m.sensitive(clk.posedge_event()).dont_initialize();
  k.run(SimTime::ns(100));
  EXPECT_EQ(edges, 10);
  EXPECT_EQ(k.stats().processes_executed, 10u);
  EXPECT_EQ(k.stats().timed_notifications, 0u);
  EXPECT_EQ(k.stats().time_advances, 19u);  // edges at 10, 15, ..., 100 ns
}

TEST(Reporter, ErrorsThrowAndCount) {
  Reporter::reset_counts();
  EXPECT_THROW(Reporter::report(Severity::kError, "T", "bad"), SimError);
  EXPECT_EQ(Reporter::counts().error, 1u);
  Reporter::report(Severity::kWarning, "T", "careful");
  EXPECT_EQ(Reporter::counts().warning, 1u);
  Reporter::reset_counts();
  EXPECT_EQ(Reporter::counts().error, 0u);
}

}  // namespace
}  // namespace ahbp::sim
