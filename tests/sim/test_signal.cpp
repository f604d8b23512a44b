// Unit tests for Signal<T>: evaluate/update semantics, change events,
// and edge events.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ahbp::sim {
namespace {

TEST(Signal, InitialValue) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 42);
  EXPECT_EQ(s.read(), 42);
}

TEST(Signal, WriteTakesEffectNextDelta) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  int observed_during_eval = -1;
  Method writer(&top, "w", [&] {
    s.write(7);
    observed_during_eval = s.read();  // old value: update not applied yet
  });
  k.run();
  EXPECT_EQ(observed_during_eval, 0);
  EXPECT_EQ(s.read(), 7);
}

TEST(Signal, LastWriteInEvaluationWins) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  Method writer(&top, "w", [&] {
    s.write(1);
    s.write(2);
    s.write(3);
  });
  k.run();
  EXPECT_EQ(s.read(), 3);
}

TEST(Signal, ChangeEventFiresOnChange) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  int changes = 0;
  Method obs(&top, "obs", [&] { ++changes; });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  Method writer(&top, "w", [&] { s.write(5); });
  k.run();
  EXPECT_EQ(changes, 1);
}

TEST(Signal, NoEventWhenValueUnchanged) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 5);
  int changes = 0;
  Method obs(&top, "obs", [&] { ++changes; });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  Method writer(&top, "w", [&] { s.write(5); });
  k.run();
  EXPECT_EQ(changes, 0);
}

TEST(Signal, WriteThenRestoreIsNoEvent) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 5);
  int changes = 0;
  Method obs(&top, "obs", [&] { ++changes; });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  Method writer(&top, "w", [&] {
    s.write(9);
    s.write(5);  // restore before update: net no-change
  });
  k.run();
  EXPECT_EQ(changes, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, WriteThenRestoreLeavesUpdateMachineryClean) {
  // Regression for the write-then-restore path: the queued update
  // degrades to a no-op in apply_update(), and the signal must then
  // behave normally -- a real change in a later evaluation phase of the
  // same timestep still fires exactly one event.
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 5);
  Event again(&top, "again");
  int changes = 0;
  Method obs(&top, "obs", [&] { ++changes; });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  Method writer(&top, "w", [&] {
    s.write(9);
    s.write(5);  // restore: queued update becomes a no-op
    again.notify_delta();
  });
  Method second(&top, "w2", [&] { s.write(6); });  // later delta, same time
  second.sensitive(again).dont_initialize();
  k.run();
  EXPECT_EQ(changes, 1);  // only the real 5 -> 6 change fired
  EXPECT_EQ(s.read(), 6);
  EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Signal, PosedgeAndNegedgeEvents) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<bool> s(&top, "s", false);
  Event step(&top, "step");
  int pos = 0, neg = 0;
  Method obs_p(&top, "p", [&] { ++pos; });
  obs_p.sensitive(s.posedge_event()).dont_initialize();
  Method obs_n(&top, "n", [&] { ++neg; });
  obs_n.sensitive(s.negedge_event()).dont_initialize();
  int phase = 0;
  Method writer(&top, "w", [&] {
    if (phase == 0) {
      s.write(true);
    } else if (phase == 1) {
      s.write(false);
    }
    ++phase;
    if (phase < 3) step.notify(SimTime::ns(1));
  });
  writer.sensitive(step);
  k.run();
  EXPECT_EQ(pos, 1);
  EXPECT_EQ(neg, 1);
}

TEST(Signal, OnlyBoolSignalsOwnEdgeEvents) {
  Kernel k;
  Module top(nullptr, "top");
  const std::size_t before = k.objects().size();
  Signal<int> word(&top, "word");
  EXPECT_EQ(k.objects().size(), before + 2);  // signal + value-changed event
  Signal<bool> bit(&top, "bit");
  EXPECT_EQ(k.objects().size(), before + 6);  // + changed, pos and neg events
}

TEST(Signal, UnheardChangeStillOverridesPendingTimedNotification) {
  // A value change notifies the changed event as a delta notification even
  // with no subscriber when the event has a timed notification pending, so
  // that notification is overridden and never fires later.
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  s.value_changed_event().notify(SimTime::ns(100));
  Method w(&top, "w", [&] { s.write(1); });
  bool woken = false;
  Thread t(&top, "t", [&]() -> Task {
    co_await wait(SimTime::ns(50));
    co_await wait(s.value_changed_event());
    woken = true;
  });
  k.run(SimTime::ns(200));
  EXPECT_EQ(s.read(), 1);
  EXPECT_FALSE(s.value_changed_event().pending());
  EXPECT_FALSE(woken);
}

TEST(Signal, EventQueryTrueRightAfterChange) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  bool saw_event = false;
  Method obs(&top, "obs", [&] { saw_event = s.event(); });
  obs.sensitive(s.value_changed_event()).dont_initialize();
  Method writer(&top, "w", [&] { s.write(1); });
  k.run();
  EXPECT_TRUE(saw_event);
  EXPECT_FALSE(s.event());  // stale outside the notification delta
}

TEST(Signal, StringPayload) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<std::string> s(&top, "s", "idle");
  Method writer(&top, "w", [&] { s.write("busy"); });
  k.run();
  EXPECT_EQ(s.read(), "busy");
}

TEST(Signal, ChainedSignalsPropagateOverDeltas) {
  // a -> b -> c combinational chain settles within one timestep.
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> a(&top, "a", 0), b(&top, "b", 0), c(&top, "c", 0);
  Method m_ab(&top, "ab", [&] { b.write(a.read() + 1); });
  m_ab.sensitive(a.value_changed_event());
  Method m_bc(&top, "bc", [&] { c.write(b.read() + 1); });
  m_bc.sensitive(b.value_changed_event());
  Method stim(&top, "stim", [&] { a.write(10); });
  stim.dont_initialize();
  Event go(&top, "go");
  stim.sensitive(go);
  go.notify(SimTime::ns(1));
  k.run();
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(c.read(), 12);
  EXPECT_EQ(k.now(), SimTime::ns(1));
}

}  // namespace
}  // namespace ahbp::sim
