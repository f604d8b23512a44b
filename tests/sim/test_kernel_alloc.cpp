// Pins the scheduler's steady state as allocation-free: a clocked rig of
// methods, a signal chain and a thread waiting on posedge runs many
// cycles without one heap allocation. A separate executable, because it
// replaces the global operator new to count allocations.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include "campaign/testbench.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ahbp::sim {
namespace {

/// Clock + a registered counter (method on posedge), combinational logic
/// on its value (method on value change), a negedge sampler and a thread
/// that waits on posedge and toggles a flag.
struct Rig {
  Rig()
      : top(nullptr, "top"),
        clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10)),
        count(&top, "count", 0),
        parity(&top, "parity", false),
        flag(&top, "flag", false),
        reg(&top, "reg", [this] { count.write(count.read() + 1); }),
        comb(&top, "comb", [this] { parity.write((count.read() & 1) != 0); }),
        sample(&top, "sample", [this] { sampled += parity.read() ? 1 : 0; }),
        waiter(&top, "waiter", [this] { return body(); }) {
    reg.sensitive(clk.posedge_event()).dont_initialize();
    comb.sensitive(count.value_changed_event());
    sample.sensitive(clk.negedge_event()).dont_initialize();
  }

  Task body() {
    for (;;) {
      co_await wait(clk.posedge_event());
      flag.write(!flag.read());
      ++wakes;
    }
  }

  void run_cycles(std::int64_t n) { kernel.run(SimTime::ns(10) * n); }

  Kernel kernel;
  Module top;
  Clock clk;
  Signal<std::uint32_t> count;
  Signal<bool> parity;
  Signal<bool> flag;
  Method reg, comb, sample;
  Thread waiter;
  std::uint64_t sampled = 0;
  std::uint64_t wakes = 0;
};

TEST(KernelAlloc, SteadyStateCyclesAllocateNothing) {
  Rig rig;
  rig.run_cycles(100);  // warm-up: queues and subscriber lists reach capacity
  const std::uint64_t before = g_allocations.load();
  rig.run_cycles(10000);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(rig.count.read(), 10100u);
  EXPECT_EQ(rig.wakes, 10100u);
  EXPECT_EQ(rig.sampled, 5050u);
}

TEST(KernelAlloc, GuardedWaitsAllocateNothing) {
  // A thread that resumes at every fourth edge through wait_until(): the
  // guard is tested in place, no coroutine frame is created per wait.
  Kernel kernel;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  std::uint64_t edges = 0;
  std::uint64_t resumes = 0;
  Thread waiter(&top, "waiter", [&]() -> Task {
    for (;;) {
      co_await wait_until(clk.posedge_event(), [&] { return ++edges % 4 == 0; });
      ++resumes;
    }
  });
  kernel.run(SimTime::ns(10) * 100);  // warm-up
  const std::uint64_t before = g_allocations.load();
  kernel.run(SimTime::ns(10) * 10000);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(edges, 10100u);
  EXPECT_EQ(resumes, edges / 4);
}

TEST(KernelAlloc, BusTransfersAllocateNothing) {
  // The paper's testbench on two slaves: two traffic masters run
  // pipelined WRITE-READ tenures through the master transfer engine into
  // dense slave memory. After a warm-up that creates the coroutine
  // frames, no transfer, no first write to a word and no wait allocates.
  campaign::PaperTestbench tb(
      {.master_seeds = {1, 1}, .slaves = 2, .power = std::nullopt});
  tb.run_cycles(100);  // warm-up
  const std::uint64_t before = g_allocations.load();
  tb.run_cycles(10000);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(tb.masters[0]->stats().reads + tb.masters[1]->stats().reads, 4000u);
}

TEST(KernelAlloc, CounterSeesAllocations) {
  // Guards the test above against a counter that never counts.
  const std::uint64_t before = g_allocations.load();
  void* p = ::operator new(sizeof(std::uint64_t));
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

}  // namespace
}  // namespace ahbp::sim
