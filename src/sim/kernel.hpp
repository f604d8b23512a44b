#pragma once
// The discrete-event scheduler.
//
// Implements the classic SystemC evaluate/update/delta-notify cycle:
//
//   1. evaluate : run every runnable process (writes are buffered)
//   2. update   : apply buffered signal writes; changed signals queue
//                 their value-changed events as delta notifications
//   3. notify   : trigger delta-queued events, making processes runnable
//                 for the next delta cycle at the same time
//   4. advance  : when no process is runnable, jump to the earliest of
//                 the next timed notification and the next clock edge;
//                 write the clocks that edge there (applied in that
//                 instant's first update phase) and trigger the events
//
// Signals only queue the notifications somebody listens to, and clocks
// are driven by the kernel rather than by a process per clock, so a clock
// edge costs no process activation; the hot loop reuses its queues and
// allocates nothing the modelled design does not ask for.
//
// One Kernel instance is alive *per thread* (enforced); top-level objects
// attach to Kernel::current(), which is thread-local. Independent
// simulations may therefore run concurrently, one kernel per
// std::jthread -- the contract the campaign runner (src/campaign/)
// builds on. A single Kernel and the objects attached to it must only
// ever be touched from the thread that constructed it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/report.hpp"
#include "sim/time.hpp"

namespace ahbp::sim {

class Object;
class Clock;
class Event;
class SignalBase;

/// Execution budget enforced by Kernel::run() -- the watchdog that keeps
/// a hung or runaway simulation from stalling its hosting thread forever
/// (the campaign runner's per-RunSpec guard; see src/campaign/).
///
/// All limits are zero-initialized to "unlimited"; enforcing them costs
/// one integer compare per delta / time advance, so an unlimited budget
/// is free on the hot path. Limits count from the start of each run()
/// call, not from kernel construction.
struct RunBudget {
  /// Max distinct simulated instants (time advances); 0 = unlimited.
  std::uint64_t max_cycles = 0;
  /// Max process activations (catches delta storms too); 0 = unlimited.
  std::uint64_t max_events = 0;
  /// Wall-clock deadline for one run() call in seconds; 0 = unlimited.
  /// Checked every 1024 time advances, so enforcement lags by up to one
  /// check interval.
  double max_wall_seconds = 0.0;
  /// When true, a run() that drains its event queues while coroutine
  /// processes are still suspended (waiting on events that can never
  /// fire) throws DeadlockError naming the blocked set instead of
  /// returning as if the simulation had finished.
  bool fail_on_deadlock = false;

  [[nodiscard]] bool limited() const {
    return max_cycles != 0 || max_events != 0 || max_wall_seconds > 0.0 ||
           fail_on_deadlock;
  }
};

/// Thrown by Kernel::run() when a RunBudget limit is hit. The message
/// names the exhausted limit, the simulated time reached and the set of
/// still-waiting thread processes.
class BudgetExceededError : public SimError {
public:
  explicit BudgetExceededError(const std::string& what) : SimError(what) {}
};

/// Thrown by Kernel::run() when the cooperative cancel flag (see
/// Kernel::set_cancel_flag) is observed set.
class RunCancelledError : public SimError {
public:
  explicit RunCancelledError(const std::string& what) : SimError(what) {}
};

/// Thrown by Kernel::run() on deadlock diagnosis (RunBudget::
/// fail_on_deadlock): no runnable or pending events remain but thread
/// processes are still suspended.
class DeadlockError : public SimError {
public:
  explicit DeadlockError(const std::string& what) : SimError(what) {}
};

/// The simulation scheduler and object registry.
class Kernel {
public:
  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// The kernel top-level objects attach to. Fatal if none is alive on
  /// the calling thread.
  [[nodiscard]] static Kernel& current();
  /// Nullptr-safe variant of current().
  [[nodiscard]] static Kernel* current_or_null();

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }
  /// Number of delta cycles executed so far.
  [[nodiscard]] std::uint64_t delta_count() const { return delta_count_; }

  /// Scheduler activity counters, maintained on the hot path at the
  /// cost of one increment each -- the kernel's own observability feed
  /// (exported as `sim.*` metrics by the CLI's --telemetry mode).
  struct Stats {
    std::uint64_t processes_executed = 0;  ///< process activations
    std::uint64_t timed_notifications = 0; ///< timed events triggered
                                           ///< (clock edges excluded)
    std::uint64_t time_advances = 0;       ///< distinct simulated instants
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Runs the simulation for `duration` (default: until no activity
  /// remains). Every process and clock constructed since the previous
  /// run() is initialized first: processes run once unless marked
  /// dont_initialize(), clocks start their waveform at now(). On return,
  /// now() has advanced to start + duration, or to the last activity if
  /// the event queues drained first (or if duration is SimTime::max()).
  void run(SimTime duration = SimTime::max());

  /// Requests run() to return after the current delta cycle completes.
  void stop() { stop_requested_ = true; }

  /// True while inside run() -- processes can check this.
  [[nodiscard]] bool running() const { return running_; }

  /// @name Watchdog: budgets, cancellation and deadlock diagnosis
  ///@{
  /// Budget applied to subsequent run() calls. A freshly constructed
  /// kernel inherits the thread default (see set_thread_defaults).
  void set_budget(const RunBudget& b) { budget_ = b; }
  [[nodiscard]] const RunBudget& budget() const { return budget_; }

  /// Cooperative cancellation: run() polls `flag` once per time advance
  /// and throws RunCancelledError when it reads true. The flag is not
  /// owned and must outlive every run() call; nullptr disables polling.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// Ambient per-thread defaults picked up by every Kernel constructed
  /// on the calling thread afterwards -- how the campaign runner imposes
  /// a budget on a RunSpec that builds its own kernel internally.
  /// clear_thread_defaults() restores the unlimited defaults.
  static void set_thread_defaults(const RunBudget& budget,
                                  const std::atomic<bool>* cancel_flag);
  static void clear_thread_defaults();

  /// Thread processes that are neither done nor runnable -- the set a
  /// deadlocked simulation is blocked on. Hierarchical names, in
  /// construction order.
  [[nodiscard]] std::vector<std::string> blocked_processes() const;
  ///@}

  /// Registers a callback invoked whenever simulated time is about to
  /// advance (all deltas at the current time done) and once when run()
  /// returns. Used by the VCD tracer to sample settled values.
  void add_timestep_callback(std::function<void()> cb);

  /// All objects currently registered, in construction order.
  [[nodiscard]] const std::vector<Object*>& objects() const { return objects_; }

  /// @name Internal interfaces (used by Object/Event/Process/Signal)
  ///@{
  void register_object(Object& o);
  void unregister_object(Object& o);
  void register_process(Process& p);
  void unregister_process(Process& p);
  void register_clock(Clock& c);
  void unregister_clock(Clock& c);
  void make_runnable(Process& p) {
    if (p.in_runnable_ || p.done_) return;
    p.in_runnable_ = true;
    runnable_.push_back(&p);
  }
  void schedule_delta(Event& e) { delta_queue_.push_back(&e); }
  void schedule_timed(Event& e, SimTime abs_time, std::uint64_t stamp);
  void request_update(SignalBase& s) { update_queue_.push_back(&s); }
  ///@}

private:
  /// Initializes the processes and clocks constructed since the last
  /// run(): starts each clock and makes each process runnable unless it
  /// asked for dont_initialize().
  void initialize();
  /// Runs eval/update/notify once.
  void do_delta();
  void fire_timestep_callbacks();

  struct TimedEntry {
    SimTime time;
    std::uint64_t seq;  ///< FIFO order among equal times
    Event* event;
    std::uint64_t stamp;
    bool operator>(const TimedEntry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// Builds the "budget exhausted at ..." diagnosis shared by every
  /// watchdog throw site (simulated time, counters, blocked set).
  [[nodiscard]] std::string watchdog_context() const;

  SimTime now_;
  std::uint64_t delta_count_ = 0;
  Stats stats_;
  std::uint64_t timed_seq_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;

  RunBudget budget_;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  static thread_local RunBudget thread_default_budget_;
  static thread_local const std::atomic<bool>* thread_default_cancel_;

  std::vector<Object*> objects_;
  std::vector<Process*> processes_;
  std::vector<Process*> uninitialized_;  ///< registered since the last run()
  std::vector<Clock*> clocks_;
  std::vector<Process*> runnable_;
  std::vector<Event*> delta_queue_;
  std::vector<SignalBase*> update_queue_;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>> timed_queue_;
  std::vector<std::function<void()>> timestep_callbacks_;

  /// Scratch buffers swapped with update_queue_/delta_queue_ each delta
  /// so the hot loop reuses capacity instead of allocating per cycle.
  std::vector<SignalBase*> update_scratch_;
  std::vector<Event*> delta_scratch_;

  static thread_local Kernel* current_;
};

}  // namespace ahbp::sim
