#include "sim/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "sim/clock.hpp"
#include "sim/event.hpp"
#include "sim/object.hpp"
#include "sim/process.hpp"
#include "sim/report.hpp"
#include "sim/signal.hpp"

namespace ahbp::sim {

thread_local Kernel* Kernel::current_ = nullptr;
thread_local RunBudget Kernel::thread_default_budget_{};
thread_local const std::atomic<bool>* Kernel::thread_default_cancel_ = nullptr;

Kernel::Kernel() {
  if (current_ != nullptr) {
    throw SimError("only one Kernel may be alive at a time per thread");
  }
  current_ = this;
  budget_ = thread_default_budget_;
  cancel_flag_ = thread_default_cancel_;
}

Kernel::~Kernel() { current_ = nullptr; }

Kernel& Kernel::current() {
  if (current_ == nullptr) throw SimError("no Kernel is alive on this thread");
  return *current_;
}

Kernel* Kernel::current_or_null() { return current_; }

namespace {
template <typename T>
void erase_value(std::vector<T*>& v, T* value) {
  v.erase(std::remove(v.begin(), v.end(), value), v.end());
}
}  // namespace

void Kernel::register_object(Object& o) { objects_.push_back(&o); }

void Kernel::unregister_object(Object& o) { erase_value(objects_, &o); }

void Kernel::register_process(Process& p) {
  processes_.push_back(&p);
  uninitialized_.push_back(&p);
}

void Kernel::unregister_process(Process& p) {
  erase_value(processes_, &p);
  erase_value(uninitialized_, &p);
  erase_value(runnable_, &p);
}

void Kernel::register_clock(Clock& c) { clocks_.push_back(&c); }

void Kernel::unregister_clock(Clock& c) { erase_value(clocks_, &c); }

void Kernel::schedule_timed(Event& e, SimTime abs_time, std::uint64_t stamp) {
  timed_queue_.push(TimedEntry{abs_time, timed_seq_++, &e, stamp});
}

void Kernel::add_timestep_callback(std::function<void()> cb) {
  timestep_callbacks_.push_back(std::move(cb));
}

void Kernel::initialize() {
  for (Clock* c : clocks_) {
    if (!c->started_) c->start();
  }
  for (Process* p : uninitialized_) {
    if (p->initialize_) make_runnable(*p);
  }
  uninitialized_.clear();
}

void Kernel::do_delta() {
  // --- evaluate ---------------------------------------------------------
  // Processes made runnable during this phase (immediate notifications)
  // also run in it, so iterate by index.
  for (std::size_t i = 0; i < runnable_.size(); ++i) {
    Process* p = runnable_[i];
    p->in_runnable_ = false;
    p->execute();
  }
  stats_.processes_executed += runnable_.size();
  runnable_.clear();

  // --- update -----------------------------------------------------------
  // Applying a signal's new value may queue its value-changed event as a
  // delta notification (handled below). The queue is swapped into a
  // member scratch buffer so both vectors keep their capacity across
  // deltas -- this loop runs every simulated cycle.
  update_scratch_.clear();
  update_scratch_.swap(update_queue_);
  for (SignalBase* s : update_scratch_) s->apply_update();

  // --- delta notification ------------------------------------------------
  delta_scratch_.clear();
  delta_scratch_.swap(delta_queue_);
  for (Event* e : delta_scratch_) {
    if (e->pending_ != Event::Pending::kDelta) continue;  // cancelled
    e->pending_ = Event::Pending::kNone;
    e->trigger();
  }
  ++delta_count_;
}

void Kernel::fire_timestep_callbacks() {
  for (const auto& cb : timestep_callbacks_) cb();
}

void Kernel::set_thread_defaults(const RunBudget& budget,
                                 const std::atomic<bool>* cancel_flag) {
  thread_default_budget_ = budget;
  thread_default_cancel_ = cancel_flag;
}

void Kernel::clear_thread_defaults() {
  thread_default_budget_ = RunBudget{};
  thread_default_cancel_ = nullptr;
}

std::vector<std::string> Kernel::blocked_processes() const {
  std::vector<std::string> blocked;
  for (const Process* p : processes_) {
    if (p->done() || p->in_runnable_) continue;
    if (std::strcmp(p->kind(), "thread") != 0) continue;
    blocked.push_back(p->full_name());
  }
  return blocked;
}

std::string Kernel::watchdog_context() const {
  std::string msg = " at t=" + now_.to_string() + " (" +
                    std::to_string(stats_.time_advances) + " time advances, " +
                    std::to_string(stats_.processes_executed) +
                    " process activations)";
  const std::vector<std::string> blocked = blocked_processes();
  if (!blocked.empty()) {
    msg += "; waiting processes:";
    for (const std::string& name : blocked) msg += " " + name;
  }
  return msg;
}

void Kernel::run(SimTime duration) {
  const SimTime end =
      duration == SimTime::max() ? SimTime::max() : now_ + duration;
  initialize();
  running_ = true;
  stop_requested_ = false;

  // Watchdog bookkeeping: absolute thresholds computed once so the loop
  // pays a single compare per limit. The wall clock is only sampled when
  // a deadline is armed, and then only every 1024 time advances.
  const std::uint64_t event_limit =
      budget_.max_events != 0 ? stats_.processes_executed + budget_.max_events
                              : UINT64_MAX;
  const std::uint64_t cycle_limit =
      budget_.max_cycles != 0 ? stats_.time_advances + budget_.max_cycles
                              : UINT64_MAX;
  const bool wall_limited = budget_.max_wall_seconds > 0.0;
  const auto wall_start = wall_limited ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
  std::uint64_t wall_check = 0;

  while (!stop_requested_) {
    if (!runnable_.empty() || !delta_queue_.empty() || !update_queue_.empty()) {
      do_delta();
      if (stats_.processes_executed >= event_limit) {
        running_ = false;
        throw BudgetExceededError("max-event budget (" +
                                  std::to_string(budget_.max_events) +
                                  " activations) exhausted" +
                                  watchdog_context());
      }
      continue;
    }
    // Time advance: settled values at the current time are final.
    fire_timestep_callbacks();
    SimTime next = timed_queue_.empty() ? SimTime::max() : timed_queue_.top().time;
    for (const Clock* c : clocks_) next = std::min(next, c->next_edge_);
    if (next == SimTime::max()) {
      // Genuine quiesce: nothing can ever run again. With deadlock
      // diagnosis armed, threads still suspended here are waiting on
      // events that can no longer fire.
      if (budget_.fail_on_deadlock) {
        const std::vector<std::string> blocked = blocked_processes();
        if (!blocked.empty()) {
          running_ = false;
          throw DeadlockError("deadlock: event queues drained with " +
                              std::to_string(blocked.size()) +
                              " thread process(es) still suspended" +
                              watchdog_context());
        }
      }
      break;
    }
    if (next > end) break;
    if (stats_.time_advances >= cycle_limit) {
      running_ = false;
      throw BudgetExceededError("max-cycle budget (" +
                                std::to_string(budget_.max_cycles) +
                                " time advances) exhausted" +
                                watchdog_context());
    }
    if (cancel_flag_ != nullptr &&
        cancel_flag_->load(std::memory_order_relaxed)) {
      running_ = false;
      throw RunCancelledError("run cancelled" + watchdog_context());
    }
    if (wall_limited && (++wall_check & 1023u) == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (elapsed >= budget_.max_wall_seconds) {
        running_ = false;
        throw BudgetExceededError(
            "wall-deadline budget (" +
            std::to_string(budget_.max_wall_seconds) + " s) exhausted" +
            watchdog_context());
      }
    }
    now_ = next;
    ++stats_.time_advances;
    // Clock edges first: their writes land in this instant's first update
    // phase, one delta before the edge events wake their subscribers.
    for (Clock* c : clocks_) {
      if (c->next_edge_ == now_) c->edge();
    }
    // Trigger every valid event scheduled for this instant.
    while (!timed_queue_.empty() && timed_queue_.top().time == now_) {
      const TimedEntry entry = timed_queue_.top();
      timed_queue_.pop();
      Event* e = entry.event;
      if (e->pending_ != Event::Pending::kTimed || e->stamp_ != entry.stamp) {
        continue;  // cancelled or overridden
      }
      e->pending_ = Event::Pending::kNone;
      e->trigger();
      ++stats_.timed_notifications;
    }
  }

  // sc_start-style semantics: a bounded run leaves time at exactly
  // start + duration even if activity drained earlier.
  if (end != SimTime::max() && now_ < end && !stop_requested_) now_ = end;
  fire_timestep_callbacks();
  running_ = false;
}

}  // namespace ahbp::sim
