#include "sim/event.hpp"

#include <algorithm>

#include "sim/kernel.hpp"
#include "sim/process.hpp"
#include "sim/report.hpp"

namespace ahbp::sim {

Event::Event(Module* parent, std::string name) : Object(parent, std::move(name)) {}

Event::~Event() {
  // Sever both subscription directions: teardown order between an event
  // and its subscribers is not specified (a bench may destroy a slave's
  // signals before the bus mux that watches them), so whichever side
  // dies first must unhook itself from the survivor.
  for (Process* p : static_sensitive_) {
    auto& v = p->static_events_;
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
  }
  for (Process* p : dynamic_waiters_) p->dynamic_wait_event_ = nullptr;
}

void Event::notify() {
  // Immediate notification: fire now, and drop any pending notification
  // (immediate is the earliest possible, so it always overrides).
  pending_ = Pending::kNone;
  ++stamp_;
  trigger();
}

void Event::notify_delta() {
  if (pending_ == Pending::kDelta) return;  // already as early as possible
  // A pending timed notification is later than a delta one: override it.
  pending_ = Pending::kDelta;
  ++stamp_;
  kernel().schedule_delta(*this);
}

void Event::notify(SimTime delay) {
  if (delay <= SimTime::zero()) {
    notify_delta();
    return;
  }
  const SimTime abs = kernel().now() + delay;
  if (pending_ == Pending::kDelta) return;  // pending delta is earlier
  if (pending_ == Pending::kTimed && pending_time_ <= abs) return;
  pending_ = Pending::kTimed;
  pending_time_ = abs;
  ++stamp_;
  kernel().schedule_timed(*this, abs, stamp_);
}

void Event::cancel() {
  // Lazy cancellation: queued entries carry the stamp and are discarded
  // when popped if it no longer matches.
  pending_ = Pending::kNone;
  ++stamp_;
}

void Event::add_static(Process& p) { static_sensitive_.push_back(&p); }

void Event::remove_static(Process& p) {
  auto& v = static_sensitive_;
  v.erase(std::remove(v.begin(), v.end(), &p), v.end());
}

void Event::add_dynamic(Process& p) {
  dynamic_waiters_.push_back(&p);
  p.dynamic_wait_event_ = this;
}

void Event::remove_dynamic(Process& p) {
  auto& v = dynamic_waiters_;
  v.erase(std::remove(v.begin(), v.end(), &p), v.end());
  if (p.dynamic_wait_event_ == this) p.dynamic_wait_event_ = nullptr;
}

void Event::trigger() {
  for (Process* p : static_sensitive_) kernel().make_runnable(*p);
  // One-shot waiters are cleared in place, keeping the capacity for the
  // next wait. make_runnable only queues the process, so none of them can
  // re-subscribe while this loop runs.
  for (Process* p : dynamic_waiters_) {
    p->dynamic_wait_event_ = nullptr;
    kernel().make_runnable(*p);
  }
  dynamic_waiters_.clear();
}

}  // namespace ahbp::sim
