#include "sim/process.hpp"

#include <algorithm>
#include <utility>

#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/report.hpp"

namespace ahbp::sim {

namespace {
thread_local Thread* g_current_thread = nullptr;
}  // namespace

Process::Process(Module* parent, std::string name) : Object(parent, std::move(name)) {
  kernel().register_process(*this);
}

Process::~Process() {
  // ~Event clears both lists below for whichever events died first, so
  // every pointer still present here is alive.
  if (dynamic_wait_event_) dynamic_wait_event_->remove_dynamic(*this);
  for (Event* ev : static_events_) ev->remove_static(*this);
  kernel().unregister_process(*this);
}

Process& Process::sensitive(Event& ev) {
  ev.add_static(*this);
  static_events_.push_back(&ev);
  return *this;
}

Process& Process::dont_initialize() {
  initialize_ = false;
  return *this;
}

Method::Method(Module* parent, std::string name, std::function<void()> fn)
    : Process(parent, std::move(name)), fn_(std::move(fn)) {
  if (!fn_) throw SimError("method '" + full_name() + "' constructed with empty body");
}

Thread::Thread(Module* parent, std::string name, std::function<Task()> body)
    : Process(parent, std::move(name)),
      body_(std::move(body)),
      wake_event_(new Event(parent, basename() + ".wake")) {
  if (!body_) throw SimError("thread '" + full_name() + "' constructed with empty body");
  // Timed waits are implemented by notifying the private wake event; the
  // thread is statically sensitive to it.
  sensitive(*wake_event_);
}

Thread::~Thread() {
  // The base Process destructor walks static_events_, so the wake event
  // must be unhooked from the sensitivity machinery before it is freed.
  wake_event_->remove_static(*this);
  static_events_.erase(
      std::remove(static_events_.begin(), static_events_.end(), wake_event_),
      static_events_.end());
  delete wake_event_;
}

Thread* Thread::current() { return g_current_thread; }

void Thread::arm_timed_wait(SimTime delay) {
  if (delay <= SimTime::zero()) {
    wake_event_->notify_delta();
  } else {
    wake_event_->notify(delay);
  }
}

void Thread::arm_guarded_wait(Event& ev, bool (*guard)(void*), void* ctx) {
  guard_ = guard;
  guard_ctx_ = ctx;
  guard_event_ = &ev;
  ev.add_dynamic(*this);
}

void Thread::execute() {
  if (done_) return;
  if (guard_ != nullptr) {
    if (!guard_(guard_ctx_)) {
      guard_event_->add_dynamic(*this);
      return;
    }
    guard_ = nullptr;
  }
  if (!started_) {
    started_ = true;
    task_ = body_();
  }
  Thread* const prev = g_current_thread;
  g_current_thread = this;
  task_.handle.resume();
  g_current_thread = prev;
  if (task_.handle.done()) {
    done_ = true;
    if (auto ex = task_.handle.promise().exception) std::rethrow_exception(ex);
  }
}

}  // namespace ahbp::sim
