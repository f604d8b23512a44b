#pragma once
// Processes: the kernel's units of execution.
//
// Two flavours are provided, mirroring SystemC:
//  * Method  -- a callback re-invoked from the top on every trigger
//               (SC_METHOD). Cheap; the workhorse for combinational logic.
//  * Thread  -- a C++20 coroutine that suspends with `co_await wait(...)`
//               and resumes where it left off (SC_THREAD). Natural for
//               sequential testbench masters.

#include <coroutine>
#include <exception>
#include <functional>
#include <string>
#include <utility>

#include "sim/object.hpp"
#include "sim/time.hpp"

namespace ahbp::sim {

class Event;

/// Abstract schedulable entity.
///
/// A process is made *runnable* by event triggers (or at initialization)
/// and executed once per evaluation phase it is runnable in.
class Process : public Object {
public:
  ~Process() override;

  [[nodiscard]] const char* kind() const override { return "process"; }

  /// Adds `ev` to the static sensitivity list: every trigger of `ev`
  /// makes this process runnable.
  Process& sensitive(Event& ev);

  /// Suppresses the implicit run at simulation start. By default every
  /// process executes once in the first evaluation phase.
  Process& dont_initialize();

  /// True once the process has terminated (threads only; methods never
  /// terminate).
  [[nodiscard]] bool done() const { return done_; }

protected:
  Process(Module* parent, std::string name);

  bool done_ = false;
  std::vector<Event*> static_events_;  ///< for cleanup on destruction

private:
  friend class Kernel;
  friend class Event;

  /// Body invoked by the kernel during the evaluation phase.
  virtual void execute() = 0;

  bool in_runnable_ = false;     ///< dedup flag while queued
  bool initialize_ = true;       ///< run once at simulation start
  Event* dynamic_wait_event_ = nullptr;  ///< event currently awaited, if any
};

/// A callback process (SC_METHOD analogue). The callback runs to
/// completion on every trigger; it must not block.
class Method final : public Process {
public:
  /// `fn` is the method body. Use sensitive()/dont_initialize() to
  /// configure triggering.
  Method(Module* parent, std::string name, std::function<void()> fn);

  [[nodiscard]] const char* kind() const override { return "method"; }

private:
  void execute() override { fn_(); }

  std::function<void()> fn_;
};

class Thread;

/// Coroutine type returned by thread bodies. Not used directly: declare a
/// member `Task body();` and pass it to the Thread constructor.
struct Task {
  struct promise_type {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    std::exception_ptr exception;
  };

  explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}
  Task(Task&& o) noexcept : handle(std::exchange(o.handle, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& o) noexcept {
    if (handle) handle.destroy();
    handle = std::exchange(o.handle, nullptr);
    return *this;
  }
  ~Task() {
    if (handle) handle.destroy();
  }

  std::coroutine_handle<promise_type> handle;
};

/// A coroutine process (SC_THREAD analogue).
///
/// The body is a coroutine returning Task; inside it, suspend with
///   co_await wait(SimTime::ns(10));   // timed wait
///   co_await wait(some_event);        // wait for one trigger
///   co_await wait_until(some_event, pred);  // ... one where pred() holds
/// The thread terminates when the coroutine returns. Exceptions escaping
/// the body are rethrown out of Kernel::run().
class Thread final : public Process {
public:
  /// `body` is called once, lazily, at the thread's first execution; the
  /// returned coroutine is then resumed on every wake-up.
  Thread(Module* parent, std::string name, std::function<Task()> body);
  ~Thread() override;

  [[nodiscard]] const char* kind() const override { return "thread"; }

  /// The thread currently executing (valid only inside a thread body).
  [[nodiscard]] static Thread* current();

  /// @name Awaitable hooks (called by the wait() awaiters).
  ///@{
  void arm_timed_wait(SimTime delay);
  /// Waits on `ev`, resuming the coroutine only at a trigger where
  /// `guard(ctx)` reads true. At the other triggers the thread still
  /// executes, but only to test the guard and wait on `ev` again.
  void arm_guarded_wait(Event& ev, bool (*guard)(void*), void* ctx);
  ///@}

private:
  void execute() override;

  std::function<Task()> body_;
  Task task_{nullptr};
  bool started_ = false;
  Event* wake_event_;  ///< private event for timed waits (owned)
  bool (*guard_)(void*) = nullptr;  ///< pending guarded wait, if any
  void* guard_ctx_ = nullptr;
  Event* guard_event_ = nullptr;
};

/// @name Awaitables for thread bodies
///@{

/// `co_await wait(delay)` -- suspend the current thread for `delay`.
struct TimedWait {
  SimTime delay;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const {
    Thread::current()->arm_timed_wait(delay);
  }
  void await_resume() const noexcept {}
};

/// `co_await wait_until(event, pred)` -- suspend until a trigger of the
/// event at which `pred()` reads true (at least one trigger). The
/// coroutine resumes once, not at every trigger; the count of triggers
/// waited is the result.
template <class Pred>
struct GuardedWait {
  Event& ev;
  Pred pred;
  unsigned triggers = 0;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) {
    Thread::current()->arm_guarded_wait(ev, &test, this);
  }
  unsigned await_resume() const noexcept { return triggers; }

  static bool test(void* self) {
    auto& w = *static_cast<GuardedWait*>(self);
    ++w.triggers;
    return w.pred();
  }
};

[[nodiscard]] inline TimedWait wait(SimTime delay) { return {delay}; }
template <class Pred>
[[nodiscard]] GuardedWait<Pred> wait_until(Event& ev, Pred pred) {
  return {ev, std::move(pred)};
}
/// `co_await wait(event)` -- suspend until the event next triggers.
[[nodiscard]] inline auto wait(Event& ev) {
  return wait_until(ev, [] { return true; });
}

///@}

}  // namespace ahbp::sim
