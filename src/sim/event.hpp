#pragma once
// Event: the kernel's notification primitive (cf. SystemC sc_event).

#include <cstdint>
#include <vector>

#include "sim/object.hpp"
#include "sim/time.hpp"

namespace ahbp::sim {

class Process;

/// A notification primitive that wakes processes.
///
/// Processes can be *statically* sensitive to an event (woken on every
/// trigger) or *dynamically* waiting (coroutine threads: woken exactly
/// once, subscription cleared on trigger).
///
/// An event holds at most one pending notification. A pending notification
/// may only be overridden by an earlier one: immediate beats delta beats
/// timed, and an earlier timed notification beats a later one. This follows
/// the IEEE 1666 (SystemC) semantics.
class Event : public Object {
public:
  Event(Module* parent, std::string name);
  ~Event() override;

  [[nodiscard]] const char* kind() const override { return "event"; }

  /// Immediate notification: sensitive processes become runnable in the
  /// *current* evaluation phase. Cancels any pending notification.
  void notify();
  /// Delta notification: processes wake in the next delta cycle.
  void notify_delta();
  /// Timed notification at now() + delay. delay must be > 0 (use
  /// notify_delta() for zero-delay semantics).
  void notify(SimTime delay);
  /// Cancels a pending (delta or timed) notification, if any.
  void cancel();

  /// True if a delta or timed notification is pending.
  [[nodiscard]] bool pending() const { return pending_ != Pending::kNone; }

  /// True if a trigger would wake anything: some process is statically
  /// sensitive to this event or dynamically waiting on it.
  [[nodiscard]] bool has_subscribers() const {
    return !static_sensitive_.empty() || !dynamic_waiters_.empty();
  }

  /// Static sensitivity management (used by Process::sensitive()).
  void add_static(Process& p);
  void remove_static(Process& p);
  /// One-shot subscription for a dynamically waiting process.
  void add_dynamic(Process& p);
  void remove_dynamic(Process& p);

private:
  friend class Kernel;

  enum class Pending : std::uint8_t { kNone, kDelta, kTimed };

  /// Wakes all sensitive processes. Called by the kernel (delta/timed
  /// queues) or directly by notify().
  void trigger();

  Pending pending_ = Pending::kNone;
  SimTime pending_time_;
  std::uint64_t stamp_ = 0;  ///< invalidates stale timed-queue entries
  std::vector<Process*> static_sensitive_;
  std::vector<Process*> dynamic_waiters_;
};

}  // namespace ahbp::sim
