#pragma once
// Signal<T>: the evaluate/update communication channel.
//
// Writes during the evaluation phase are buffered; the kernel applies them
// in the update phase, and a changed value notifies the signal's
// value-changed event as a delta notification -- when some process listens
// to it (no process runs between the update and delta-notify phases, so
// nobody can subscribe in between). This gives deterministic
// simulation independent of process execution order, exactly as in
// SystemC's sc_signal.

#include <concepts>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/object.hpp"

namespace ahbp::sim {

/// Type-erased base so the kernel can hold heterogeneous update requests.
class SignalBase : public Object {
public:
  [[nodiscard]] const char* kind() const override { return "signal"; }

  /// Applies the buffered write (kernel update phase).
  virtual void apply_update() = 0;

protected:
  SignalBase(Module* parent, std::string name) : Object(parent, std::move(name)) {}

  /// Enqueues this signal for the next update phase (idempotent per delta).
  void request_update() {
    if (update_requested_) return;
    update_requested_ = true;
    kernel().request_update(*this);
  }

  bool update_requested_ = false;
};

/// A signal carrying a value of type T (equality-comparable, copyable).
///
/// Reads always observe the *current* value; writes take effect one delta
/// cycle later. Writing the current value is a no-op (no event fires).
template <std::equality_comparable T>
class Signal : public SignalBase {
public:
  /// Creates the signal with an initial current value.
  Signal(Module* parent, std::string name, T initial = T{})
      : SignalBase(parent, std::move(name)),
        current_(initial),
        next_(std::move(initial)),
        changed_(parent, basename() + ".changed"),
        edges_(parent, basename()) {}

  /// Current (settled) value.
  [[nodiscard]] const T& read() const { return current_; }

  /// Buffers `v` to become the current value in the next update phase.
  ///
  /// A later write in the same evaluation phase may restore the current
  /// value; the already-queued update then finds next_ == current_ in
  /// apply_update() and degrades to a no-op (no event fires).
  void write(const T& v) {
    next_ = v;
    if (next_ != current_) request_update();
  }

  /// Fires one delta after any update that changes the value.
  [[nodiscard]] Event& value_changed_event() { return changed_; }

  /// For Signal<bool>: fires on false->true updates.
  [[nodiscard]] Event& posedge_event()
    requires std::same_as<T, bool>
  {
    return edges_.pos;
  }
  /// For Signal<bool>: fires on true->false updates.
  [[nodiscard]] Event& negedge_event()
    requires std::same_as<T, bool>
  {
    return edges_.neg;
  }

  /// True if the value changed in the immediately preceding update phase
  /// of the current time step.
  [[nodiscard]] bool event() const {
    return last_change_time_ == kernel().now() &&
           last_change_delta_ + 1 == kernel().delta_count();
  }

  void apply_update() override {
    update_requested_ = false;
    if (next_ == current_) return;
    current_ = next_;
    last_change_time_ = kernel().now();
    last_change_delta_ = kernel().delta_count();
    notify_if_heard(changed_);
    if constexpr (std::same_as<T, bool>) {
      notify_if_heard(current_ ? edges_.pos : edges_.neg);
    }
  }

private:
  /// posedge/negedge events, constructed for Signal<bool> only.
  struct EdgeEvents {
    EdgeEvents(Module* parent, const std::string& base)
        : pos(parent, base + ".pos"), neg(parent, base + ".neg") {}
    Event pos;
    Event neg;
  };
  struct NoEdgeEvents {
    NoEdgeEvents(Module*, const std::string&) {}
  };

  /// Queues `e` as a delta notification unless that could not wake
  /// anything. An event with a pending notification is always notified,
  /// so a pending timed notification is still overridden.
  static void notify_if_heard(Event& e) {
    if (e.has_subscribers() || e.pending()) e.notify_delta();
  }

  T current_;
  T next_;
  Event changed_;
  [[no_unique_address]] std::conditional_t<std::same_as<T, bool>, EdgeEvents,
                                           NoEdgeEvents> edges_;
  SimTime last_change_time_ = SimTime::max();
  std::uint64_t last_change_delta_ = UINT64_MAX;
};

}  // namespace ahbp::sim
