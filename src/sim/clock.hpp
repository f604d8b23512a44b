#pragma once
// Clock: a free-running boolean signal source.

#include <string>

#include "sim/module.hpp"
#include "sim/signal.hpp"

namespace ahbp::sim {

/// Generates a periodic boolean waveform on an internal Signal<bool>.
///
/// The first edge is the rising edge at `start_delay` (default: time 0 is
/// already high is avoided -- the clock initializes low and rises at
/// start_delay, so method processes sensitive to posedge see a clean first
/// cycle). The delay counts from the run() that starts the clock.
///
/// The kernel drives the waveform: it takes each edge into account when
/// advancing time and writes the signal at the edge, so the write lands in
/// the edge instant's first update phase and posedge/negedge subscribers
/// run one delta later -- no process or timed notification per edge.
class Clock : public Module {
public:
  /// period must be positive; duty in (0, 1).
  Clock(Module* parent, std::string name, SimTime period, double duty = 0.5,
        SimTime start_delay = SimTime::zero());
  ~Clock() override;

  /// The generated waveform.
  [[nodiscard]] Signal<bool>& signal() { return sig_; }
  [[nodiscard]] const Signal<bool>& signal() const { return sig_; }

  /// Current clock level.
  [[nodiscard]] bool read() const { return sig_.read(); }

  /// Convenience accessors for sensitivity lists.
  [[nodiscard]] Event& posedge_event() { return sig_.posedge_event(); }
  [[nodiscard]] Event& negedge_event() { return sig_.negedge_event(); }

  [[nodiscard]] SimTime period() const { return period_; }

  [[nodiscard]] const char* kind() const override { return "clock"; }

private:
  friend class Kernel;

  /// Called by the kernel in the first run() after construction: rises
  /// right away for a zero start delay, else schedules the first edge.
  void start();
  /// Called by the kernel at next_edge_: writes the next level and
  /// schedules the following edge.
  void edge();

  SimTime period_;
  SimTime high_time_;
  SimTime low_time_;
  SimTime start_delay_;
  SimTime next_edge_ = SimTime::max();  ///< max() until started
  bool started_ = false;
  bool next_value_ = true;
  Signal<bool> sig_;
};

}  // namespace ahbp::sim
