#pragma once
// Fixed-window time-series accumulation -- the streaming generalization
// of the one-shot power report.
//
// A WindowSeries buckets per-tick contributions (a "tick" is whatever
// discrete axis the producer uses; the power estimator ticks in bus
// cycles) into fixed windows of `window_ticks`. Each closed window
// carries one accumulated value per named track; dividing by the window
// duration (w.ticks x the clock period) yields the power-vs-time series
// of the paper's Figures 3-5. Window semantics (boundary
// crossing, gap windows, the partial final window, span splitting) are
// specified in docs/OBSERVABILITY.md and locked down by
// tests/telemetry/test_window.cpp.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ahbp::telemetry {

/// Multi-track accumulator over fixed tick windows.
///
/// Windows close automatically when a recorded tick crosses a boundary;
/// skipped windows are emitted as zero-valued (gap) windows so the time
/// axis stays uniform. flush() closes the open partial window, with its
/// actual covered tick count. Conservation guarantee: the sum of a
/// track over windows() (plus any still-open accumulation) equals the
/// sum of everything recorded, exactly -- each contribution is added to
/// exactly one window (record) or split once (record_span).
class WindowSeries {
public:
  struct Config {
    std::uint64_t window_ticks = 0;    ///< window length; must be > 0
    std::vector<std::string> tracks;   ///< at least one track name
  };

  struct Window {
    std::uint64_t start_tick = 0;
    /// Ticks the window covers: window_ticks for interior and gap
    /// windows, possibly fewer for the flushed final window.
    std::uint64_t ticks = 0;
    std::vector<double> values;  ///< one accumulated value per track
  };

  explicit WindowSeries(Config cfg);

  /// Adds one tick's contribution (one value per track, in track
  /// order). Ticks must not decrease below the current window's start;
  /// stragglers inside the current window are folded into it.
  void record(std::uint64_t tick, std::span<const double> values);
  void record(std::uint64_t tick, std::initializer_list<double> values) {
    record(tick, std::span<const double>(values.begin(), values.size()));
  }

  /// Adds a contribution spread uniformly over [start_tick, start_tick +
  /// n_ticks): each overlapped window receives values * overlap/n_ticks.
  /// This is how O(1)-accounted repeated cycles (step_repeated, the TLM
  /// fast path) stay window-accurate across boundaries.
  void record_span(std::uint64_t start_tick, std::uint64_t n_ticks,
                   std::span<const double> values);
  void record_span(std::uint64_t start_tick, std::uint64_t n_ticks,
                   std::initializer_list<double> values) {
    record_span(start_tick, n_ticks,
                std::span<const double>(values.begin(), values.size()));
  }

  /// Closes the open window (if any ticks were recorded into it) with
  /// its actual covered tick count. Idempotent.
  void flush();

  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] const std::vector<std::string>& tracks() const {
    return cfg_.tracks;
  }
  [[nodiscard]] std::uint64_t window_ticks() const { return cfg_.window_ticks; }

  /// Per-track sums over closed windows plus the open accumulation --
  /// equal to the per-track sums of everything recorded.
  [[nodiscard]] std::vector<double> totals() const;

private:
  void check_width(std::span<const double> values) const;
  void record_scaled(std::uint64_t tick, std::span<const double> values,
                     double scale);
  void close_current();

  Config cfg_;
  std::int64_t current_index_ = -1;  ///< window index; -1 before first record
  std::uint64_t last_tick_ = 0;      ///< highest tick recorded so far
  bool open_ = false;                ///< acc_ holds unreported content
  std::vector<double> acc_;
  std::vector<Window> windows_;
};

}  // namespace ahbp::telemetry
