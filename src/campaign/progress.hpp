#pragma once
// Live campaign progress: throughput, ETA and worker liveness.
//
// A ProgressTracker folds the telemetry event stream (events.hpp) plus
// the process-isolation heartbeat frames into a queryable Snapshot --
// the data model behind GET /status, the CLI --progress line and the
// stalled-shard diagnosis.
//
// Liveness semantics: in kProcess isolation every busy worker process
// writes a heartbeat frame onto its socket a few times per second (see
// campaign.hpp Config::heartbeat_interval_seconds); the parent forwards
// each arrival via heartbeat(pid). A worker whose heartbeat
// age exceeds Config::stall_after_seconds is *stalled* -- genuinely
// wedged (SIGSTOP, livelock, swap death), as opposed to merely slow: a
// slow run keeps heartbeating. The first time a worker trips the
// threshold the tracker emits one "worker_stalled" event through the
// attached log (once per stall episode; a heartbeat arriving later
// clears the episode). In kThread isolation there are no heartbeats and
// no stall diagnosis -- in-flight ages are reported, stalled is never
// set.
//
// Thread-safety: on_event()/heartbeat()/snapshot() may be called from
// any thread (listeners run on emitting threads, the status server
// polls from its own). snapshot_at() takes an explicit monotonic "now"
// so tests exercise the age/ETA arithmetic deterministically.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/events.hpp"

namespace ahbp::campaign {

class ProgressTracker {
public:
  struct Config {
    /// Heartbeat age (seconds) past which an in-flight worker is
    /// flagged stalled (kProcess isolation only).
    double stall_after_seconds = 5.0;
  };

  /// One in-flight run as the parent sees it.
  struct Worker {
    long id = 0;            ///< worker pid (kProcess) or pool slot (kThread)
    std::uint64_t run = 0;  ///< spec index in flight
    std::string name;       ///< spec name
    double age_seconds = 0.0;            ///< since run_start
    double heartbeat_age_seconds = 0.0;  ///< since the last liveness signal
    bool stalled = false;
  };

  /// The /status data model ("ahbpower.status.v1" when rendered).
  struct Snapshot {
    std::uint64_t total = 0;      ///< specs submitted to the campaign
    std::uint64_t done = 0;       ///< reached any terminal status
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t crashed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t restored = 0;   ///< journal-resumed without executing
    std::uint64_t retries = 0;    ///< retry/respawn attempts observed
    std::uint64_t in_flight = 0;
    bool finished = false;
    double elapsed_seconds = 0.0;
    /// Executed completions per second of campaign wall time (0 until
    /// the first completion).
    double runs_per_sec = 0.0;
    /// Remaining work over runs_per_sec; -1 while unknown.
    double eta_seconds = -1.0;
    double stall_after_seconds = 0.0;
    std::vector<Worker> workers;  ///< in-flight runs, start order
    std::uint64_t stalled_workers = 0;
  };

  ProgressTracker() : ProgressTracker(Config{}) {}
  explicit ProgressTracker(Config cfg);

  /// Subscribes this tracker to `log` and adopts the log's monotonic
  /// clock as the time base (ages in snapshots line up with event
  /// t_mono_us). The log must outlive the tracker. worker_stalled
  /// events are emitted through the same log.
  void attach(telemetry::EventLog& log);

  /// Event ingestion -- normally via attach(), callable directly for
  /// deterministic replay (see tests/campaign/test_progress.cpp).
  void on_event(const telemetry::Event& ev);

  /// Liveness signal for a worker process (a heartbeat frame arriving on
  /// its socket).
  void heartbeat(long worker_id);

  /// Snapshot at the current monotonic time.
  [[nodiscard]] Snapshot snapshot();

  /// Snapshot at an explicit monotonic microsecond timestamp (the
  /// attached log's time base). Emits worker_stalled for workers newly
  /// past the threshold.
  [[nodiscard]] Snapshot snapshot_at(std::uint64_t mono_now_us);

  /// Campaign config fingerprint rendered into status_json (16 hex
  /// digits; 0 until set).
  void set_fingerprint(std::uint64_t fp);

  /// Renders snapshot() as the "ahbpower.status.v1" JSON document.
  [[nodiscard]] std::string status_json();

  [[nodiscard]] const Config& config() const { return cfg_; }

private:
  struct InFlight {
    long worker = 0;
    std::uint64_t run = 0;
    std::string name;
    std::uint64_t started_us = 0;
    std::uint64_t last_heartbeat_us = 0;
    bool stall_reported = false;  ///< one worker_stalled per episode
  };

  [[nodiscard]] std::uint64_t now_us() const;

  Config cfg_;
  telemetry::EventLog* log_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;  ///< clock before attach()

  mutable std::mutex mutex_;
  std::uint64_t total_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t crashed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t restored_ = 0;
  std::uint64_t retries_ = 0;
  bool finished_ = false;
  bool heartbeats_expected_ = false;  ///< kProcess isolation announced
  std::uint64_t started_us_ = 0;      ///< campaign_start timestamp
  std::uint64_t fingerprint_ = 0;
  std::vector<InFlight> in_flight_;
};

}  // namespace ahbp::campaign
