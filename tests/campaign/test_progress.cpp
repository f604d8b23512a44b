// Unit tests for the ProgressTracker: deterministic throughput/ETA
// arithmetic via snapshot_at(), stall diagnosis and the one-event-per-
// episode contract, status_json rendering, and end-to-end agreement
// between a real campaign's outcomes and its replayed event stream, and
// heartbeats from a process worker for every spec it serves.

#include "campaign/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "telemetry/events.hpp"

namespace ahbp::campaign {
namespace {

using telemetry::Event;
using telemetry::field_f64;
using telemetry::field_str;
using telemetry::field_u64;

Event make_event(std::uint64_t t_mono_us, std::string type,
                 std::vector<telemetry::EventField> fields) {
  Event ev;
  ev.t_mono_us = t_mono_us;
  ev.type = std::move(type);
  ev.fields = std::move(fields);
  return ev;
}

TEST(ProgressTracker, SnapshotArithmeticIsDeterministic) {
  ProgressTracker tracker;
  tracker.on_event(make_event(0, "campaign_start",
                              {field_u64("runs", 4),
                               field_str("isolation", "thread")}));
  tracker.on_event(make_event(1'000'000, "run_start",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_u64("worker", 0)}));
  tracker.on_event(make_event(2'000'000, "run_finish",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_str("status", "ok"),
                               field_f64("wall_seconds", 1.0),
                               field_u64("attempts", 1)}));
  tracker.on_event(make_event(2'000'000, "run_restored",
                              {field_u64("run", 1), field_str("name", "b")}));
  tracker.on_event(make_event(3'000'000, "run_start",
                              {field_u64("run", 2), field_str("name", "c"),
                               field_u64("worker", 1)}));

  const ProgressTracker::Snapshot s = tracker.snapshot_at(4'000'000);
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.done, 1u);       // executed completions only
  EXPECT_EQ(s.restored, 1u);   // accounted separately
  EXPECT_EQ(s.in_flight, 1u);
  EXPECT_FALSE(s.finished);
  EXPECT_DOUBLE_EQ(s.elapsed_seconds, 4.0);
  // 1 executed run over 4 s of campaign time; 2 specs still unaccounted.
  EXPECT_DOUBLE_EQ(s.runs_per_sec, 0.25);
  EXPECT_DOUBLE_EQ(s.eta_seconds, 8.0);
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].run, 2u);
  EXPECT_DOUBLE_EQ(s.workers[0].age_seconds, 1.0);
  // Thread isolation: no heartbeats, never diagnosed as stalled.
  EXPECT_FALSE(s.workers[0].stalled);
  EXPECT_EQ(s.stalled_workers, 0u);
}

TEST(ProgressTracker, EtaUnknownBeforeFirstCompletion) {
  ProgressTracker tracker;
  tracker.on_event(make_event(0, "campaign_start",
                              {field_u64("runs", 2),
                               field_str("isolation", "thread")}));
  tracker.on_event(make_event(0, "run_start",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_u64("worker", 0)}));
  const ProgressTracker::Snapshot s = tracker.snapshot_at(1'000'000);
  EXPECT_DOUBLE_EQ(s.runs_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(s.eta_seconds, -1.0);
}

TEST(ProgressTracker, RetryKeepsRunInFlightAndResetsLiveness) {
  ProgressTracker tracker;
  tracker.on_event(make_event(0, "campaign_start",
                              {field_u64("runs", 1),
                               field_str("isolation", "process")}));
  tracker.on_event(make_event(0, "run_start",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_u64("worker", 100)}));
  tracker.on_event(make_event(5'000'000, "run_retry",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_u64("worker", 200)}));
  const ProgressTracker::Snapshot s = tracker.snapshot_at(6'000'000);
  EXPECT_EQ(s.retries, 1u);
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].id, 200);             // respawned pid adopted
  EXPECT_DOUBLE_EQ(s.workers[0].age_seconds, 1.0);  // clock restarted
  EXPECT_FALSE(s.workers[0].stalled);
}

TEST(ProgressTracker, StallIsDiagnosedOncePerEpisode) {
  // Run events are fed directly with synthetic timestamps so the age
  // arithmetic is deterministic; the attached log only carries the
  // worker_stalled emissions out.
  telemetry::EventLog log;
  ProgressTracker tracker(ProgressTracker::Config{.stall_after_seconds = 0.5});
  tracker.attach(log);
  tracker.on_event(make_event(0, "campaign_start",
                              {field_u64("runs", 2),
                               field_str("isolation", "process")}));
  tracker.on_event(make_event(0, "run_start",
                              {field_u64("run", 0), field_str("name", "a"),
                               field_u64("worker", 111)}));
  tracker.on_event(make_event(0, "run_start",
                              {field_u64("run", 1), field_str("name", "b"),
                               field_u64("worker", 222)}));

  ProgressTracker::Snapshot s = tracker.snapshot_at(1'000'000);
  EXPECT_EQ(s.stalled_workers, 2u);
  for (const ProgressTracker::Worker& w : s.workers) {
    EXPECT_TRUE(w.stalled);
    EXPECT_GT(w.heartbeat_age_seconds, 0.5);
  }
  auto count_stalled_events = [&log] {
    std::size_t n = 0;
    for (const Event& ev : log.events_since(0)) {
      if (ev.type == "worker_stalled") ++n;
    }
    return n;
  };
  EXPECT_EQ(count_stalled_events(), 2u);

  // Still stalled at a later poll: no duplicate emission.
  s = tracker.snapshot_at(2'000'000);
  EXPECT_EQ(s.stalled_workers, 2u);
  EXPECT_EQ(count_stalled_events(), 2u);

  // A heartbeat for 111 ends its episode (heartbeat() stamps with the
  // real clock, which is far earlier than the next synthetic poll), so
  // the next threshold trip re-emits -- for 111 only; 222's episode is
  // still open.
  tracker.heartbeat(111);
  s = tracker.snapshot_at(3'000'000);
  EXPECT_EQ(s.stalled_workers, 2u);
  EXPECT_EQ(count_stalled_events(), 3u);
  const std::vector<Event> all = log.events_since(0);
  EXPECT_EQ(all.back().type, "worker_stalled");
  EXPECT_EQ(all.back().u64("worker"), 111u);
}

TEST(ProgressTracker, StatusJsonRendersSchemaAndEscapes) {
  telemetry::EventLog log;
  ProgressTracker tracker;
  tracker.attach(log);
  tracker.set_fingerprint(0x00000000000abcdeull);
  log.emit("campaign_start",
           {field_u64("runs", 1), field_str("isolation", "thread")});
  log.emit("run_start", {field_u64("run", 0), field_str("name", "m\"0\\"),
                         field_u64("worker", 0)});
  const std::string json = tracker.status_json();
  EXPECT_NE(json.find("\"schema\": \"ahbpower.status.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"config\": \"00000000000abcde\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"m\\\"0\\\\\""), std::string::npos);
  EXPECT_NE(json.find("\"eta_seconds\": -1"), std::string::npos);
}

TEST(ProgressTracker, RealCampaignEventsReplayToOutcomeCounts) {
  telemetry::EventLog log;
  ProgressTracker tracker;
  tracker.attach(log);

  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back({"ok_" + std::to_string(i), [] {
                       PowerReport r;
                       r.total_energy = 1e-9;
                       r.cycles = 10;
                       return r;
                     }});
  }
  specs.push_back({"boom", []() -> PowerReport {
                     throw std::runtime_error("expected failure");
                   }});

  Campaign::Config cfg;
  cfg.threads = 2;
  const Campaign pool(cfg);
  Campaign::RunOptions opts;
  opts.events = &log;
  opts.progress = &tracker;
  const std::vector<RunOutcome> outcomes = pool.run(specs, opts);

  // Tracker state agrees with the returned outcomes.
  const ProgressTracker::Snapshot s = tracker.snapshot();
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.total, 5u);
  EXPECT_EQ(s.ok, 4u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.done, 5u);
  EXPECT_EQ(s.in_flight, 0u);

  // And the raw event stream replays to the same counts.
  std::map<std::string, std::size_t> replay;
  const Event* finish = nullptr;
  const std::vector<Event> events = log.events_since(0);
  for (const Event& ev : events) {
    if (ev.type == "run_finish") ++replay[std::string(ev.str("status"))];
    if (ev.type == "campaign_finish") finish = &ev;
  }
  EXPECT_EQ(replay["ok"], 4u);
  EXPECT_EQ(replay["failed"], 1u);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(finish->u64("ok"), 4u);
  EXPECT_EQ(finish->u64("failed"), 1u);
  EXPECT_EQ(finish->u64("crashed"), 0u);
}

/// Liveness of a run as the tracker saw it the moment the run finished.
struct FinishAges {
  double heartbeat_age_seconds = 0.0;
  double age_seconds = 0.0;
};

/// Runs two ~0.4 s specs on one kProcess worker and reads the finishing
/// run's ages on each run_finish. The reading listener is registered
/// before the tracker's own, so the run is still in flight in the
/// snapshot; listeners run on the calling thread, so no second thread
/// is alive when the worker forks.
std::vector<FinishAges> finish_ages(double heartbeat_interval_seconds) {
  telemetry::EventLog log;
  ProgressTracker tracker;
  std::vector<FinishAges> ages;
  log.add_listener([&](const Event& ev) {
    if (ev.type != "run_finish") return;
    for (const ProgressTracker::Worker& w : tracker.snapshot().workers) {
      if (w.run == ev.u64("run")) {
        ages.push_back({w.heartbeat_age_seconds, w.age_seconds});
      }
    }
  });
  tracker.attach(log);

  std::vector<RunSpec> specs;
  for (int i = 0; i < 2; ++i) {
    specs.push_back({"slow_" + std::to_string(i), [] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(400));
                       PowerReport r;
                       r.cycles = 1;
                       return r;
                     }});
  }
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.isolation = Isolation::kProcess;
  cfg.heartbeat_interval_seconds = heartbeat_interval_seconds;
  Campaign::RunOptions opts;
  opts.events = &log;
  opts.progress = &tracker;
  for (const RunOutcome& o : Campaign(cfg).run(specs, opts)) {
    EXPECT_EQ(o.status, RunStatus::kOk) << o.error;
  }
  return ages;
}

/// True when the tracker heard the run's worker at least 250 ms into
/// the 400 ms spec: as strict as "heard within 150 ms of the finish" on
/// an unloaded machine, but timed from the run's start, so scheduler
/// delay, which postpones the finish and the parent's reading of beats,
/// does not count against it. A worker that beats only for its first
/// spec, or only once per spec, fails it.
bool heard_late_in_run(const FinishAges& a) {
  return a.age_seconds - a.heartbeat_age_seconds > 0.25;
}

TEST(ProgressTracker, HeartbeatsFlowForEverySpecAWorkerServes) {
  const std::vector<FinishAges> beating = finish_ages(0.05);
  ASSERT_EQ(beating.size(), 2u);
  for (const FinishAges& a : beating) {
    EXPECT_GT(a.age_seconds, 0.3);
    EXPECT_TRUE(heard_late_in_run(a))
        << "age " << a.age_seconds << " s, heartbeat age "
        << a.heartbeat_age_seconds << " s";
  }
  // Control: with heartbeats off nothing refreshes liveness, so the
  // heartbeat age is the run's whole age and the check above fails.
  const std::vector<FinishAges> silent = finish_ages(0.0);
  ASSERT_EQ(silent.size(), 2u);
  for (const FinishAges& a : silent) {
    EXPECT_GE(a.heartbeat_age_seconds, a.age_seconds);
    EXPECT_FALSE(heard_late_in_run(a));
  }
}

}  // namespace
}  // namespace ahbp::campaign
