// Unit tests for the structured event log (schema "ahbpower.events.v1"):
// sequence/timestamp stamping, typed field access, JSON rendering and
// escaping, tailing, listeners (including re-entrant emission), the
// disabled bypass and the durable JSONL sink.

#include "telemetry/events.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ahbp::telemetry {
namespace {

std::filesystem::path temp_path(const char* stem) {
  return std::filesystem::temp_directory_path() /
         (std::string(stem) + "." + std::to_string(::getpid()) + ".jsonl");
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(EventLog, SequencesAndTimestampsAreMonotonic) {
  EventLog log;
  log.emit("campaign_start", {field_u64("runs", 6)});
  log.emit("run_start", {field_u64("run", 0), field_str("name", "a")});
  log.emit("run_finish", {field_u64("run", 0), field_str("status", "ok")});
  EXPECT_EQ(log.size(), 3u);

  const std::vector<Event> all = log.events_since(0);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 1);  // starts at 1, +1 per event
    if (i > 0) EXPECT_GE(all[i].t_mono_us, all[i - 1].t_mono_us);
  }
  EXPECT_EQ(all[0].type, "campaign_start");
  EXPECT_EQ(all[0].u64("runs"), 6u);
}

TEST(Event, TypedFieldAccessWithFallbacks) {
  EventLog log;
  log.emit("run_finish", {field_u64("run", 3), field_str("status", "failed"),
                          field_f64("wall_seconds", 0.25)});
  const Event ev = log.events_since(0).front();
  EXPECT_EQ(ev.u64("run"), 3u);
  EXPECT_EQ(ev.str("status"), "failed");
  EXPECT_DOUBLE_EQ(ev.f64("wall_seconds"), 0.25);
  // Absent key or kind mismatch falls back.
  EXPECT_EQ(ev.u64("missing", 7), 7u);
  EXPECT_EQ(ev.u64("status", 9), 9u);
  EXPECT_EQ(ev.str("run", "fb"), "fb");
  EXPECT_EQ(ev.find("nope"), nullptr);
}

TEST(Event, RenderEscapesHostileStrings) {
  EventLog log;
  log.emit("run_start", {field_str("name", "m\"0\\"),
                         field_str("noise", std::string("a\nb\tc\x01"))});
  const std::string line = log.events_since(0).front().render();
  EXPECT_NE(line.find("\"name\": \"m\\\"0\\\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\t"), std::string::npos);
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  // No raw control bytes survive into the rendered JSON.
  for (const char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(Event, RenderMatchesGolden) {
  Event ev;
  ev.seq = 7;
  ev.t_mono_us = 123456;
  ev.t_wall_us = 1700000000123456ull;
  ev.type = "run_finish";
  ev.fields = {field_u64("run", 3), field_str("status", "timed \"out\"\n"),
               field_f64("wall_seconds", 0.1), field_f64("energy_j", 7.61e-10)};
  EXPECT_EQ(ev.render(),
            "{\"seq\": 7, \"t_mono_us\": 123456, \"t_wall_us\": "
            "1700000000123456, \"type\": \"run_finish\", \"run\": 3, "
            "\"status\": \"timed \\\"out\\\"\\n\", \"wall_seconds\": 0.1, "
            "\"energy_j\": 7.61e-10}");
}

TEST(EventLog, RenderSinceTailsTheLog) {
  EventLog log;
  log.emit("a");
  log.emit("b");
  log.emit("c");
  EXPECT_EQ(log.render_since(3), "");
  const std::string tail = log.render_since(1);
  EXPECT_EQ(log.events_since(1).size(), 2u);
  EXPECT_NE(tail.find("\"type\": \"b\""), std::string::npos);
  EXPECT_NE(tail.find("\"type\": \"c\""), std::string::npos);
  EXPECT_EQ(tail.find("\"type\": \"a\""), std::string::npos);
}

TEST(EventLog, ListenersRunPerEventAndMayReenter) {
  EventLog log;
  std::vector<std::string> seen;
  log.add_listener([&](const Event& ev) {
    seen.push_back(ev.type);
    // Re-entrant emission must not deadlock (this is exactly what the
    // ProgressTracker does when it emits worker_stalled).
    if (ev.type == "trigger") log.emit("reaction");
  });
  log.emit("plain");
  log.emit("trigger");
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "plain");
  EXPECT_EQ(seen[1], "trigger");
  EXPECT_EQ(seen[2], "reaction");
  EXPECT_EQ(log.size(), 3u);
}

TEST(EventLog, DisabledLogIgnoresEverything) {
  EventLog::Config cfg;
  cfg.enabled = false;
  EventLog log(cfg);
  bool called = false;
  log.add_listener([&](const Event&) { called = true; });
  log.emit("ignored");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(called);
  EXPECT_TRUE(log.error().empty());
}

TEST(EventLog, JsonlSinkWritesHeaderAndLines) {
  const std::filesystem::path path = temp_path("ahbp_events_sink");
  {
    EventLog::Config cfg;
    cfg.file = path;
    cfg.config_fingerprint = 0xabcdef0123456789ull;
    EventLog log(cfg);
    ASSERT_TRUE(log.error().empty()) << log.error();
    log.emit("campaign_start", {field_u64("runs", 1)});
    log.emit("campaign_finish", {field_u64("ok", 1)});
  }
  const std::string text = slurp(path);
  std::filesystem::remove(path);
  // Header line names the schema and fingerprint; then one line/event.
  EXPECT_NE(text.find("\"schema\": \"ahbpower.events.v1\""),
            std::string::npos);
  EXPECT_NE(text.find("abcdef0123456789"), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"campaign_start\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"campaign_finish\""), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 3);
}

TEST(EventLog, SinkFailureIsDeferredNotThrown) {
  EventLog::Config cfg;
  cfg.file = "/nonexistent-dir-for-sure/events.jsonl";
  EventLog log(cfg);
  log.emit("still_recorded");
  EXPECT_EQ(log.size(), 1u);  // in-memory log keeps working
  EXPECT_FALSE(log.error().empty());
}

}  // namespace
}  // namespace ahbp::telemetry
