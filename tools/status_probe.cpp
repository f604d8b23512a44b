// status_probe -- ctest driver for the live observability surface.
//
//   status_probe smoke <ahbpower_cli> <out-dir>
//   status_probe emit-hostile <out-dir>
//
// smoke: launches a process-isolated --sweep with --status-port 0,
// parses the bound port from the CLI's stdout, then exercises the
// whole live surface through the in-tree HTTP client (no curl):
//   - polls GET /status until workers are in flight and saves the first
//     live snapshot to <out-dir>/status_snapshot.json (fixture-chained
//     into telemetry_validate);
//   - checks GET /metrics exposes the campaign counters in Prometheus
//     text form and GET /events?after=0 tails the event log;
//   - SIGSTOPs one worker process until its heartbeat age crosses the
//     --stall-after threshold and /status + /events report the stall,
//     then SIGCONTs it and lets the sweep finish;
//   - requires CLI exit 0, then replays <out-dir>/events.jsonl and
//     cross-checks the terminal counts against campaign.json.
//
// emit-hostile: runs a tiny in-process campaign whose spec names and
// error strings are JSON-hostile (quotes, backslashes, control bytes,
// newlines) and emits events.jsonl, campaign.json and a live status
// snapshot through the real library writers. The fixture-chained
// telemetry_validate runs prove every writer escapes instead of
// corrupting the artifact.
//
// Exit 0 on success, 1 on a probe failure (diagnostics on stderr),
// 2 on bad usage.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/progress.hpp"
#include "campaign/report.hpp"
#include "telemetry/events.hpp"
#include "telemetry/status_server.hpp"

#include "mini_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using minijson::Parser;
using minijson::Value;

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "status_probe: %s\n", what.c_str());
  std::exit(1);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) die("cannot write " + path.string());
}

// --- smoke ------------------------------------------------------------------

constexpr double kStallAfter = 0.4;   // seconds; tuned well above the
                                      // 0.1 s heartbeat interval
constexpr double kDeadline = 120.0;   // overall probe watchdog

Value fetch_status(std::uint16_t port) {
  const ahbp::telemetry::HttpResponse res =
      ahbp::telemetry::http_get(port, "/status");
  if (!res.ok()) {
    die("GET /status failed (HTTP " + std::to_string(res.status) + ")");
  }
  return Parser(res.body).parse();
}

int run_smoke(const char* cli, const char* out_dir) {
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path dir(out_dir);

  // Long enough runs that workers are observably in flight on this
  // machine class, short enough that the whole probe stays smoke-sized.
  const std::string cmd =
      std::string(cli) +
      " --sweep --cycles 150000 --jobs 2 --isolation process" +
      " --journal " + dir.string() + " --telemetry " + dir.string() +
      " --status-port 0 --stall-after " + std::to_string(kStallAfter) +
      " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) die("cannot launch " + cmd);

  const Clock::time_point t0 = Clock::now();
  // The CLI prints the bound port before the first run starts and
  // flushes, so this read cannot deadlock against the sweep.
  std::uint16_t port = 0;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    const char* hit = std::strstr(line, "listening on 127.0.0.1:");
    if (hit != nullptr) {
      port = static_cast<std::uint16_t>(
          std::atoi(hit + std::strlen("listening on 127.0.0.1:")));
      break;
    }
  }
  if (port == 0) {
    ::pclose(pipe);
    die("CLI never printed the bound status port");
  }

  // Phase 1: a live snapshot with workers in flight.
  std::string live_snapshot;
  while (live_snapshot.empty()) {
    if (seconds_since(t0) > kDeadline) die("no in-flight worker appeared");
    const ahbp::telemetry::HttpResponse res =
        ahbp::telemetry::http_get(port, "/status");
    if (res.ok()) {
      const Value doc = Parser(res.body).parse();
      const Value* workers = doc.find("workers");
      if (workers != nullptr && !workers->array.empty()) {
        live_snapshot = res.body;
      }
    }
    if (live_snapshot.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  write_file(dir / "status_snapshot.json", live_snapshot);
  std::printf("status_probe: live snapshot captured\n");

  // Phase 2: /metrics and /events answer while the sweep runs.
  {
    const ahbp::telemetry::HttpResponse res =
        ahbp::telemetry::http_get(port, "/metrics");
    if (!res.ok()) die("GET /metrics failed");
    if (res.body.find("campaign_events") == std::string::npos ||
        res.body.find("# TYPE") == std::string::npos) {
      die("GET /metrics is not Prometheus text exposition:\n" + res.body);
    }
  }
  {
    const ahbp::telemetry::HttpResponse res =
        ahbp::telemetry::http_get(port, "/events?after=0");
    if (!res.ok()) die("GET /events failed");
    if (res.body.find("\"type\": \"campaign_start\"") == std::string::npos) {
      die("GET /events?after=0 is missing campaign_start");
    }
  }
  std::printf("status_probe: /metrics and /events answered live\n");

  // Phase 3: freeze one worker until the tracker reports the stall.
  // The target run may finish between the snapshot and the SIGSTOP, so
  // retry with a fresh worker a few times.
  bool stall_seen = false;
  for (int attempt = 0; attempt < 5 && !stall_seen; ++attempt) {
    if (seconds_since(t0) > kDeadline) break;
    const Value doc = fetch_status(port);
    const Value* workers = doc.find("workers");
    if (workers == nullptr || workers->array.empty()) break;  // sweep drained
    const Value* id = workers->array.front().find("id");
    if (id == nullptr) die("/status worker entry has no id");
    const pid_t victim = static_cast<pid_t>(id->number);
    if (::kill(victim, SIGSTOP) != 0) continue;  // already gone; retry
    const Clock::time_point stop_t = Clock::now();
    while (!stall_seen && seconds_since(stop_t) < 10.0) {
      const Value poll = fetch_status(port);
      const Value* stalled = poll.find("stalled_workers");
      if (stalled != nullptr && stalled->number >= 1.0) {
        // The stalled worker's heartbeat age must actually exceed the
        // threshold it was flagged against.
        if (const Value* ws = poll.find("workers")) {
          for (const Value& w : ws->array) {
            const Value* flag = w.find("stalled");
            const Value* age = w.find("heartbeat_age_seconds");
            if (flag != nullptr && flag->boolean && age != nullptr &&
                age->number > kStallAfter) {
              stall_seen = true;
            }
          }
        }
      }
      if (!stall_seen) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    ::kill(victim, SIGCONT);
  }
  if (!stall_seen) {
    ::pclose(pipe);
    die("SIGSTOPped worker was never reported stalled");
  }
  {
    const ahbp::telemetry::HttpResponse res =
        ahbp::telemetry::http_get(port, "/events?after=0");
    if (res.ok() &&
        res.body.find("\"type\": \"worker_stalled\"") == std::string::npos) {
      die("stall was visible in /status but worker_stalled never hit the log");
    }
  }
  std::printf("status_probe: stall detected and cleared\n");

  // Phase 4: drain the CLI and require a clean exit.
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
  }
  const int raw = ::pclose(pipe);
  if (!WIFEXITED(raw) || WEXITSTATUS(raw) != 0) {
    die("CLI exited abnormally (raw status " + std::to_string(raw) + ")");
  }

  // Phase 5: the event log must replay to campaign.json's counts.
  std::map<std::string, std::size_t> replay;
  {
    const std::string text = read_file(dir / "events.jsonl");
    std::size_t pos = text.find('\n');  // skip the header line
    pos = pos == std::string::npos ? text.size() : pos + 1;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string l = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (l.empty()) continue;
      const Value ev = Parser(l).parse();
      const Value* type = ev.find("type");
      const Value* status = ev.find("status");
      if (type != nullptr && type->string == "run_finish" &&
          status != nullptr) {
        ++replay[status->string];
      }
    }
  }
  const Value campaign = Parser(read_file(dir / "campaign.json")).parse();
  const Value* runs = campaign.find("runs");
  if (runs == nullptr) die("campaign.json has no runs");
  std::map<std::string, std::size_t> reported;
  for (const Value& run : runs->array) {
    if (const Value* status = run.find("status")) ++reported[status->string];
  }
  for (const char* status : {"ok", "failed", "crashed", "timed_out"}) {
    if (replay[status] != reported[status]) {
      die(std::string("event-log replay mismatch for \"") + status +
          "\": events say " + std::to_string(replay[status]) +
          ", campaign.json says " + std::to_string(reported[status]));
    }
  }
  std::printf("status_probe: event log replays to campaign.json counts "
              "(%zu ok)\n",
              replay["ok"]);
  return 0;
}

// --- emit-hostile -----------------------------------------------------------

int run_emit_hostile(const char* out_dir) {
  namespace campaign = ahbp::campaign;
  namespace telemetry = ahbp::telemetry;
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path dir(out_dir);

  // The adversarial vocabulary: quote + backslash (the spec name the
  // contract calls out), a control byte, a newline and a tab.
  const std::string hostile_ok = "m\"0\\";
  const std::string hostile_fail = std::string("bad\x01name\nwith\ttabs");

  telemetry::EventLog::Config ev_cfg;
  ev_cfg.file = dir / "events.jsonl";
  ev_cfg.config_fingerprint = 0x600dc0ffee;
  telemetry::EventLog events(ev_cfg);
  campaign::ProgressTracker tracker;
  tracker.attach(events);

  std::string live_status;
  std::vector<campaign::RunSpec> specs;
  specs.push_back({hostile_ok, [&tracker, &live_status] {
                     // Captured mid-run: the in-flight worker row now
                     // carries the hostile name through status_json.
                     live_status = tracker.status_json();
                     return campaign::PowerReport{};
                   }});
  specs.push_back({hostile_fail, []() -> campaign::PowerReport {
                     throw std::runtime_error("hostile \"what\"\\with\nnoise");
                   }});

  campaign::Campaign::Config cfg;
  cfg.threads = 1;
  const campaign::Campaign pool(cfg);
  campaign::Campaign::RunOptions opts;
  opts.events = &events;
  opts.progress = &tracker;
  const std::vector<campaign::RunOutcome> outcomes = pool.run(specs, opts);
  if (outcomes.size() != 2 || 
      outcomes[0].status != campaign::RunStatus::kOk ||
      outcomes[1].status == campaign::RunStatus::kOk) {
    die("emit-hostile campaign did not produce the expected outcomes");
  }
  if (live_status.empty()) die("live status was never captured");
  write_file(dir / "status_hostile.json", live_status);
  ahbp::campaign::write_campaign_json_file(
      dir / "campaign_hostile.json", outcomes,
      campaign::CampaignReportMeta{.name = "status_probe emit-hostile",
                                   .cycles = 0,
                                   .threads = 1});
  std::printf("status_probe: hostile artifacts written to %s\n", out_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 4 && std::strcmp(argv[1], "smoke") == 0) {
      return run_smoke(argv[2], argv[3]);
    }
    if (argc == 3 && std::strcmp(argv[1], "emit-hostile") == 0) {
      return run_emit_hostile(argv[2]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "status_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: status_probe smoke <ahbpower_cli> <out-dir>\n"
               "       status_probe emit-hostile <out-dir>\n");
  return 2;
}
