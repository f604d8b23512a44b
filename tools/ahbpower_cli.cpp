// ahbpower_cli -- run a configurable AHB power analysis from the shell.
//
//   ahbpower_cli [options]
//     --cycles N        bus cycles to simulate        (default 5000)
//     --masters N       traffic masters (1..8)        (default 2)
//     --slaves N        memory slaves (1..8)          (default 3)
//     --waits N         wait states per slave         (default 0)
//     --policy P        fixed | rr                    (default fixed)
//     --seed N          base RNG seed                 (default 1)
//     --window N        power window in bus cycles    (default off;
//                       1000 when --telemetry is given without it)
//     --telemetry DIR   write windowed power series (CSV + JSON), a
//                       Chrome trace_event file and a metrics snapshot
//                       into DIR (campaign.json in --sweep mode)
//     --txn-trace       also reconstruct per-transaction spans with
//                       attributed energy: txns.csv, txns.json and
//                       txn_trace.json in DIR (requires --telemetry)
//     --table           print the instruction table
//     --breakdown       print the sub-block breakdown
//     --attribution     print per-master energy attribution
//     --activity        print the switching-activity summary
//     --csv FILE        write the power trace as CSV (needs --window)
//     --trace-out FILE  record the transaction trace to FILE
//     --quiet           only the one-line summary
//     --sweep           campaign mode: sweep policy x waits on a
//                       multi-core pool, print one row per config
//     --jobs N          workers for --sweep (0 = all cores)
//     --faults SEED     deterministic fault injection on every slave
//                       (2% RETRY, 0.5% ERROR, 5% wait-state jitter per
//                       transfer, scheduled by SEED); adds ahb.fault.*
//                       counters to --telemetry metrics
//     --run-budget S    wall-clock budget per run in seconds; a run
//                       exceeding it is aborted (status timed_out in
//                       --sweep, exit code 3 otherwise)
//     --isolation M     thread | process: where --sweep runs execute.
//                       process runs them in --jobs persistent forked
//                       workers (a dead one is replaced), so a SIGSEGV
//                       in one config becomes a "crashed" row instead
//                       of killing the sweep
//     --journal DIR     write-ahead journal for --sweep: every finished
//                       run is durably appended to DIR/campaign.journal
//                       the moment it completes
//     --resume          skip runs already present in the --journal
//                       before executing; the final report is
//                       byte-identical to an uninterrupted sweep
//     --status-port N   serve live campaign observability over HTTP on
//                       127.0.0.1:N while --sweep runs: GET /status
//                       (JSON snapshot), /metrics (Prometheus text),
//                       /events?after=N (event-log tail). 0 binds an
//                       ephemeral port; the bound port is printed as
//                       "status server listening on 127.0.0.1:<port>"
//     --progress        single-line live progress display on stderr
//                       during --sweep (refreshed at most 4x/second;
//                       suppressed when stderr is not a TTY)
//     --stall-after S   heartbeat age in seconds past which an
//                       in-flight process-isolation worker is flagged
//                       stalled (default 5)
//
// With --telemetry DIR, --sweep also persists the event stream to
// DIR/events.jsonl (schema ahbpower.events.v1, one event per line).
//
// Exit codes:
//   0    success
//   2    bad usage / unwritable output / --resume against a corrupt
//        journal or one written with different campaign parameters
//   3    at least one run degraded (failed / timed out / crashed), a
//        single run exceeded --run-budget, or the write-ahead journal
//        could not be written (the report is still emitted)
//   4    --status-port could not be bound (already in use, privileged
//        port); nothing was run
//   130  interrupted by SIGINT (first signal drains + journals
//        in-flight runs and still emits the degraded report)
//   143  terminated by SIGTERM (same drain semantics)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "campaign/report.hpp"
#include "fault/injector.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/atomic_file.hpp"
#include "telemetry/events.hpp"
#include "telemetry/status_server.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ahbp;

constexpr std::int64_t kClockNs = 10;  // 100 MHz

struct Options {
  std::uint64_t cycles = 5000;
  unsigned masters = 2;
  unsigned slaves = 3;
  unsigned waits = 0;
  ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority;
  std::uint64_t seed = 1;
  std::uint64_t window_cycles = 0;
  bool table = false;
  bool breakdown = false;
  bool attribution = false;
  bool activity = false;
  bool quiet = false;
  bool sweep = false;
  bool txn_trace = false;
  bool faults = false;
  std::uint64_t fault_seed = 1;
  double run_budget_s = 0.0;
  unsigned jobs = 0;
  campaign::Isolation isolation =
      campaign::Isolation::kThread;
  bool resume = false;
  long status_port = -1;  ///< -1 = off; 0 = ephemeral
  bool progress = false;
  double stall_after_s = 5.0;
  std::string journal_dir;
  std::string csv;
  std::string trace_out;
  std::string telemetry_dir;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cycles N] [--masters N] [--slaves N] [--waits N]\n"
               "          [--policy fixed|rr] [--seed N] [--window CYCLES]\n"
               "          [--telemetry DIR] [--txn-trace]\n"
               "          [--table] [--breakdown] [--attribution] [--activity]\n"
               "          [--csv FILE] [--trace-out FILE] [--quiet]\n"
               "          [--sweep] [--jobs N] [--faults SEED] [--run-budget S]\n"
               "          [--isolation thread|process] [--journal DIR]"
               " [--resume]\n"
               "          [--status-port N] [--progress] [--stall-after S]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--cycles") {
      o.cycles = std::strtoull(need_value(i), nullptr, 0);
    } else if (a == "--masters") {
      o.masters = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 0));
    } else if (a == "--slaves") {
      o.slaves = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 0));
    } else if (a == "--waits") {
      o.waits = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 0));
    } else if (a == "--policy") {
      const std::string p = need_value(i);
      if (p == "fixed") {
        o.policy = ahb::ArbitrationPolicy::kFixedPriority;
      } else if (p == "rr") {
        o.policy = ahb::ArbitrationPolicy::kRoundRobin;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--seed") {
      o.seed = std::strtoull(need_value(i), nullptr, 0);
    } else if (a == "--window") {
      o.window_cycles = std::strtoull(need_value(i), nullptr, 0);
    } else if (a == "--telemetry") {
      o.telemetry_dir = need_value(i);
    } else if (a == "--txn-trace") {
      o.txn_trace = true;
    } else if (a == "--table") {
      o.table = true;
    } else if (a == "--breakdown") {
      o.breakdown = true;
    } else if (a == "--attribution") {
      o.attribution = true;
    } else if (a == "--activity") {
      o.activity = true;
    } else if (a == "--csv") {
      o.csv = need_value(i);
    } else if (a == "--trace-out") {
      o.trace_out = need_value(i);
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--sweep") {
      o.sweep = true;
    } else if (a == "--jobs") {
      o.jobs = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 0));
    } else if (a == "--faults") {
      o.faults = true;
      o.fault_seed = std::strtoull(need_value(i), nullptr, 0);
    } else if (a == "--run-budget") {
      o.run_budget_s = std::strtod(need_value(i), nullptr);
      if (o.run_budget_s <= 0.0) usage(argv[0]);
    } else if (a == "--isolation") {
      const std::string m = need_value(i);
      if (m == "thread") {
        o.isolation = campaign::Isolation::kThread;
      } else if (m == "process") {
        o.isolation = campaign::Isolation::kProcess;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--journal") {
      o.journal_dir = need_value(i);
    } else if (a == "--resume") {
      o.resume = true;
    } else if (a == "--status-port") {
      o.status_port = std::strtol(need_value(i), nullptr, 0);
      if (o.status_port < 0 || o.status_port > 65535) usage(argv[0]);
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--stall-after") {
      o.stall_after_s = std::strtod(need_value(i), nullptr);
      if (o.stall_after_s <= 0.0) usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (o.masters < 1 || o.masters > 8 || o.slaves < 1 || o.slaves > 8) {
    usage(argv[0]);
  }
  if (!o.journal_dir.empty() && !o.sweep) {
    std::fputs("--journal requires --sweep\n", stderr);
    std::exit(2);
  }
  if (o.resume && o.journal_dir.empty()) {
    std::fputs("--resume requires --journal DIR\n", stderr);
    std::exit(2);
  }
  if (o.status_port >= 0 && !o.sweep) {
    std::fputs("--status-port requires --sweep\n", stderr);
    std::exit(2);
  }
  if (o.progress && !o.sweep) {
    std::fputs("--progress requires --sweep\n", stderr);
    std::exit(2);
  }
  if (!o.csv.empty() && o.window_cycles == 0) {
    std::fputs("--csv requires --window\n", stderr);
    std::exit(2);
  }
  if (o.txn_trace && o.telemetry_dir.empty() && !o.sweep) {
    std::fputs("--txn-trace requires --telemetry DIR\n", stderr);
    std::exit(2);
  }
  // Telemetry needs a window; default to the 1000-cycle granularity of
  // the acceptance workflow when none was given.
  if (!o.telemetry_dir.empty() && o.window_cycles == 0) o.window_cycles = 1000;
  return o;
}

/// `dir/name`, with the directory created on first use. All artifacts
/// are then committed through AtomicFile so an interrupt mid-write can
/// never leave a truncated file behind.
std::filesystem::path output_path(const std::string& dir, const char* name) {
  std::filesystem::create_directories(dir);
  return std::filesystem::path(dir) / name;
}

/// Runs one atomic file emission; I/O failure is a usage-class error.
template <typename Fn>
void emit_or_die(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

// First SIGINT/SIGTERM requests a graceful stop: the campaign cancel
// flag (or the kernel's cooperative cancel in single-run mode) drains
// in-flight runs, journals them and still emits the degraded report.
// A second signal gives up and force-exits with 128+sig.
std::atomic<bool> g_interrupted{false};
std::atomic<int> g_signal{0};

extern "C" void on_signal(int sig) {
  if (g_interrupted.exchange(true)) _exit(128 + sig);
  g_signal.store(sig);
}

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// The --faults rate card: uniform seed-driven RETRY / ERROR /
/// wait-state jitter on every slave. SPLIT stays off here because the
/// pipelined TrafficMaster does not rework split transfers (the
/// serialized ScriptedMaster does; see tests/ahb/test_faults.cpp).
fault::SlaveFaultConfig cli_fault_rates() {
  fault::SlaveFaultConfig rates;
  rates.retry_rate = 0.02;
  rates.error_rate = 0.005;
  rates.jitter_rate = 0.05;
  rates.max_extra_waits = 3;
  return rates;
}

/// The injector for one run, or null when --faults is off. The caller
/// keeps it alive for the whole simulation: slave hooks point into it.
std::unique_ptr<fault::FaultInjector> make_injector(
    const Options& o, telemetry::MetricsRegistry* metrics) {
  if (!o.faults) return nullptr;
  return std::make_unique<fault::FaultInjector>(
      fault::FaultPlan::uniform(o.fault_seed, cli_fault_rates(), o.slaves),
      metrics);
}

/// The CLI's paper testbench: the default master, o.masters traffic
/// masters, o.slaves memory slaves (behind the fault injector under
/// --faults), a non-fatal protocol monitor and the power estimator.
/// `metrics` feeds the injector and the monitor; null leaves them off.
struct PaperRig {
  PaperRig(const Options& o, telemetry::MetricsRegistry* metrics,
           const power::AhbPowerEstimator::Config& est_cfg)
      : clk(&top, "clk", sim::SimTime::ns(kClockNs), 0.5,
            sim::SimTime::ns(kClockNs)),
        bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = o.policy}),
        dm(&top, "default_master", bus) {
    for (unsigned m = 0; m < o.masters; ++m) {
      masters.push_back(std::make_unique<ahb::TrafficMaster>(
          &top, "m" + std::to_string(m + 1), bus,
          ahb::TrafficMaster::Config{
              .addr_base = 0x1000u * (m % o.slaves),
              .addr_range = 0x1000,
              .seed = o.seed + 97 * m,
          }));
    }
    injector = make_injector(o, metrics);
    for (unsigned s = 0; s < o.slaves; ++s) {
      slaves.push_back(std::make_unique<ahb::MemorySlave>(
          &top, "s" + std::to_string(s + 1), bus,
          ahb::MemorySlave::Config{
              .base = 0x1000u * s,
              .size = 0x1000,
              .wait_states = o.waits,
              .fault_hook = injector ? injector->hook(s) : ahb::FaultHook{}}));
    }
    bus.finalize();
    mon = std::make_unique<ahb::BusMonitor>(
        &top, "monitor", bus,
        ahb::BusMonitor::Config{.fatal = false, .metrics = metrics});
    est = std::make_unique<power::AhbPowerEstimator>(&top, "power", bus, est_cfg);
  }

  sim::Kernel kernel;
  sim::Module top{nullptr, "top"};
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  std::vector<std::unique_ptr<ahb::TrafficMaster>> masters;
  /// Null unless --faults; outlives the slaves whose hooks point into it.
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<std::unique_ptr<ahb::MemorySlave>> slaves;
  std::unique_ptr<ahb::BusMonitor> mon;
  std::unique_ptr<power::AhbPowerEstimator> est;
};

/// One --sweep configuration as a campaign spec: the CLI topology with
/// a given arbitration policy and wait-state count, run for o.cycles.
campaign::RunSpec sweep_spec(const Options& o, ahb::ArbitrationPolicy policy,
                             unsigned waits) {
  Options run = o;
  run.policy = policy;
  run.waits = waits;
  const std::string name =
      std::string(policy == ahb::ArbitrationPolicy::kFixedPriority ? "fixed"
                                                                   : "rr") +
      "/w" + std::to_string(waits);
  return {name, [run] {
            PaperRig rig(run, nullptr,
                         power::AhbPowerEstimator::Config{.txn_trace = true});
            rig.kernel.run(sim::SimTime::ns(kClockNs) *
                           static_cast<std::int64_t>(run.cycles));
            power::AhbPowerEstimator& est = *rig.est;
            est.flush_telemetry();

            campaign::PowerReport r;
            r.total_energy = est.total_energy();
            r.blocks = est.block_totals();
            r.cycles = est.fsm().cycles();
            r.transfers = rig.mon->stats().transfers;
            r.metrics["data_share"] = power::data_transfer_share(est.fsm());
            r.metrics["arb_share"] = power::arbitration_share(est.fsm());
            const power::TransactionTracer& txn = *est.txn_tracer();
            r.bus_energy_j = txn.attribution().bus_energy();
            for (unsigned m = 0; m <= run.masters; ++m) {
              r.attribution.push_back(
                  {txn.attribution().master_energy()[m],
                   txn.master_txns()[m]});
            }
            return r;
          }};
}

/// Fingerprint of everything that determines a sweep's results. A
/// journal records it so --resume refuses to mix outcomes produced by
/// a differently parameterized campaign into the new report. Thread
/// count and isolation mode are deliberately excluded: results are
/// documented to be bit-identical across both.
std::uint64_t sweep_fingerprint(const Options& o,
                                const std::vector<campaign::RunSpec>& specs) {
  std::string canon = "cycles=" + std::to_string(o.cycles) +
                      ";masters=" + std::to_string(o.masters) +
                      ";slaves=" + std::to_string(o.slaves) +
                      ";seed=" + std::to_string(o.seed) + ";faults=" +
                      (o.faults ? std::to_string(o.fault_seed)
                                : std::string("off")) +
                      ";run_budget=" + std::to_string(o.run_budget_s) +
                      ";specs=";
  for (const campaign::RunSpec& s : specs) {
    canon += s.name;
    canon += ',';
  }
  return campaign::fnv1a64(canon);
}

int run_sweep(const Options& o) {
  std::vector<campaign::RunSpec> specs;
  for (const auto policy : {ahb::ArbitrationPolicy::kFixedPriority,
                            ahb::ArbitrationPolicy::kRoundRobin}) {
    for (const unsigned waits : {0u, 1u, 3u}) {
      specs.push_back(sweep_spec(o, policy, waits));
    }
  }
  campaign::Campaign::Config pool_cfg;
  pool_cfg.threads = o.jobs;
  pool_cfg.isolation = o.isolation;
  pool_cfg.cancel = &g_interrupted;
  if (o.run_budget_s > 0.0) {
    pool_cfg.run_budget.max_wall_seconds = o.run_budget_s;
  }
  const campaign::Campaign pool(pool_cfg);

  // Write-ahead journal: every finished run is durably appended before
  // the campaign moves on, so a crash or kill mid-sweep loses at most
  // the runs still in flight. --resume replays the journal instead of
  // re-executing what already completed.
  std::unique_ptr<campaign::JournalWriter> journal;
  campaign::JournalLoadResult restored;
  const std::uint64_t fingerprint = sweep_fingerprint(o, specs);
  if (!o.journal_dir.empty()) {
    std::filesystem::create_directories(o.journal_dir);
    const std::filesystem::path jpath =
        std::filesystem::path(o.journal_dir) / "campaign.journal";
    if (o.resume) {
      restored = campaign::load_journal(jpath);
      if (!restored.ok()) {
        std::fprintf(stderr, "cannot resume: %s\n", restored.error.c_str());
        return 2;
      }
      if (std::filesystem::exists(jpath) &&
          restored.config_fingerprint != fingerprint) {
        std::fprintf(stderr,
                     "cannot resume: %s was journaled with different campaign "
                     "parameters (cycles/topology/seed/faults/run-budget); "
                     "rerun without --resume to start over\n",
                     jpath.string().c_str());
        return 2;
      }
      if (!restored.outcomes.empty()) {
        std::printf("resuming: %zu run(s) restored from %s%s\n",
                    restored.outcomes.size(), jpath.string().c_str(),
                    restored.torn_tail ? " (torn tail discarded)" : "");
      }
    } else {
      // A fresh sweep must not inherit a previous campaign's entries.
      std::error_code ec;
      std::filesystem::remove(jpath, ec);
    }
    try {
      // Also truncates any torn tail the interrupted campaign left, so
      // new appends never land after a partial frame.
      journal = std::make_unique<campaign::JournalWriter>(jpath, fingerprint);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // --- live observability ---------------------------------------------
  // Event log (persisted to DIR/events.jsonl when --telemetry names a
  // directory), progress tracker and the optional HTTP status endpoint.
  // Everything is wired before the first run starts so /status answers
  // for the whole sweep.
  telemetry::EventLog::Config ev_cfg;
  ev_cfg.config_fingerprint = fingerprint;
  if (!o.telemetry_dir.empty()) {
    std::filesystem::create_directories(o.telemetry_dir);
    ev_cfg.file = std::filesystem::path(o.telemetry_dir) / "events.jsonl";
  }
  telemetry::EventLog events(ev_cfg);
  campaign::ProgressTracker tracker(campaign::ProgressTracker::Config{
      .stall_after_seconds = o.stall_after_s});
  tracker.set_fingerprint(fingerprint);
  tracker.attach(events);

  // Campaign-level metrics behind GET /metrics: lifecycle counters fed
  // by an event listener, plus snapshot gauges refreshed per scrape.
  // Handles are registered here, before any concurrent emission -- the
  // registry's registration contract.
  telemetry::MetricsRegistry metrics;
  telemetry::Counter& m_events = metrics.counter("campaign.events");
  telemetry::Counter& m_ok = metrics.counter("campaign.runs_ok");
  telemetry::Counter& m_failed = metrics.counter("campaign.runs_failed");
  telemetry::Counter& m_crashed = metrics.counter("campaign.runs_crashed");
  telemetry::Counter& m_timed_out = metrics.counter("campaign.runs_timed_out");
  telemetry::Counter& m_cancelled = metrics.counter("campaign.runs_cancelled");
  telemetry::Counter& m_retries = metrics.counter("campaign.retries");
  telemetry::Counter& m_journal = metrics.counter("campaign.journal_appends");
  telemetry::Counter& m_watchdog = metrics.counter("campaign.watchdog_trips");
  telemetry::Counter& m_stalls = metrics.counter("campaign.worker_stalls");
  telemetry::Gauge& g_done = metrics.gauge("campaign.done");
  telemetry::Gauge& g_in_flight = metrics.gauge("campaign.in_flight");
  telemetry::Gauge& g_rps = metrics.gauge("campaign.runs_per_sec");
  telemetry::Gauge& g_eta = metrics.gauge("campaign.eta_seconds");
  events.add_listener([&](const telemetry::Event& ev) {
    m_events.add(1);
    if (ev.type == "run_finish") {
      const std::string_view st = ev.str("status");
      if (st == "ok") m_ok.add(1);
      else if (st == "failed") m_failed.add(1);
      else if (st == "crashed") m_crashed.add(1);
      else if (st == "timed_out") m_timed_out.add(1);
      else if (st == "cancelled") m_cancelled.add(1);
    } else if (ev.type == "run_retry") {
      m_retries.add(1);
    } else if (ev.type == "journal_append") {
      m_journal.add(1);
    } else if (ev.type == "watchdog_trip") {
      m_watchdog.add(1);
    } else if (ev.type == "worker_stalled") {
      m_stalls.add(1);
    }
  });

  std::unique_ptr<telemetry::StatusServer> server;
  if (o.status_port >= 0) {
    telemetry::StatusServer::Config scfg;
    scfg.port = static_cast<std::uint16_t>(o.status_port);
    scfg.status_json = [&tracker] { return tracker.status_json(); };
    scfg.metrics_text = [&] {
      const campaign::ProgressTracker::Snapshot s = tracker.snapshot();
      g_done.set(static_cast<double>(s.done));
      g_in_flight.set(static_cast<double>(s.in_flight));
      g_rps.set(s.runs_per_sec);
      g_eta.set(s.eta_seconds);
      std::ostringstream out;
      telemetry::write_prometheus_text(out, metrics);
      return out.str();
    };
    scfg.events_jsonl = [&events](std::uint64_t after) {
      return events.render_since(after);
    };
    try {
      server = std::make_unique<telemetry::StatusServer>(std::move(scfg));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 4;
    }
    // The exact line the ctest smoke probe parses; flushed explicitly
    // because stdout is fully buffered when piped.
    std::printf("status server listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server->port()));
    std::fflush(stdout);
  }

  campaign::Campaign::RunOptions ropts;
  ropts.journal = journal.get();
  if (o.resume) ropts.resume = &restored.outcomes;
  ropts.events = &events;
  ropts.progress = &tracker;
  // Deferred journal-append failures (disk full, EIO) surface here
  // instead of as an exception: the completed runs are still reported.
  std::string journal_error;
  ropts.journal_error = &journal_error;
  std::vector<campaign::RunOutcome> outcomes;
  const bool show_progress = o.progress && ::isatty(2) != 0;
  {
    // --progress: one stderr status line, redrawn in place at <= 4 Hz.
    // The jthread's stop+join on scope exit also covers the error
    // return below.
    std::jthread progress_line;
    if (show_progress) {
      progress_line = std::jthread([&tracker](const std::stop_token& st) {
        while (!st.stop_requested()) {
          const campaign::ProgressTracker::Snapshot s = tracker.snapshot();
          std::string eta = "--";
          if (s.eta_seconds >= 0.0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.0fs", s.eta_seconds);
            eta = buf;
          }
          std::fprintf(stderr,
                       "\r[sweep] %llu/%llu done | %llu in flight | "
                       "%.2f runs/s | eta %s | %llu stalled   ",
                       static_cast<unsigned long long>(s.done + s.restored),
                       static_cast<unsigned long long>(s.total),
                       static_cast<unsigned long long>(s.in_flight),
                       s.runs_per_sec, eta.c_str(),
                       static_cast<unsigned long long>(s.stalled_workers));
          std::fflush(stderr);
          // 250 ms refresh, sliced so stop is prompt.
          for (int i = 0; i < 50 && !st.stop_requested(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }
      });
    }
    try {
      outcomes = pool.run(specs, ropts);
    } catch (const std::exception& e) {
      // Campaign infrastructure failure (fork/pipe exhaustion): nothing
      // to report, but exit deliberately rather than via std::terminate.
      std::fprintf(stderr, "sweep failed: %s\n", e.what());
      return 2;
    }
  }
  if (show_progress) std::fputc('\n', stderr);
  if (g_interrupted.load()) {
    // The drain already happened inside pool.run; record that the
    // timeline ends on a signal, not a natural campaign_finish.
    events.emit("sigint_drain",
                {telemetry::field_u64(
                    "signal", static_cast<std::uint64_t>(g_signal.load()))});
  }

  std::printf("ahbpower sweep: %zu configs, %llu cycles each, %u threads\n",
              specs.size(), static_cast<unsigned long long>(o.cycles),
              pool.threads());
  std::printf("%-10s | %10s %10s %14s %10s %9s\n", "config", "cycles",
              "transfers", "total energy", "data %", "arb %");
  int rc = 0;
  for (const auto& out : outcomes) {
    if (out.status != campaign::RunStatus::kOk) {
      std::printf("%-10s | %s: %s\n", out.name.c_str(),
                  campaign::to_string(out.status), out.error.c_str());
      rc = 3;
      continue;
    }
    const campaign::PowerReport& r = out.report;
    std::printf("%-10s | %10llu %10llu %14s %9.1f%% %8.1f%%\n", out.name.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.transfers),
                power::format_energy(r.total_energy).c_str(),
                100.0 * r.metrics.at("data_share"),
                100.0 * r.metrics.at("arb_share"));
  }
  if (!journal_error.empty()) {
    std::fprintf(stderr,
                 "warning: write-ahead journaling failed (%s); results above "
                 "are complete but the journal is not resumable\n",
                 journal_error.c_str());
    rc = 3;
  }
  if (!o.telemetry_dir.empty()) {
    emit_or_die([&] {
      campaign::write_campaign_json_file(
          output_path(o.telemetry_dir, "campaign.json"), outcomes,
          campaign::CampaignReportMeta{.name = "ahbpower_cli --sweep",
                                       .cycles = o.cycles,
                                       .threads = pool.threads()});
    });
    std::printf("campaign report written to %s/campaign.json\n",
                o.telemetry_dir.c_str());
  }
  if (g_interrupted.load()) {
    std::fprintf(stderr, "sweep interrupted by signal %d; partial results "
                 "journaled and reported\n", g_signal.load());
    return 128 + g_signal.load();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  install_signal_handlers();
  if (o.sweep) return run_sweep(o);

  telemetry::MetricsRegistry metrics;
  const bool telemetry_on = !o.telemetry_dir.empty();
  PaperRig rig(o, telemetry_on ? &metrics : nullptr,
               power::AhbPowerEstimator::Config{
                   .telemetry_window_cycles =
                       telemetry_on || !o.csv.empty() ? o.window_cycles : 0,
                   .txn_trace = o.txn_trace,
                   .metrics = telemetry_on ? &metrics : nullptr});
  sim::Kernel& kernel = rig.kernel;
  kernel.set_cancel_flag(&g_interrupted);
  if (o.run_budget_s > 0.0) {
    kernel.set_budget(sim::RunBudget{.max_wall_seconds = o.run_budget_s});
  }
  const ahb::BusMonitor& mon = *rig.mon;
  power::AhbPowerEstimator& est = *rig.est;
  std::unique_ptr<ahb::TraceRecorder> recorder;
  if (!o.trace_out.empty()) {
    recorder = std::make_unique<ahb::TraceRecorder>(&rig.top, "recorder", rig.bus);
  }

  try {
    kernel.run(sim::SimTime::ns(kClockNs) *
               static_cast<std::int64_t>(o.cycles));
  } catch (const sim::BudgetExceededError& e) {
    std::fprintf(stderr, "run aborted: %s\n", e.what());
    return 3;
  } catch (const sim::RunCancelledError&) {
    std::fprintf(stderr, "run interrupted by signal %d\n", g_signal.load());
    return 128 + g_signal.load();
  }
  est.flush_telemetry();

  const double secs = kernel.now().to_seconds();
  std::printf("ahbpower: %llu cycles @ 100 MHz | %llu transfers | %s | avg %s | "
              "data %.1f%% arb %.1f%% | %zu violations\n",
              static_cast<unsigned long long>(est.fsm().cycles()),
              static_cast<unsigned long long>(mon.stats().transfers),
              power::format_energy(est.total_energy()).c_str(),
              power::format_power(est.total_energy() / secs).c_str(),
              100.0 * power::data_transfer_share(est.fsm()),
              100.0 * power::arbitration_share(est.fsm()),
              mon.violations().size());
  if (rig.injector) {
    const fault::FaultInjector::Stats& fs = rig.injector->stats();
    std::printf("faults (seed %llu): %llu transfers hit | %llu retries | "
                "%llu errors | %llu jitter cycles\n",
                static_cast<unsigned long long>(o.fault_seed),
                static_cast<unsigned long long>(fs.retries + fs.errors +
                                                fs.splits + fs.jitter_hits),
                static_cast<unsigned long long>(fs.retries),
                static_cast<unsigned long long>(fs.errors),
                static_cast<unsigned long long>(fs.jitter_cycles));
  }

  if (telemetry_on) {
    const telemetry::ExportMeta meta{.tick_ns = static_cast<double>(kClockNs),
                                     .process_name = "ahbpower"};
    emit_or_die([&] {
      telemetry::write_window_csv_file(
          output_path(o.telemetry_dir, "power_windows.csv"), *est.windows(),
          meta);
      telemetry::write_window_json_file(
          output_path(o.telemetry_dir, "power_windows.json"), *est.windows(),
          meta);
      telemetry::write_chrome_trace_file(
          output_path(o.telemetry_dir, "trace.json"), *est.trace_events(),
          est.windows(), meta);
    });
    if (o.txn_trace) {
      const power::TransactionTracer& txn = *est.txn_tracer();
      // Per-master span tracks named after the module hierarchy.
      telemetry::ExportMeta txn_meta = meta;
      txn_meta.threads.emplace_back(telemetry::txn_track_tid(0),
                                    "default_master");
      for (unsigned m = 0; m < o.masters; ++m) {
        txn_meta.threads.emplace_back(telemetry::txn_track_tid(m + 1),
                                      "m" + std::to_string(m + 1));
      }
      emit_or_die([&] {
        telemetry::write_txn_csv_file(output_path(o.telemetry_dir, "txns.csv"),
                                      txn.log());
        telemetry::write_txn_json_file(
            output_path(o.telemetry_dir, "txns.json"), txn.log(),
            txn.summary(est.total_energy()), meta);
        telemetry::write_chrome_trace_file(
            output_path(o.telemetry_dir, "txn_trace.json"), txn.spans(),
            nullptr, txn_meta);
      });
    }
    {
      // Run-level and scheduler-level context beside the power metrics.
      metrics.counter("run.transfers").add(mon.stats().transfers);
      metrics.counter("run.protocol_violations").add(mon.violations().size());
      metrics.counter("sim.deltas").add(kernel.delta_count());
      metrics.counter("sim.processes_executed")
          .add(kernel.stats().processes_executed);
      metrics.counter("sim.timed_notifications")
          .add(kernel.stats().timed_notifications);
      metrics.counter("sim.time_advances").add(kernel.stats().time_advances);
      metrics.gauge("run.simulated_seconds").set(secs);
      emit_or_die([&] {
        telemetry::write_metrics_json_file(
            output_path(o.telemetry_dir, "metrics.json"), metrics);
      });
    }
    std::printf(
        "telemetry written to %s (power_windows.csv, power_windows.json, "
        "trace.json, metrics.json%s; window = %llu cycles)\n",
        o.telemetry_dir.c_str(),
        o.txn_trace ? ", txns.csv, txns.json, txn_trace.json" : "",
        static_cast<unsigned long long>(o.window_cycles));
  }
  if (o.quiet) return 0;

  if (o.table) {
    std::putchar('\n');
    std::fputs(power::format_instruction_table(est.fsm()).c_str(), stdout);
  }
  if (o.breakdown) {
    std::putchar('\n');
    std::fputs(power::format_block_breakdown(est.block_totals()).c_str(), stdout);
  }
  if (o.attribution) {
    std::vector<std::string> names{"default_master"};
    for (unsigned m = 0; m < o.masters; ++m) {
      names.push_back("m" + std::to_string(m + 1));
    }
    std::putchar('\n');
    std::fputs(power::format_master_attribution(est.fsm(), names).c_str(), stdout);
  }
  if (o.activity) {
    std::putchar('\n');
    std::fputs(power::format_activity_report(est.fsm().activity()).c_str(), stdout);
  }
  if (!o.csv.empty()) {
    emit_or_die([&] {
      std::ostringstream csv;
      power::write_trace_csv(csv, *est.windows(), rig.clk.period());
      telemetry::AtomicFile::publish(o.csv, csv.view());
    });
    std::printf("\npower trace written to %s\n", o.csv.c_str());
  }
  if (recorder) {
    emit_or_die([&] {
      std::ostringstream trace;
      recorder->trace().save(trace);
      telemetry::AtomicFile::publish(o.trace_out, trace.view());
    });
    std::printf("transaction trace (%zu transfers) written to %s\n",
                recorder->trace().size(), o.trace_out.c_str());
  }
  return 0;
}
