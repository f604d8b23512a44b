#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "telemetry/events.hpp"

namespace ahbp::campaign {

namespace {

using Clock = std::chrono::steady_clock;

using telemetry::field_f64;
using telemetry::field_str;
using telemetry::field_u64;

/// Installs the campaign's per-run kernel defaults on the current
/// thread for the duration of a scope (restored to unlimited on exit).
struct ThreadDefaultsGuard {
  ThreadDefaultsGuard(const sim::RunBudget& budget,
                      const std::atomic<bool>* cancel) {
    sim::Kernel::set_thread_defaults(budget, cancel);
  }
  ~ThreadDefaultsGuard() { sim::Kernel::clear_thread_defaults(); }
  ThreadDefaultsGuard(const ThreadDefaultsGuard&) = delete;
  ThreadDefaultsGuard& operator=(const ThreadDefaultsGuard&) = delete;
};

/// Runs `spec.run()` once, classifying the ending. Returns the status.
RunStatus attempt(const RunSpec& spec, std::size_t i, RunOutcome& out) {
  try {
    out.report = spec.run();
    out.error.clear();
    return RunStatus::kOk;
  } catch (const sim::RunCancelledError& e) {
    out.error = "spec[" + std::to_string(i) + "] " + spec.name + ": " + e.what();
    return RunStatus::kCancelled;
  } catch (const sim::BudgetExceededError& e) {
    out.error = "spec[" + std::to_string(i) + "] " + spec.name + ": " + e.what();
    return RunStatus::kTimedOut;
  } catch (const sim::DeadlockError& e) {
    out.error = "spec[" + std::to_string(i) + "] " + spec.name + ": " + e.what();
    return RunStatus::kTimedOut;
  } catch (const std::exception& e) {
    out.error = "spec[" + std::to_string(i) + "] " + spec.name + ": " + e.what();
    return RunStatus::kFailed;
  } catch (...) {
    out.error =
        "spec[" + std::to_string(i) + "] " + spec.name + ": unknown exception";
    return RunStatus::kFailed;
  }
}

/// Executes spec `i` into its pre-allocated outcome slot. Runs on a
/// pool thread (or inside a forked worker); everything it touches is
/// private to the slot. `events` narrates the in-process retry (null in
/// forked children -- the parent owns the log).
void execute(const RunSpec& spec, std::size_t i, RunOutcome& out,
             bool retry_transient, telemetry::EventLog* events) {
  out.index = i;
  out.name = spec.name;
  const auto t0 = Clock::now();
  out.status = attempt(spec, i, out);
  out.attempts = 1;
  if (out.status == RunStatus::kFailed && retry_transient) {
    if (events != nullptr) {
      events->emit("run_retry",
                   {field_u64("run", i), field_str("name", spec.name)});
    }
    // One more try: a transient crash (resource blip, rare race in the
    // workload itself) completes now; a deterministic one fails again.
    out.status = attempt(spec, i, out);
    out.attempts = 2;
  }
  out.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One run_finish event per terminal outcome (any status, including
/// cancelled-without-starting: attempts stays 0 there).
void emit_run_finish(telemetry::EventLog* events, const RunOutcome& out) {
  if (events == nullptr) return;
  events->emit("run_finish",
               {field_u64("run", out.index), field_str("name", out.name),
                field_str("status", to_string(out.status)),
                field_f64("wall_seconds", out.wall_seconds),
                field_u64("attempts", out.attempts)});
}

/// Marks a spec that was never started because the campaign was
/// cancelled (wall deadline or external cancel) before a worker
/// claimed it.
void mark_unstarted(const RunSpec& spec, std::size_t i, RunOutcome& out) {
  out.index = i;
  out.name = spec.name;
  out.status = RunStatus::kCancelled;
  out.attempts = 0;
  out.wall_seconds = 0.0;
  out.error = "spec[" + std::to_string(i) + "] " + spec.name +
              ": not started (campaign cancelled or deadline exceeded)";
}

/// Stable names for the signals worker processes realistically die on
/// (strsignal() is locale-dependent; reports must be deterministic).
const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

/// Appends `out` to the journal, remembering the first failure instead
/// of throwing across a pool thread.
class JournalSink {
 public:
  JournalSink(JournalWriter* writer, telemetry::EventLog* events)
      : writer_(writer), events_(events) {}

  void record(const RunOutcome& out) {
    // Cancelled specs never ran; leaving them out of the journal is
    // what makes --resume re-execute them. The append runs under the
    // lock: pool threads race record() against the catch path's
    // writer_ reset otherwise. Appends were already serialized by the
    // writer's own mutex, so this costs no extra parallelism. The
    // journal_append event is emitted after the lock is released --
    // the event log has its own mutex and listeners of its own.
    bool appended = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (writer_ == nullptr || out.status == RunStatus::kCancelled) return;
      try {
        writer_->append(out);
        appended = true;
      } catch (const std::exception& e) {
        if (error_.empty()) error_ = e.what();
        writer_ = nullptr;  // no point journaling further
      }
    }
    if (appended && events_ != nullptr) {
      events_->emit("journal_append", {field_u64("run", out.index)});
    }
  }

  /// The first deferred journaling failure, or empty.
  [[nodiscard]] std::string error() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

  /// Rethrows a deferred journaling failure on the caller's thread.
  void rethrow() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_.empty()) throw std::runtime_error(error_);
  }

 private:
  JournalWriter* writer_;
  telemetry::EventLog* events_;
  std::mutex mutex_;
  std::string error_;
};

// --- process isolation ------------------------------------------------------

/// One live forked worker and its result pipe.
struct ChildProc {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the result pipe
  std::size_t index = 0;
  Clock::time_point start{};
  std::string buf;       ///< frame bytes received so far
  unsigned spawns = 1;   ///< process-level attempts (crash respawn)
  bool killed_timeout = false;
  bool killed_cancel = false;
};

/// Decodes the child's framed RunOutcome. Returns false when the frame
/// is incomplete or fails its checksum -- the child died mid-write.
bool parse_result_frame(const std::string& buf, RunOutcome& out) {
  if (buf.size() < 12) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
           << (8 * i);
  }
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    checksum |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(buf[4 + i]))
        << (8 * i);
  }
  if (buf.size() != 12u + len) return false;
  const std::string_view payload(buf.data() + 12, len);
  if (fnv1a64(payload) != checksum) return false;
  return decode_outcome(payload, out);
}

/// Removes leading heartbeat frames (empty-payload frames, 12 bytes
/// each) from a child's receive buffer so parse_result_frame only ever
/// sees the result frame. Returns how many heartbeats were consumed.
/// A result frame always has a nonzero payload, so len == 0 plus the
/// empty-string checksum identifies a heartbeat unambiguously.
std::size_t strip_heartbeats(std::string& buf) {
  const std::uint64_t empty_checksum = fnv1a64(std::string_view{});
  std::size_t stripped = 0;
  while (buf.size() >= 12) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    }
    if (len != 0) break;
    std::uint64_t checksum = 0;
    for (int i = 0; i < 8; ++i) {
      checksum |=
          static_cast<std::uint64_t>(static_cast<unsigned char>(buf[4 + i]))
          << (8 * i);
    }
    if (checksum != empty_checksum) break;  // torn garbage, not a beat
    buf.erase(0, 12);
    ++stripped;
  }
  return stripped;
}

/// Forks one worker for spec `i`. The child executes the spec with the
/// campaign's run budget installed, streams its framed outcome through
/// the pipe and _exits without running atexit handlers (the parent's
/// buffered state must not be flushed twice).
///
/// While the spec runs, a child-side heartbeat thread writes one
/// empty-payload frame per `heartbeat_interval` onto the pipe -- the
/// liveness signal behind stalled-worker diagnosis. SIGSTOP (or a
/// genuine wedge) freezes the whole child including that thread, so
/// silence really does mean "not making progress". The thread is
/// joined before the result frame is written: heartbeats and the
/// result never interleave, and each 12-byte beat is well under
/// PIPE_BUF so beats are atomic on the wire.
ChildProc spawn_worker(const RunSpec& spec, std::size_t i,
                       const sim::RunBudget& budget, bool retry_transient,
                       double heartbeat_interval) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("campaign: pipe() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("campaign: fork() failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    RunOutcome out;
    std::atomic<bool> run_done{false};
    std::thread beater;
    if (heartbeat_interval > 0.0) {
      const int pipe_fd = fds[1];
      beater = std::thread([&run_done, pipe_fd, heartbeat_interval] {
        const std::string beat = frame_payload(std::string_view{});
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(heartbeat_interval));
        auto next_beat = Clock::now() + interval;
        while (!run_done.load(std::memory_order_acquire)) {
          // Short sleep slices so join() after the run is prompt.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          if (Clock::now() < next_beat) continue;
          next_beat = Clock::now() + interval;
          std::string_view rest = beat;
          while (!rest.empty()) {
            const ssize_t n = ::write(pipe_fd, rest.data(), rest.size());
            if (n < 0) {
              if (errno == EINTR) continue;
              return;  // parent went away; nobody is listening
            }
            rest.remove_prefix(static_cast<std::size_t>(n));
          }
        }
      });
    }
    {
      ThreadDefaultsGuard guard(budget, nullptr);
      execute(spec, i, out, retry_transient, nullptr);
    }
    run_done.store(true, std::memory_order_release);
    if (beater.joinable()) beater.join();
    const std::string frame = frame_payload(encode_outcome(out));
    std::string_view rest = frame;
    while (!rest.empty()) {
      const ssize_t n = ::write(fds[1], rest.data(), rest.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        ::_exit(1);
      }
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  ChildProc child;
  child.pid = pid;
  child.fd = fds[0];
  child.index = i;
  child.start = Clock::now();
  return child;
}

void run_process_pool(const Campaign::Config& cfg, unsigned threads,
                      const std::vector<RunSpec>& specs,
                      std::vector<RunOutcome>& outcomes,
                      const std::vector<char>& restored, JournalSink& journal,
                      const std::function<bool()>& cancel_requested,
                      telemetry::EventLog* events, ProgressTracker* progress);

}  // namespace

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kTimedOut: return "timed_out";
    case RunStatus::kCancelled: return "cancelled";
    case RunStatus::kCrashed: return "crashed";
  }
  return "unknown";
}

Campaign::Campaign(Config cfg)
    : cfg_(cfg), threads_(cfg.threads != 0 ? cfg.threads : hardware_threads()) {}

unsigned Campaign::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

std::vector<RunOutcome> Campaign::run(const std::vector<RunSpec>& specs) const {
  return run(specs, RunOptions{});
}

std::vector<RunOutcome> Campaign::run(const std::vector<RunSpec>& specs,
                                      const RunOptions& opts) const {
  std::vector<RunOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;

  // Restore journaled outcomes first: a slot that matches a journal
  // entry by index and name is already done and must not execute again.
  // Cancelled entries re-run (they never produced a result).
  std::vector<char> restored(specs.size(), 0);
  if (opts.resume != nullptr) {
    for (const RunOutcome& o : *opts.resume) {
      if (o.index >= specs.size() || o.name != specs[o.index].name) continue;
      if (o.status == RunStatus::kCancelled) continue;
      outcomes[o.index] = o;
      outcomes[o.index].resumed = true;
      restored[o.index] = 1;
    }
  }

  telemetry::EventLog* const events = opts.events;
  if (events != nullptr) {
    events->emit(
        "campaign_start",
        {field_u64("runs", specs.size()), field_u64("threads", threads_),
         field_str("isolation", cfg_.isolation == Isolation::kProcess
                                    ? "process"
                                    : "thread")});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (restored[i]) {
        events->emit("run_restored",
                     {field_u64("run", i), field_str("name", specs[i].name)});
      }
    }
  }

  JournalSink journal(opts.journal, events);
  // A journaling failure never invalidates the outcomes themselves;
  // callers that pass journal_error get them back with the error on
  // the side instead of losing the whole sweep to a throw.
  const auto finish_journal = [&journal, &opts] {
    if (opts.journal_error != nullptr) {
      *opts.journal_error = journal.error();
      return;
    }
    journal.rethrow();
  };

  // The closing tally: executed terminal statuses plus the restored
  // count (restored slots emitted run_restored, never run_finish, so
  // ok+failed+crashed+timed_out+cancelled+restored == runs).
  const auto emit_campaign_finish = [&outcomes, events] {
    if (events == nullptr) return;
    std::uint64_t ok = 0, failed = 0, crashed = 0, timed_out = 0,
                  cancelled = 0, restored_n = 0;
    for (const RunOutcome& o : outcomes) {
      if (o.resumed) {
        ++restored_n;
        continue;
      }
      switch (o.status) {
        case RunStatus::kOk: ++ok; break;
        case RunStatus::kFailed: ++failed; break;
        case RunStatus::kCrashed: ++crashed; break;
        case RunStatus::kTimedOut: ++timed_out; break;
        case RunStatus::kCancelled: ++cancelled; break;
      }
    }
    events->emit("campaign_finish",
                 {field_u64("ok", ok), field_u64("failed", failed),
                  field_u64("crashed", crashed),
                  field_u64("timed_out", timed_out),
                  field_u64("cancelled", cancelled),
                  field_u64("restored", restored_n)});
  };

  // Shared cooperative cancel flag: set when the campaign wall deadline
  // passes or the external cancel request fires; every in-flight kernel
  // polls it once per time advance.
  std::atomic<bool> cancel{false};
  const auto start = Clock::now();
  const bool deadline_armed = cfg_.campaign_wall_seconds > 0.0;
  auto cancel_requested = [&] {
    if (cancel.load(std::memory_order_relaxed)) return true;
    if (cfg_.cancel != nullptr &&
        cfg_.cancel->load(std::memory_order_relaxed)) {
      cancel.store(true, std::memory_order_relaxed);
      return true;
    }
    if (!deadline_armed) return false;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= cfg_.campaign_wall_seconds) {
      cancel.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  if (cfg_.isolation == Isolation::kProcess) {
    run_process_pool(cfg_, threads_, specs, outcomes, restored, journal,
                     cancel_requested, events, opts.progress);
    emit_campaign_finish();
    finish_journal();
    return outcomes;
  }

  // Watcher: folds the deadline and the external cancel request into
  // the shared flag *while runs are in flight* -- without it the flag
  // would only be (re)checked between claims.
  std::jthread watcher;
  if (deadline_armed || cfg_.cancel != nullptr) {
    watcher = std::jthread([&cancel_requested](const std::stop_token& st) {
      while (!st.stop_requested()) {
        if (cancel_requested()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  // Ticket scheduling: workers claim the next spec index until the
  // counter runs past the end. Outcome slots are disjoint, so no
  // synchronization beyond the counter is needed.
  std::atomic<std::size_t> next{0};
  const auto worker = [&](unsigned w) {
    ThreadDefaultsGuard guard(cfg_.run_budget, &cancel);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      if (restored[i]) continue;
      if (cancel_requested()) {
        mark_unstarted(specs[i], i, outcomes[i]);
        emit_run_finish(events, outcomes[i]);
        continue;
      }
      if (events != nullptr) {
        events->emit("run_start",
                     {field_u64("run", i), field_str("name", specs[i].name),
                      field_u64("worker", w)});
      }
      execute(specs[i], i, outcomes[i], cfg_.retry_transient, events);
      journal.record(outcomes[i]);
      emit_run_finish(events, outcomes[i]);
    }
  };
  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, specs.size()));
  if (n_workers == 1) {
    // Serial baseline: inline on the calling thread. Note the caller's
    // own Kernel (if any) must not be alive -- each spec constructs one.
    worker(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(n_workers);
    for (unsigned w = 0; w < n_workers; ++w) pool.emplace_back(worker, w);
  }  // jthread joins here; all slots are written before we return.
  emit_campaign_finish();
  finish_journal();
  return outcomes;
}

namespace {

/// The kProcess scheduler: forks up to `threads` concurrently live
/// workers *from the calling thread only* and reaps them through their
/// result pipes. No pool threads exist in this mode, so fork() never
/// races a multithreaded parent.
void run_process_pool(const Campaign::Config& cfg, unsigned threads,
                      const std::vector<RunSpec>& specs,
                      std::vector<RunOutcome>& outcomes,
                      const std::vector<char>& restored, JournalSink& journal,
                      const std::function<bool()>& cancel_requested,
                      telemetry::EventLog* events, ProgressTracker* progress) {
  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, specs.size()));
  std::vector<ChildProc> active;
  active.reserve(n_workers);
  std::size_t next = 0;

  // Finishes one child: reap it, classify the ending, fill the slot.
  // Returns false when the child should be respawned instead (transient
  // crash salvage).
  auto finalize = [&](ChildProc& child) -> bool {
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(child.fd);
    const double wall =
        std::chrono::duration<double>(Clock::now() - child.start).count();
    RunOutcome& out = outcomes[child.index];
    const RunSpec& spec = specs[child.index];

    RunOutcome received;
    const bool got_result = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                            parse_result_frame(child.buf, received);
    if (got_result && !child.killed_cancel) {
      out = std::move(received);
      // The child measured its own wall time; surface the spawn count
      // so a salvaged transient crash is visible in `attempts`.
      out.attempts += child.spawns - 1;
      journal.record(out);
      return true;
    }
    out.index = child.index;
    out.name = spec.name;
    out.wall_seconds = wall;
    out.attempts = child.spawns;
    if (child.killed_cancel) {
      out.status = RunStatus::kCancelled;
      out.error = "spec[" + std::to_string(child.index) + "] " + spec.name +
                  ": cancelled (campaign abort killed the worker)";
      return true;  // never journaled (kCancelled), never respawned
    }
    if (child.killed_timeout) {
      out.status = RunStatus::kTimedOut;
      out.error = "spec[" + std::to_string(child.index) + "] " + spec.name +
                  ": exceeded the per-run wall budget; worker killed";
      journal.record(out);
      return true;
    }
    // Hard death: signal, nonzero exit, or a torn result frame.
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    if (cfg.retry_transient && child.spawns == 1) return false;
    out.status = RunStatus::kCrashed;
    out.term_signal = sig;
    if (sig != 0) {
      out.error = "spec[" + std::to_string(child.index) + "] " + spec.name +
                  ": worker crashed with signal " + std::to_string(sig) +
                  " (" + signal_name(sig) + ")";
    } else {
      out.error = "spec[" + std::to_string(child.index) + "] " + spec.name +
                  ": worker exited without a result (exit status " +
                  std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1) +
                  ")";
    }
    journal.record(out);
    return true;
  };

  while (next < specs.size() || !active.empty()) {
    const bool cancelled = cancel_requested();

    // Claim and spawn until the worker slots are full.
    while (!cancelled && active.size() < n_workers && next < specs.size()) {
      const std::size_t i = next++;
      if (restored[i]) continue;
      active.push_back(spawn_worker(specs[i], i, cfg.run_budget,
                                    cfg.retry_transient,
                                    cfg.heartbeat_interval_seconds));
      if (events != nullptr) {
        events->emit(
            "run_start",
            {field_u64("run", i), field_str("name", specs[i].name),
             field_u64("worker",
                       static_cast<std::uint64_t>(active.back().pid))});
      }
    }
    if (cancelled) {
      while (next < specs.size()) {
        const std::size_t i = next++;
        if (restored[i]) continue;
        mark_unstarted(specs[i], i, outcomes[i]);
        emit_run_finish(events, outcomes[i]);
      }
      for (ChildProc& child : active) {
        if (!child.killed_cancel) {
          child.killed_cancel = true;
          ::kill(child.pid, SIGKILL);
        }
      }
    }
    if (active.empty()) continue;

    // Per-run wall budget: the parent enforces it with SIGKILL, which
    // is what makes even a hung (non-cooperative) worker a kTimedOut
    // outcome instead of a stuck campaign.
    if (cfg.run_budget.max_wall_seconds > 0.0) {
      for (ChildProc& child : active) {
        if (child.killed_timeout || child.killed_cancel) continue;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - child.start).count();
        if (elapsed > cfg.run_budget.max_wall_seconds) {
          child.killed_timeout = true;
          ::kill(child.pid, SIGKILL);
          if (events != nullptr) {
            events->emit(
                "watchdog_trip",
                {field_u64("run", child.index),
                 field_u64("worker", static_cast<std::uint64_t>(child.pid)),
                 field_f64("wall_seconds", elapsed)});
          }
        }
      }
    }

    std::vector<pollfd> fds;
    fds.reserve(active.size());
    for (const ChildProc& child : active) {
      fds.push_back(pollfd{child.fd, POLLIN, 0});
    }
    const int n_ready = ::poll(fds.data(), fds.size(), 20);
    if (n_ready <= 0) continue;  // timeout / EINTR: re-check budgets

    for (std::size_t k = active.size(); k-- > 0;) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(active[k].fd, chunk, sizeof chunk);
      if (n > 0) {
        active[k].buf.append(chunk, static_cast<std::size_t>(n));
        // Heartbeat frames are liveness, not payload: peel them off so
        // parse_result_frame sees exactly the result frame. Any bytes
        // arriving at all also prove the child is alive.
        strip_heartbeats(active[k].buf);
        if (progress != nullptr) {
          progress->heartbeat(static_cast<long>(active[k].pid));
        }
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      // EOF: the child is done (or dead). Finalize or respawn.
      ChildProc child = std::move(active[k]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
      if (!finalize(child)) {
        ChildProc again = spawn_worker(specs[child.index], child.index,
                                       cfg.run_budget, cfg.retry_transient,
                                       cfg.heartbeat_interval_seconds);
        again.spawns = child.spawns + 1;
        if (events != nullptr) {
          events->emit(
              "run_retry",
              {field_u64("run", child.index),
               field_str("name", specs[child.index].name),
               field_u64("worker", static_cast<std::uint64_t>(again.pid))});
        }
        active.push_back(std::move(again));
      } else {
        emit_run_finish(events, outcomes[child.index]);
      }
    }
  }
}

}  // namespace

}  // namespace ahbp::campaign
