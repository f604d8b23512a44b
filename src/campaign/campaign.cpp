#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
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
/// forked workers -- the parent owns the log).
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

/// The 12-byte header in front of every frame on a worker's socket (see
/// frame_payload): payload length and FNV-1a checksum.
struct FrameHeader {
  std::uint32_t len = 0;
  std::uint64_t checksum = 0;
};

/// Decodes the frame header at the front of `buf`; nullopt until all 12
/// header bytes have arrived.
std::optional<FrameHeader> frame_header(std::string_view buf) {
  if (buf.size() < 12) return std::nullopt;
  FrameHeader h;
  for (int i = 0; i < 4; ++i) {
    h.len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
  }
  for (int i = 0; i < 8; ++i) {
    h.checksum |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(buf[4 + i]))
        << (8 * i);
  }
  return h;
}

/// A heartbeat is an empty-payload frame. A result frame always has a
/// nonzero payload, so len == 0 plus the empty-string checksum
/// identifies a heartbeat unambiguously.
bool is_heartbeat(const FrameHeader& h) {
  static const std::uint64_t empty_checksum = fnv1a64(std::string_view{});
  return h.len == 0 && h.checksum == empty_checksum;
}

/// Writes all of `bytes` to socket `fd`. MSG_NOSIGNAL turns a write to a
/// dead peer into a false return instead of a SIGPIPE.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads the next 8-byte spec index; false on EOF (the parent retired
/// this worker) or error.
bool recv_index(int fd, std::uint64_t& index) {
  auto* bytes = reinterpret_cast<char*>(&index);
  std::size_t got = 0;
  while (got < sizeof index) {
    const ssize_t n = ::read(fd, bytes + got, sizeof index - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// The body of a forked worker: receives spec indices on `fd`, executes
/// each with the campaign's run budget installed and answers each with
/// one framed outcome. EOF on `fd` retires it; it then _exits without
/// running atexit handlers (the parent's buffered state must not be
/// flushed twice).
///
/// While a spec runs, a beater thread writes one empty-payload frame per
/// heartbeat interval -- the liveness signal behind stalled-worker
/// diagnosis. SIGSTOP (or a genuine wedge) freezes the whole worker,
/// beater included, so silence really does mean "not making progress".
/// One mutex guards the busy flag and every write on `fd`, so a beat
/// never interleaves with a result frame and never follows one.
[[noreturn]] void worker_main(int fd, const std::vector<RunSpec>& specs,
                              const Campaign::Config& cfg) {
  std::mutex mutex;
  std::condition_variable wake;
  bool busy = false;
  bool quit = false;
  std::thread beater;
  if (cfg.heartbeat_interval_seconds > 0.0) {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(cfg.heartbeat_interval_seconds));
    beater = std::thread([&, interval] {
      const std::string beat = frame_payload(std::string_view{});
      std::unique_lock<std::mutex> lock(mutex);
      for (;;) {
        wake.wait(lock, [&] { return busy || quit; });
        if (quit) return;
        // A spec that ends within the interval earns no beat.
        if (wake.wait_for(lock, interval, [&] { return !busy || quit; })) {
          continue;
        }
        if (!send_all(fd, beat)) return;  // parent went away
      }
    });
  }
  {
    ThreadDefaultsGuard guard(cfg.run_budget, nullptr);
    std::uint64_t i = 0;
    while (recv_index(fd, i) && i < specs.size()) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        busy = true;
      }
      wake.notify_one();
      RunOutcome out;
      execute(specs[i], i, out, cfg.retry_transient, nullptr);
      const std::string frame = frame_payload(encode_outcome(out));
      bool sent = false;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        busy = false;
        sent = send_all(fd, frame);
      }
      wake.notify_one();
      if (!sent) break;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    quit = true;
  }
  wake.notify_one();
  if (beater.joinable()) beater.join();
  ::_exit(0);
}

/// One persistent worker process as the parent sees it.
struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;             ///< parent end of the worker's socketpair
  bool busy = false;       ///< a spec is in flight
  std::size_t index = 0;   ///< the spec in flight (valid while busy)
  Clock::time_point start{};
  std::string buf;         ///< frame bytes received so far
  unsigned spawns = 1;     ///< process-level attempts at `index`
  bool killed_timeout = false;
  bool killed_cancel = false;
};

/// Forks one worker from the calling thread. The child first closes the
/// parent end of every other live worker's socket: a sibling holding
/// one open would keep that worker from ever seeing EOF on retirement.
WorkerProc spawn_worker(const std::vector<WorkerProc>& live,
                        const std::vector<RunSpec>& specs,
                        const Campaign::Config& cfg) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("campaign: socketpair() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("campaign: fork() failed");
  }
  if (pid == 0) {
    ::close(sv[0]);
    for (const WorkerProc& w : live) ::close(w.fd);
    worker_main(sv[1], specs, cfg);
  }
  ::close(sv[1]);
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  return w;
}

/// Waits for `pid` to exit; returns its wait status.
int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

/// The live workers of one run_process_pool call. Whatever is still
/// live when it goes out of scope (only on an exception) is killed and
/// reaped, so no path out of Campaign::run leaves a zombie.
struct LiveWorkers {
  std::vector<WorkerProc> procs;
  LiveWorkers() = default;
  LiveWorkers(const LiveWorkers&) = delete;
  LiveWorkers& operator=(const LiveWorkers&) = delete;
  ~LiveWorkers() {
    for (const WorkerProc& w : procs) {
      ::close(w.fd);
      ::kill(w.pid, SIGKILL);
      (void)reap(w.pid);
    }
  }
};

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

/// The kProcess scheduler. Forks up to `threads` persistent workers
/// *from the calling thread only* (this mode has no pool threads), hands
/// each idle worker the next unclaimed spec index, and reads results
/// and heartbeats off the workers' sockets. A worker that dies -- crash,
/// wall-budget or cancel kill -- is reaped, its spec classified, and
/// later specs go to a replacement. Once nothing is left to claim, idle
/// workers are retired (socket closed, process reaped), so every worker
/// is reaped before this returns.
void run_process_pool(const Campaign::Config& cfg, unsigned threads,
                      const std::vector<RunSpec>& specs,
                      std::vector<RunOutcome>& outcomes,
                      const std::vector<char>& restored, JournalSink& journal,
                      const std::function<bool()>& cancel_requested,
                      telemetry::EventLog* events, ProgressTracker* progress) {
  LiveWorkers live;
  std::vector<WorkerProc>& workers = live.procs;
  std::size_t next = 0;
  const auto claim = [&](std::size_t& i) {
    while (next < specs.size() && restored[next]) ++next;
    if (next >= specs.size()) return false;
    i = next++;
    return true;
  };

  // Hands spec `i` to an idle worker. A worker that died idle fails the
  // send; its EOF then ends spec `i` like any other worker death.
  const auto dispatch = [&](WorkerProc& w, std::size_t i, unsigned spawns) {
    w.busy = true;
    w.index = i;
    w.spawns = spawns;
    w.start = Clock::now();
    const std::uint64_t wire = i;
    (void)send_all(w.fd, {reinterpret_cast<const char*>(&wire), sizeof wire});
  };
  const auto emit_with_worker = [&](const char* type, const WorkerProc& w) {
    if (events == nullptr) return;
    events->emit(type,
                 {field_u64("run", w.index),
                  field_str("name", specs[w.index].name),
                  field_u64("worker", static_cast<std::uint64_t>(w.pid))});
  };

  // Classifies the spec of a worker that died while busy. Returns false
  // when the spec should be respawned instead (transient crash salvage).
  const auto finalize = [&](const WorkerProc& w, int status) -> bool {
    RunOutcome& out = outcomes[w.index];
    const RunSpec& spec = specs[w.index];
    out.index = w.index;
    out.name = spec.name;
    out.wall_seconds =
        std::chrono::duration<double>(Clock::now() - w.start).count();
    out.attempts = w.spawns;
    if (w.killed_cancel) {
      out.status = RunStatus::kCancelled;
      out.error = "spec[" + std::to_string(w.index) + "] " + spec.name +
                  ": cancelled (campaign abort killed the worker)";
      return true;  // never journaled (kCancelled), never respawned
    }
    if (w.killed_timeout) {
      out.status = RunStatus::kTimedOut;
      out.error = "spec[" + std::to_string(w.index) + "] " + spec.name +
                  ": exceeded the per-run wall budget; worker killed";
      journal.record(out);
      return true;
    }
    // Hard death: signal, or an exit before the result frame was whole.
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    if (cfg.retry_transient && w.spawns == 1) return false;
    out.status = RunStatus::kCrashed;
    out.term_signal = sig;
    if (sig != 0) {
      out.error = "spec[" + std::to_string(w.index) + "] " + spec.name +
                  ": worker crashed with signal " + std::to_string(sig) +
                  " (" + signal_name(sig) + ")";
    } else {
      out.error = "spec[" + std::to_string(w.index) + "] " + spec.name +
                  ": worker exited without a result (exit status " +
                  std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1) +
                  ")";
    }
    journal.record(out);
    return true;
  };

  // Peels complete frames off a worker's receive buffer. Heartbeats are
  // liveness for the tracker; a result frame completes the worker's
  // spec. Completeness comes from the length prefix: EOF only ever
  // means the worker died.
  const auto drain_frames = [&](WorkerProc& w) {
    while (const std::optional<FrameHeader> h = frame_header(w.buf)) {
      if (is_heartbeat(*h)) {
        w.buf.erase(0, 12);
        if (progress != nullptr) progress->heartbeat(static_cast<long>(w.pid));
        continue;
      }
      if (w.buf.size() < 12u + h->len) return;
      RunOutcome received;
      const std::string_view payload(w.buf.data() + 12, h->len);
      const bool valid = fnv1a64(payload) == h->checksum &&
                         decode_outcome(payload, received);
      w.buf.erase(0, 12u + h->len);
      // A killed worker's ending is decided by the kill, not by a
      // result that raced it.
      if (!w.busy || w.killed_timeout || w.killed_cancel) continue;
      if (!valid) {
        // Only a corrupted worker sends a bad frame; its stream cannot
        // be trusted any further, so it dies and is classified at EOF.
        ::kill(w.pid, SIGKILL);
        continue;
      }
      RunOutcome& out = outcomes[w.index];
      out = std::move(received);
      // The worker measured its own wall time; surface the spawn count
      // so a salvaged transient crash is visible in `attempts`.
      out.attempts += w.spawns - 1;
      journal.record(out);
      w.busy = false;
      emit_run_finish(events, out);
    }
  };

  std::vector<pollfd> fds;
  for (;;) {
    if (cancel_requested()) {
      for (std::size_t i = 0; claim(i);) {
        mark_unstarted(specs[i], i, outcomes[i]);
        emit_run_finish(events, outcomes[i]);
      }
      for (WorkerProc& w : workers) {
        if (w.busy && !w.killed_cancel) {
          w.killed_cancel = true;
          ::kill(w.pid, SIGKILL);
        }
      }
    }

    // Idle workers take the next specs; a new worker is forked only
    // while the pool is below its size and work remains.
    std::size_t i = 0;
    for (WorkerProc& w : workers) {
      if (w.busy || !claim(i)) continue;
      dispatch(w, i, 1);
      emit_with_worker("run_start", w);
    }
    while (workers.size() < threads && claim(i)) {
      workers.push_back(spawn_worker(workers, specs, cfg));
      dispatch(workers.back(), i, 1);
      emit_with_worker("run_start", workers.back());
    }
    // A worker still idle here found nothing to claim: retire it.
    // Closing its socket is its EOF; it exits and is reaped at once.
    for (std::size_t k = workers.size(); k-- > 0;) {
      if (workers[k].busy) continue;
      ::close(workers[k].fd);
      (void)reap(workers[k].pid);
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (workers.empty()) return;

    // Per-run wall budget: the parent enforces it with SIGKILL, which
    // is what makes even a hung (non-cooperative) worker a kTimedOut
    // outcome instead of a stuck campaign.
    if (cfg.run_budget.max_wall_seconds > 0.0) {
      for (WorkerProc& w : workers) {
        if (w.killed_timeout || w.killed_cancel) continue;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - w.start).count();
        if (elapsed > cfg.run_budget.max_wall_seconds) {
          w.killed_timeout = true;
          ::kill(w.pid, SIGKILL);
          if (events != nullptr) {
            events->emit(
                "watchdog_trip",
                {field_u64("run", w.index),
                 field_u64("worker", static_cast<std::uint64_t>(w.pid)),
                 field_f64("wall_seconds", elapsed)});
          }
        }
      }
    }

    fds.clear();
    for (const WorkerProc& w : workers) fds.push_back(pollfd{w.fd, POLLIN, 0});
    const int n_ready = ::poll(fds.data(), fds.size(), 20);
    if (n_ready <= 0) continue;  // timeout / EINTR: re-check budgets

    // Downward, so erasing worker k leaves fds[0..k) lined up; a
    // replacement is appended past every index still to visit.
    for (std::size_t k = workers.size(); k-- > 0;) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(workers[k].fd, chunk, sizeof chunk);
      if (n > 0) {
        workers[k].buf.append(chunk, static_cast<std::size_t>(n));
        drain_frames(workers[k]);
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      // EOF: the worker died.
      const WorkerProc dead = std::move(workers[k]);
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(k));
      ::close(dead.fd);
      const int status = reap(dead.pid);
      if (!dead.busy) continue;  // the next pass forks a replacement
      if (finalize(dead, status)) {
        emit_run_finish(events, outcomes[dead.index]);
        continue;
      }
      workers.push_back(spawn_worker(workers, specs, cfg));
      dispatch(workers.back(), dead.index, dead.spawns + 1);
      emit_with_worker("run_retry", workers.back());
    }
  }
}

}  // namespace

}  // namespace ahbp::campaign
