#pragma once
// Multi-core simulation campaign runner.
//
// The paper's pay-off is scale: "in a small time it is possible to
// evaluate hundreds of different configurations and architectures"
// (Sec. 1). Every sweep in bench/ and examples/ runs dozens of
// *independent* simulations, so they parallelize perfectly -- the
// kernel is thread-hostable (one Kernel per thread, see
// sim/kernel.hpp), and a Campaign fans RunSpecs across a fixed pool of
// std::jthreads.
//
// Determinism contract: every spec builds, runs and tears down its
// whole simulation inside its `run` callable on whatever pool thread
// picks it up. Specs share nothing, per-run RNG is seeded from the
// spec, and results are returned ordered by spec index -- so a
// campaign's outcomes are bit-identical regardless of thread count or
// completion order (same seeds => same joules).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "power/power_fsm.hpp"
#include "sim/kernel.hpp"

namespace ahbp::telemetry {
class EventLog;  // telemetry/events.hpp
}

namespace ahbp::campaign {

class JournalWriter;     // journal.hpp
class ProgressTracker;   // progress.hpp

/// Per-run power/performance summary gathered from one simulation.
///
/// The fixed fields cover the quantities every sweep reports; `metrics`
/// carries workload-specific extras (an ordered map so rendering a
/// report iterates deterministically).
struct PowerReport {
  double total_energy = 0.0;       ///< [J]
  power::BlockEnergy blocks;       ///< per-sub-block split (Fig. 6 view)
  std::uint64_t cycles = 0;        ///< sampled bus cycles
  std::uint64_t transfers = 0;     ///< completed transfers (0 if not tracked)
  std::map<std::string, double> metrics;  ///< free-form extras

  /// One master's share of the run energy (transaction attribution).
  struct MasterAttribution {
    double energy_j = 0.0;     ///< joules attributed to this master
    std::uint64_t txns = 0;    ///< completed transactions
  };
  /// Per-master attribution (index = master id); empty when the run did
  /// not trace transactions. Rendered as the campaign.v2 report block.
  std::vector<MasterAttribution> attribution;
  /// Idle/handover energy owned by no transaction (the synthetic "bus"
  /// owner). attribution energies + bus_energy_j == total_energy.
  double bus_energy_j = 0.0;
};

/// One unit of campaign work: a factory that builds, runs and
/// summarizes a complete simulation on the calling thread.
///
/// The callable must construct its own sim::Kernel (and everything
/// attached to it) inside the call -- never capture live simulation
/// objects from another thread. Any RNG must be seeded from values
/// captured by the spec so reruns are reproducible.
struct RunSpec {
  std::string name;
  std::function<PowerReport()> run;
};

/// How one RunSpec ended.
enum class RunStatus : std::uint8_t {
  kOk,         ///< completed, report valid
  kFailed,     ///< threw (crash/assertion); error carries the context
  kTimedOut,   ///< killed by the per-run budget or deadlock diagnosis
  kCancelled,  ///< cooperative cancel (campaign deadline) or never started
  kCrashed,    ///< worker process died on a signal (kProcess isolation)
};

[[nodiscard]] const char* to_string(RunStatus s);

/// The result slot for one RunSpec, in submission order.
struct RunOutcome {
  std::size_t index = 0;  ///< position in the submitted spec vector
  std::string name;
  PowerReport report;     ///< valid only when status == kOk
  RunStatus status = RunStatus::kFailed;
  /// Context-prefixed exception text when status != kOk:
  /// "spec[<index>] <name>: <what>".
  std::string error;
  double wall_seconds = 0.0;  ///< measured even for degraded outcomes
  unsigned attempts = 0;      ///< executions consumed (retry accounting)
  /// Signal that killed the worker process (kCrashed only, else 0).
  int term_signal = 0;
  /// True when this outcome was restored from a write-ahead journal
  /// instead of executing (see journal.hpp); provenance only, never
  /// rendered into healthy report output.
  bool resumed = false;
};

/// Where a RunSpec executes.
enum class Isolation : std::uint8_t {
  /// In-process, on a pool thread (fastest; a hard crash kills the
  /// whole campaign).
  kThread,
  /// In persistent forked worker processes: each run() forks up to
  /// `threads` workers, each serving spec after spec and returning each
  /// RunOutcome over a socket, so a SIGSEGV / abort / OOM-kill becomes a
  /// kCrashed outcome with the signal recorded instead of sinking the
  /// sweep; the dead worker is replaced for later specs. Healthy
  /// outcomes round-trip bit-identically (raw IEEE-754 bits on the
  /// wire). A worker serves many specs, so process-global state a spec
  /// writes is visible to later specs on that worker, as under kThread.
  /// Workers are forked from the calling thread only (never from pool
  /// threads), `threads` times per run() plus once per replacement.
  /// That alone does not make fork safe: threads the caller runs
  /// meanwhile (the CLI's status server and --progress printer) are
  /// absent in the workers, and a lock one of them held at fork time
  /// stays held there, so specs must not take locks those threads use.
  kProcess,
};

/// A fixed thread pool that executes RunSpecs and gathers RunOutcomes.
///
/// Scheduling is a single atomic ticket counter (no work stealing, no
/// queues): each worker claims the next unclaimed spec index until none
/// remain. Each outcome is written to its own pre-allocated slot, so
/// the result vector is ordered by spec index independent of completion
/// order. Under kThread a single worker (threads() == 1, or a one-spec
/// campaign) runs the same claim loop inline on the calling thread --
/// the serial baseline path.
class Campaign {
public:
  struct Config {
    /// Worker count; 0 = one per hardware thread. In kProcess isolation
    /// this is the number of concurrently live worker processes.
    unsigned threads = 0;
    /// Per-RunSpec execution budget, imposed on each spec's internally
    /// constructed Kernel via the thread-default mechanism (see
    /// sim::Kernel::set_thread_defaults). Unlimited by default; a
    /// budget-killed run becomes a kTimedOut outcome instead of
    /// stalling its pool thread forever.
    sim::RunBudget run_budget{};
    /// Whole-campaign wall deadline in seconds (0 = none). Once
    /// exceeded, in-flight runs are cooperatively cancelled and
    /// unclaimed specs are marked kCancelled without running.
    double campaign_wall_seconds = 0.0;
    /// Re-execute a kFailed (crashed) spec once before recording the
    /// failure -- salvages transient crashes; deterministic failures
    /// fail twice and are recorded with attempts = 2. Timed-out runs
    /// are never retried (they would exhaust the budget again). In
    /// kProcess isolation a spec whose worker crashed is also handed to
    /// a fresh worker once.
    bool retry_transient = false;
    /// Crash containment mode (see Isolation).
    Isolation isolation = Isolation::kThread;
    /// Optional external cancel request (e.g. the CLI's SIGINT flag):
    /// once it reads true, in-flight runs are cooperatively cancelled
    /// (kThread) or killed (kProcess) and unclaimed specs are marked
    /// kCancelled. Must outlive run().
    const std::atomic<bool>* cancel = nullptr;
    /// kProcess only: while a spec runs, how often its worker writes a
    /// heartbeat frame (an empty-payload journal frame) onto its socket
    /// so the parent can tell a slow run from a hung worker. Beats flow
    /// for every spec a worker serves and stop while it is idle. <= 0
    /// disables heartbeats (the pre-heartbeat wire format).
    double heartbeat_interval_seconds = 0.1;
  };

  Campaign() : Campaign(Config{}) {}
  explicit Campaign(Config cfg);

  /// Resolved worker count (>= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Durability hooks for one run() call (see journal.hpp).
  struct RunOptions {
    /// When set, every finished outcome (any status except kCancelled)
    /// is durably appended the moment it completes.
    JournalWriter* journal = nullptr;
    /// Previously journaled outcomes: entries whose index and name
    /// match a spec are restored (marked resumed) without executing.
    /// kCancelled entries are re-run.
    const std::vector<RunOutcome>* resume = nullptr;
    /// When set, a journal append failure (disk full, I/O error) is
    /// reported here instead of thrown, so the completed outcomes are
    /// still returned -- the run results are valid, only their
    /// durability is lost. Left empty on success. When null, run()
    /// throws std::runtime_error after all runs complete.
    std::string* journal_error = nullptr;
    /// When set, the campaign narrates its lifecycle into this log:
    /// campaign_start/finish, run_start/finish/retry/restored,
    /// watchdog_trip (parent wall-budget kill) and journal_append.
    /// Must outlive run(). Workers never emit (children run with no
    /// log); all emission happens in the parent process.
    telemetry::EventLog* events = nullptr;
    /// When set (kProcess isolation), receives a heartbeat() call for
    /// every liveness signal a worker child sends -- the feed for
    /// stalled-shard diagnosis. Pair it with `events` via
    /// ProgressTracker::attach for the full live view.
    ProgressTracker* progress = nullptr;
  };

  /// Runs every spec and returns outcomes ordered by spec index. A spec
  /// that throws, exhausts its budget or is cancelled is captured in
  /// its outcome (status != kOk says how); the campaign itself
  /// always completes.
  [[nodiscard]] std::vector<RunOutcome> run(const std::vector<RunSpec>& specs) const;

  /// As above, with write-ahead journaling and/or resume.
  [[nodiscard]] std::vector<RunOutcome> run(const std::vector<RunSpec>& specs,
                                            const RunOptions& opts) const;

  /// The machine's hardware concurrency (>= 1 even when unknown).
  [[nodiscard]] static unsigned hardware_threads();

private:
  Config cfg_;
  unsigned threads_ = 1;
};

}  // namespace ahbp::campaign
