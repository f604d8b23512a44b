// perfbench -- the repository benchmark: five workloads over the AHB
// power-analysis stack, timed from outside through each layer's public
// calls, with every simulated statistic checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out DIR --oracle FILE
//   perfbench --workload NAME --print-digest
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics (FINDINGS.md lists both).
// The measured runs must repeat their own first results bit for bit.
// After measuring, every run checks the default-seed digest of its
// workload against FILE and the invariants (energy conservation, zero
// protocol violations, isolation-mode identity) on the given seed.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exit status: 0 when every check passed, 1 when one failed
// (the JSON line is still printed), 2 on bad usage or an I/O error.
//
// Host times vary run to run; simulated statistics never do.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "campaign/report.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "spans.hpp"
#include "telemetry/events.hpp"
#include "telemetry/telemetry.hpp"
#include "tlm/tlm.hpp"

namespace {

using namespace ahbp;
using perfbench::Span;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// CPU time of the calling thread, as a chrono clock. Host times are CPU
/// times: on a shared host a wall time also counts the time a thread
/// waits for a CPU that another tenant's thread holds (FINDINGS.md), and
/// CPU time leaves that out. The wall clock is kept for the measured
/// phase's length and the campaign layer's parallel efficiency.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec));
  }
};

constexpr std::int64_t kClockNs = 10;  // 100 MHz, the paper's bus clock
/// The seed the golden digests in the oracle file belong to.
constexpr std::uint64_t kDefaultSeed = 1;
/// Traffic instances derived from one seed; single-run workloads cycle
/// through them at every run length (step_cycles), so every input
/// repeats and must repeat exactly. The sweeps run one spec per instance
/// and configuration.
constexpr unsigned kInstances = 4;

// Run sizes. Each is fixed so a run's simulated work never depends on
// host speed; the number of runs in the measured phase does.
constexpr std::uint64_t kPaperCycles = 100'000;    // 1 ms of bus time
constexpr std::uint64_t kObservedCycles = 2'000;
constexpr std::uint64_t kObservedWindow = 10;      // 100 ns, Figs 3-5
constexpr std::uint64_t kTlmCycles = 200'000;
constexpr std::uint64_t kAccuracyCycles = 100'000;
constexpr std::uint64_t kLadderCycles = 10'000;

/// Length of run-length step `k` for runs that average `cycles`: 0.7,
/// 0.9, 1.1 and 1.3 times it. On a shared host the host time of the same
/// work can double for seconds at a time (FINDINGS.md). With equal-length
/// runs the run-time distribution is then two spikes and its median jumps
/// from one to the other as the mix shifts; spread-out lengths let it
/// move smoothly. A sweep runs instance k at step k; the single-run
/// workloads run every instance at every step.
std::uint64_t step_cycles(std::uint64_t cycles, std::uint64_t k) {
  return cycles * (7 + 2 * (k % kInstances)) / 10;
}

template <class C>
double seconds_since(std::chrono::time_point<C> t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

/// CPU seconds used so far by this process's threads and its reaped
/// children: the host time of a sweep, whose work runs on pool threads
/// and in forked workers.
double process_cpu_s() {
  timespec self{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage kids{};
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.tv_sec) + 1e-9 * static_cast<double>(self.tv_nsec) +
         static_cast<double>(kids.ru_utime.tv_sec + kids.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(kids.ru_utime.tv_usec + kids.ru_stime.tv_usec);
}

/// Master seed of traffic instance `i` under workload seed `seed`
/// (splitmix64, so neighbouring seeds share no instances).
std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (i + 1) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 40;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// FNV-1a digest over a canonical byte stream of simulated statistics.
/// Doubles enter as their IEEE-754 bit patterns.
class Digest {
 public:
  Digest& u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
    return *this;
  }
  Digest& f(double v) { return u(std::bit_cast<std::uint64_t>(v)); }
  Digest& s(std::string_view v) {
    u(v.size());
    buf_.append(v);
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(campaign::fnv1a64(buf_)));
    return out;
  }

 private:
  std::string buf_;
};

/// Counts operations and the ones whose output check failed. An
/// operation is one simulated run or one check-phase comparison.
class Checks {
 public:
  void begin() {
    ++attempted_;
    op_failed_ = false;
  }
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (!op_failed_) ++failed_;
    op_failed_ = true;
    if (messages_++ < 20) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
  unsigned messages_ = 0;
};

/// Remembers the digest of each repeated input and flags a repeat that
/// differs: a deterministic simulator must reproduce it bit for bit.
class RepeatCheck {
 public:
  void check(Checks& chk, const std::string& key, const std::string& digest) {
    const auto [it, fresh] = first_.emplace(key, digest);
    chk.expect(fresh || it->second == digest,
               key + ": repeated run differs from its first run");
  }
  /// Digest over the first result of every key, in key order.
  [[nodiscard]] std::string combined() const {
    Digest d;
    for (const auto& [key, digest] : first_) d.s(key).s(digest);
    return d.hex();
  }

 private:
  std::map<std::string, std::string> first_;
};

// --- the paper testbench --------------------------------------------------

/// Observers attached to the paper testbench: the stacked levels of the
/// per-layer ladder, and the workloads' configurations.
struct Observers {
  bool estimator = false;
  bool monitor = false;
  /// Telemetry windows (cycles) plus bus-mode events and live metrics;
  /// 0 = off.
  std::uint64_t window_cycles = 0;
  bool txn_trace = false;
};

/// The paper's Sec. 5 testbench as ahbpower_cli builds it: two
/// TrafficMasters, the default master and three memory slaves on a
/// 100 MHz AHB. Master m's seed is base + 97 * m, the CLI's rule.
struct PaperRig {
  PaperRig(std::uint64_t base_seed, const Observers& obs,
           ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority,
           unsigned waits = 0)
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(kClockNs), 0.5,
            sim::SimTime::ns(kClockNs)),
        bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = policy}),
        dm(&top, "default_master", bus),
        m1(&top, "m1", bus,
           {.addr_base = 0x0000, .addr_range = 0x1000, .seed = base_seed}),
        m2(&top, "m2", bus,
           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = base_seed + 97}),
        s1(&top, "s1", bus, {.base = 0x0000, .size = 0x1000, .wait_states = waits}),
        s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000, .wait_states = waits}),
        s3(&top, "s3", bus, {.base = 0x2000, .size = 0x1000, .wait_states = waits}) {
    bus.finalize();
    telemetry::MetricsRegistry* live = obs.window_cycles > 0 ? &metrics : nullptr;
    if (obs.monitor) {
      mon = std::make_unique<ahb::BusMonitor>(
          &top, "monitor", bus,
          ahb::BusMonitor::Config{.fatal = false, .metrics = live});
    }
    if (obs.estimator) {
      est = std::make_unique<power::AhbPowerEstimator>(
          &top, "power", bus,
          power::AhbPowerEstimator::Config{
              .telemetry_window_cycles = obs.window_cycles,
              .txn_trace = obs.txn_trace,
              .metrics = live});
    }
  }

  void run(std::uint64_t cycles) {
    {
      const Span span("sim.Kernel::run");
      kernel.run(sim::SimTime::ns(kClockNs) * static_cast<std::int64_t>(cycles));
    }
    if (est) {
      const Span span("power.flush_telemetry");
      est->flush_telemetry();
    }
  }

  telemetry::MetricsRegistry metrics;  // outlives every observer below
  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  ahb::TrafficMaster m1, m2;
  ahb::MemorySlave s1, s2, s3;
  std::unique_ptr<ahb::BusMonitor> mon;
  std::unique_ptr<power::AhbPowerEstimator> est;
};

std::unique_ptr<PaperRig> build_rig(std::uint64_t base_seed, const Observers& obs,
                                    ahb::ArbitrationPolicy policy =
                                        ahb::ArbitrationPolicy::kFixedPriority,
                                    unsigned waits = 0) {
  const Span span("ahb.build");
  return std::make_unique<PaperRig>(base_seed, obs, policy, waits);
}

void digest_master(Digest& d, const ahb::TrafficMaster::Stats& s) {
  d.u(s.writes).u(s.reads).u(s.read_mismatches).u(s.error_responses).u(s.sequences);
}

void digest_fsm(Digest& d, const power::PowerFsm& fsm) {
  const power::BlockEnergy& b = fsm.block_totals();
  d.u(fsm.cycles()).f(fsm.total_energy()).f(b.arb).f(b.dec).f(b.m2s).f(b.s2m);
  for (const auto& [name, st] : fsm.instructions()) d.s(name).u(st.count).f(st.energy);
  for (const double e : fsm.per_master_energy()) d.f(e);
}

/// Every simulated statistic of a finished run (kernel activity counts
/// excluded: they measure the simulator, not the model).
std::string digest_rig(const PaperRig& rig) {
  Digest d;
  digest_master(d, rig.m1.stats());
  digest_master(d, rig.m2.stats());
  if (rig.mon) {
    const ahb::BusMonitor::Stats& s = rig.mon->stats();
    d.u(s.cycles).u(s.transfers).u(s.reads).u(s.writes).u(s.wait_cycles)
        .u(s.idle_cycles).u(s.handovers).u(s.error_responses)
        .u(s.retry_responses).u(s.split_responses).u(rig.mon->violations().size());
  }
  if (rig.est) {
    digest_fsm(d, rig.est->fsm());
    if (const telemetry::WindowSeries* w = rig.est->windows()) {
      d.u(w->windows().size());
      for (const auto& win : w->windows()) {
        d.u(win.start_tick).u(win.ticks);
        for (const double v : win.values) d.f(v);
      }
    }
    if (const telemetry::TraceEventLog* ev = rig.est->trace_events()) d.u(ev->size());
    if (const power::TransactionTracer* txn = rig.est->txn_tracer()) {
      const power::EnergyAttributor& a = txn->attribution();
      for (const double e : a.master_energy()) d.f(e);
      for (const double e : a.slave_energy()) d.f(e);
      for (const std::uint64_t n : txn->master_txns()) d.u(n);
      d.f(a.bus_energy()).u(txn->log().size());
    }
  }
  return d.hex();
}

/// The invariants every run must hold, whatever its seed.
void check_rig(Checks& chk, const PaperRig& rig, const std::string& what) {
  chk.expect(rig.m1.stats().read_mismatches + rig.m2.stats().read_mismatches == 0 &&
                 rig.m1.stats().error_responses + rig.m2.stats().error_responses == 0,
             what + ": a master read back wrong data or got an ERROR");
  if (rig.mon) {
    chk.expect(rig.mon->violations().empty(),
               what + ": monitor reported protocol violations");
  }
  if (!rig.est) return;
  const double total = rig.est->total_energy();
  double instr = 0.0;
  for (const auto& [name, st] : rig.est->fsm().instructions()) instr += st.energy;
  chk.expect(total > 0.0 && near(instr, total, 1e-9),
             what + ": instruction energies do not sum to the total");
  if (const telemetry::WindowSeries* w = rig.est->windows()) {
    double sum = 0.0;
    for (const double v : w->totals()) sum += v;
    chk.expect(near(sum, total, 1e-9), what + ": window energies do not sum to the total");
  }
  if (const power::TransactionTracer* txn = rig.est->txn_tracer()) {
    const power::EnergyAttributor& a = txn->attribution();
    chk.expect(near(a.masters_total() + a.bus_energy(), total, 1e-9),
               what + ": attribution does not conserve energy");
  }
}

// --- single-run workloads ---------------------------------------------------

/// Host cost of one measured unit: a single run, or one whole campaign.
struct Unit {
  double setup_s = 0.0;     ///< building the system / the spec list
  double measured_s = 0.0;  ///< simulating (+ exporting / reporting)
  double host_s = 0.0;      ///< everything but the output checks
  std::uint64_t cycles = 0;     ///< simulated bus cycles
  std::uint64_t runs_ok = 0;
  std::vector<double> run_ms;   ///< host time of each run in the unit
};

constexpr Observers kPaperCycleObs{.estimator = true, .monitor = true};
constexpr Observers kObservedObs{.estimator = true, .monitor = true,
                                 .window_cycles = kObservedWindow, .txn_trace = true};

/// The exporters of `ahbpower_cli --telemetry DIR --txn-trace`, in its
/// order; each is timed at its public call.
constexpr std::array<const char*, 7> kExportFiles = {
    "power_windows.csv", "power_windows.json", "trace.json", "txns.csv",
    "txns.json",         "txn_trace.json",     "metrics.json"};

/// Writes every telemetry artifact of a finished observed run into
/// `dir`; `ms` receives each exporter's host time.
void export_all(PaperRig& rig, const fs::path& dir, std::array<double, 7>* ms) {
  const power::AhbPowerEstimator& est = *rig.est;
  const power::TransactionTracer& txn = *est.txn_tracer();
  const telemetry::ExportMeta meta{.tick_ns = static_cast<double>(kClockNs),
                                   .process_name = "ahbpower"};
  telemetry::ExportMeta txn_meta = meta;
  txn_meta.threads.emplace_back(telemetry::txn_track_tid(0), "default_master");
  txn_meta.threads.emplace_back(telemetry::txn_track_tid(1), "m1");
  txn_meta.threads.emplace_back(telemetry::txn_track_tid(2), "m2");
  const std::array<std::function<void()>, 7> writers = {
      [&] { telemetry::write_window_csv_file(dir / kExportFiles[0], *est.windows(), meta); },
      [&] { telemetry::write_window_json_file(dir / kExportFiles[1], *est.windows(), meta); },
      [&] {
        telemetry::write_chrome_trace_file(dir / kExportFiles[2], *est.trace_events(),
                                           est.windows(), meta);
      },
      [&] { telemetry::write_txn_csv_file(dir / kExportFiles[3], txn.log()); },
      [&] {
        telemetry::write_txn_json_file(dir / kExportFiles[4], txn.log(),
                                       txn.summary(est.total_energy()), meta);
      },
      [&] {
        telemetry::write_chrome_trace_file(dir / kExportFiles[5], txn.spans(), nullptr,
                                           txn_meta);
      },
      [&] {
        rig.metrics.counter("run.transfers").add(rig.mon->stats().transfers);
        rig.metrics.counter("run.protocol_violations").add(rig.mon->violations().size());
        rig.metrics.counter("sim.deltas").add(rig.kernel.delta_count());
        rig.metrics.counter("sim.processes_executed")
            .add(rig.kernel.stats().processes_executed);
        rig.metrics.counter("sim.time_advances").add(rig.kernel.stats().time_advances);
        telemetry::write_metrics_json_file(dir / kExportFiles[6], rig.metrics);
      }};
  static constexpr std::array<const char*, 7> kSpanNames = {
      "telemetry.write_window_csv_file",  "telemetry.write_window_json_file",
      "telemetry.write_chrome_trace_file", "telemetry.write_txn_csv_file",
      "telemetry.write_txn_json_file",    "telemetry.write_chrome_trace_file(txn)",
      "telemetry.write_metrics_json_file"};
  for (std::size_t k = 0; k < writers.size(); ++k) {
    const Span span(kSpanNames[k]);
    const auto t0 = CpuClock::now();
    writers[k]();
    if (ms != nullptr) (*ms)[k] = 1e3 * seconds_since(t0);
  }
}

/// One paper_cycle or paper_observed run of traffic instance `base`.
/// The digest covers the exported files too (metrics.json excepted: it
/// carries kernel activity counts).
Unit paper_unit(bool observed, std::uint64_t base, std::uint64_t cycles,
                const fs::path& dir, Checks& chk, RepeatCheck& repeats,
                const std::string& key) {
  Unit u;
  const auto t0 = CpuClock::now();
  auto rig = build_rig(base, observed ? kObservedObs : kPaperCycleObs);
  const auto t1 = CpuClock::now();
  rig->run(cycles);
  if (observed) export_all(*rig, dir, nullptr);
  const auto t2 = CpuClock::now();
  chk.begin();
  std::string digest = digest_rig(*rig);
  if (observed) {
    Digest d;
    d.s(digest);
    for (std::size_t k = 0; k + 1 < kExportFiles.size(); ++k) {
      d.s(read_file(dir / kExportFiles[k]));
    }
    digest = d.hex();
  }
  check_rig(chk, *rig, key);
  repeats.check(chk, key, digest);
  u.cycles = rig->est->fsm().cycles();
  const auto t3 = CpuClock::now();
  rig.reset();
  u.setup_s = std::chrono::duration<double>(t1 - t0).count();
  u.measured_s = std::chrono::duration<double>(t2 - t1).count();
  u.host_s = std::chrono::duration<double>(t2 - t0).count() + seconds_since(t3);
  u.runs_ok = 1;
  u.run_ms.push_back(1e3 * u.host_s);
  return u;
}

struct TlmResult {
  std::uint64_t cycles = 0;
  std::uint64_t transfers = 0;
  double energy = 0.0;
  std::string digest;
};

/// The paper's master traffic on TlmBus/TlmTrafficRunner (no event
/// kernel): masters 1 and 2 with the cycle model's seeds and windows,
/// interleaved in 2000-cycle tenure slices as the abstraction ablation
/// does. `setup_s`/`run_s` receive the host times.
TlmResult tlm_run(std::uint64_t base, std::uint64_t cycles, Checks& chk,
                  double* setup_s, double* run_s) {
  const auto t0 = CpuClock::now();
  std::optional<Span> build_span(std::in_place, "tlm.TlmBus");
  tlm::TlmBus bus(tlm::TlmBus::Config{.n_masters = 3});
  tlm::TlmMemory mem1, mem2, mem3;
  bus.map(mem1, 0x0000, 0x1000);
  bus.map(mem2, 0x1000, 0x1000);
  bus.map(mem3, 0x2000, 0x1000);
  tlm::TlmTrafficRunner r1(bus, 1, {.addr_base = 0x0000, .addr_range = 0x1000, .seed = base});
  tlm::TlmTrafficRunner r2(bus, 2,
                           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = base + 97});
  build_span.reset();
  const auto t1 = CpuClock::now();
  {
    const Span span("tlm.TlmTrafficRunner::run_until");
    for (std::uint64_t next = 2000; bus.cycles() < cycles; next += 4000) {
      r1.run_until(std::min(next, cycles));
      r2.run_until(std::min(next + 2000, cycles));
    }
  }
  if (setup_s != nullptr) *setup_s = std::chrono::duration<double>(t1 - t0).count();
  if (run_s != nullptr) *run_s = seconds_since(t1);
  chk.begin();
  chk.expect(r1.mismatches() + r2.mismatches() == 0 && bus.errors() == 0,
             "tlm: read-back mismatch or unmapped access");
  double instr = 0.0;
  for (const auto& [name, st] : bus.fsm().instructions()) instr += st.energy;
  chk.expect(near(instr, bus.total_energy(), 1e-9),
             "tlm: instruction energies do not sum to the total");
  Digest d;
  digest_fsm(d, bus.fsm());
  d.u(bus.cycles()).u(bus.transfers()).u(bus.errors());
  for (const tlm::TlmTrafficRunner* r : {&r1, &r2}) {
    d.u(r->writes()).u(r->reads()).u(r->mismatches());
  }
  return {bus.cycles(), bus.transfers(), bus.total_energy(), d.hex()};
}

Unit tlm_unit(std::uint64_t base, std::uint64_t cycles, Checks& chk,
              RepeatCheck& repeats, const std::string& key) {
  Unit u;
  const TlmResult r = tlm_run(base, cycles, chk, &u.setup_s, &u.measured_s);
  u.host_s = u.setup_s + u.measured_s;
  repeats.check(chk, key, r.digest);
  u.cycles = r.cycles;
  u.runs_ok = 1;
  u.run_ms.push_back(1e3 * u.host_s);
  return u;
}

/// |TLM energy per cycle - cycle-model energy per cycle| / cycle-model
/// value, over the seed's traffic instances.
double tlm_energy_error(std::uint64_t seed, Checks& chk) {
  double ca_e = 0.0, ca_c = 0.0, tlm_e = 0.0, tlm_c = 0.0;
  for (unsigned i = 0; i < kInstances; ++i) {
    const std::uint64_t base = instance_seed(seed, i);
    {
      PaperRig rig(base, Observers{.estimator = true});
      rig.run(kAccuracyCycles);
      chk.begin();
      check_rig(chk, rig, "accuracy reference");
      ca_e += rig.est->total_energy();
      ca_c += static_cast<double>(rig.est->fsm().cycles());
    }
    const TlmResult t = tlm_run(base, kAccuracyCycles, chk, nullptr, nullptr);
    tlm_e += t.energy;
    tlm_c += static_cast<double>(t.cycles);
  }
  const double ca = ca_e / ca_c;
  return std::fabs(tlm_e / tlm_c - ca) / ca;
}

// --- campaign workloads ----------------------------------------------------

/// How a sweep workload drives the campaign layer.
struct SweepShape {
  campaign::Isolation isolation;
  bool attributed;  ///< BusMonitor + txn_trace attribution in every run
  std::uint64_t cycles;  ///< mean run length (see step_cycles)
  std::vector<unsigned> waits;
  unsigned seeds;
  bool observed;  ///< journal + EventLog + ProgressTracker
};

/// `ahbpower_cli --sweep`: fixed/rr x 0/1/3 wait states x seeds, each run
/// monitored and attributed, on pool threads, at the CLI's default run
/// length of 5000 cycles.
const SweepShape kSweepThread{campaign::Isolation::kThread, true, 5'000,
                              {0, 1, 3}, 4, false};
/// Many short plain-estimator runs in forked workers, journaled and
/// narrated, on the campaign machinery of `ahbpower_cli --sweep
/// --isolation process --journal DIR` (whose specs, unlike these, carry
/// a monitor and txn_trace): fork, pipe, heartbeats, journal fsync and
/// events dominate. The event log stays in memory: a JSONL sink would add
/// three fsyncs per run to the parent's serial path and expose the
/// workload's throughput to the shared disk's latency.
const SweepShape kSweepProcess{campaign::Isolation::kProcess, false, 2'000,
                               {0, 1, 2, 3}, 16, true};

const pid_t g_main_pid = ::getpid();

/// One sweep run: the CLI's RunSpec body, plus the benchmark's wrapper
/// timing the body and returning its wall time in
/// metrics["bench.spec_ms"] and its CPU time in
/// metrics["bench.spec_cpu_ms"], so both survive the kProcess pipe.
campaign::PowerReport sweep_body(ahb::ArbitrationPolicy policy, unsigned waits,
                                 std::uint64_t base, std::uint64_t cycles,
                                 const SweepShape& shape) {
  const auto t0 = Clock::now();
  const auto c0 = CpuClock::now();
  PaperRig rig(base,
               Observers{.estimator = true, .monitor = shape.attributed,
                         .txn_trace = shape.attributed},
               policy, waits);
  rig.run(cycles);
  campaign::PowerReport r;
  const power::AhbPowerEstimator& est = *rig.est;
  r.total_energy = est.total_energy();
  r.blocks = est.block_totals();
  r.cycles = est.fsm().cycles();
  r.metrics["data_share"] = power::data_transfer_share(est.fsm());
  r.metrics["arb_share"] = power::arbitration_share(est.fsm());
  r.metrics["check.read_mismatches"] = static_cast<double>(
      rig.m1.stats().read_mismatches + rig.m2.stats().read_mismatches);
  if (shape.attributed) {
    r.transfers = rig.mon->stats().transfers;
    r.metrics["check.violations"] = static_cast<double>(rig.mon->violations().size());
    const power::TransactionTracer& txn = *est.txn_tracer();
    r.bus_energy_j = txn.attribution().bus_energy();
    for (unsigned m = 0; m < 3; ++m) {
      r.attribution.push_back({txn.attribution().master_energy()[m], txn.master_txns()[m]});
    }
  } else {
    r.transfers = rig.m1.stats().writes + rig.m1.stats().reads +
                  rig.m2.stats().writes + rig.m2.stats().reads;
  }
  r.metrics["bench.spec_ms"] = 1e3 * seconds_since(t0);
  r.metrics["bench.spec_cpu_ms"] = 1e3 * seconds_since(c0);
  return r;
}

std::vector<campaign::RunSpec> make_specs(const SweepShape& shape, std::uint64_t seed) {
  std::vector<campaign::RunSpec> specs;
  for (const auto policy : {ahb::ArbitrationPolicy::kFixedPriority,
                            ahb::ArbitrationPolicy::kRoundRobin}) {
    for (const unsigned waits : shape.waits) {
      for (unsigned k = 0; k < shape.seeds; ++k) {
        const std::uint64_t base = instance_seed(seed, k);
        const std::uint64_t cycles = step_cycles(shape.cycles, k);
        std::string name = std::string(policy == ahb::ArbitrationPolicy::kRoundRobin
                                           ? "rr"
                                           : "fixed") +
                           "/w" + std::to_string(waits) + "/s" + std::to_string(k);
        const std::uint64_t index = specs.size();
        specs.push_back({std::move(name), [policy, waits, base, cycles, index, &shape] {
                           // Spans recorded in a forked worker would be lost.
                           std::optional<Span> span;
                           if (::getpid() == g_main_pid) {
                             perfbench::set_run_id(index);
                             span.emplace("campaign.RunSpec");
                           }
                           return sweep_body(policy, waits, base, cycles, shape);
                         }});
      }
    }
  }
  return specs;
}

/// Simulated content of one outcome (host-time metrics excluded).
std::string digest_outcome(const campaign::RunOutcome& out) {
  Digest d;
  const campaign::PowerReport& r = out.report;
  d.s(out.name).u(static_cast<std::uint64_t>(out.status)).f(r.total_energy)
      .f(r.blocks.arb).f(r.blocks.dec).f(r.blocks.m2s).f(r.blocks.s2m)
      .u(r.cycles).u(r.transfers).f(r.bus_energy_j);
  for (const auto& [k, v] : r.metrics) {
    if (!k.starts_with("bench.")) d.s(k).f(v);
  }
  for (const auto& a : r.attribution) d.f(a.energy_j).u(a.txns);
  return d.hex();
}

void check_outcome(Checks& chk, const campaign::RunOutcome& out) {
  const std::string what = "spec " + out.name;
  chk.expect(out.status == campaign::RunStatus::kOk,
             what + ": " + campaign::to_string(out.status) + " " + out.error);
  if (out.status != campaign::RunStatus::kOk) return;
  const campaign::PowerReport& r = out.report;
  const auto metric = [&](const char* k) {
    const auto it = r.metrics.find(k);
    return it == r.metrics.end() ? 0.0 : it->second;
  };
  chk.expect(metric("check.read_mismatches") == 0.0 && metric("check.violations") == 0.0,
             what + ": read-back mismatch or protocol violation");
  chk.expect(r.total_energy > 0.0 && r.blocks.total() == r.total_energy,
             what + ": block energies do not sum to the total");
  if (!r.attribution.empty()) {
    double sum = r.bus_energy_j;
    for (const auto& a : r.attribution) sum += a.energy_j;
    chk.expect(near(sum, r.total_energy, 1e-9), what + ": attribution does not conserve energy");
  }
}

unsigned sweep_workers() { return std::min(4u, campaign::Campaign::hardware_threads()); }

/// Host-side campaign statistics gathered over the measured campaigns.
struct CampaignStats {
  std::vector<double> spec_ms;
  double pool_s = 0.0;  ///< Σ Campaign::run wall time
  std::uint64_t runs = 0;
  std::uint64_t attempts = 0;
  std::vector<double> report_ms;
  std::vector<double> journal_kb;
  std::vector<double> events;
};

/// One whole campaign of the sweep workload, start to report.
Unit sweep_unit(const SweepShape& shape, std::uint64_t seed, const fs::path& dir,
                Checks& chk, RepeatCheck& repeats, CampaignStats* stats) {
  Unit u;
  const double c0 = process_cpu_s();
  const std::vector<campaign::RunSpec> specs = make_specs(shape, seed);
  const campaign::Campaign pool(campaign::Campaign::Config{
      .threads = sweep_workers(), .isolation = shape.isolation});
  std::unique_ptr<campaign::JournalWriter> journal;
  std::unique_ptr<telemetry::EventLog> events;
  std::unique_ptr<campaign::ProgressTracker> tracker;
  campaign::Campaign::RunOptions ropts;
  std::string journal_error;
  const fs::path jpath = dir / "campaign.journal";
  if (shape.observed) {
    std::string names;
    for (const campaign::RunSpec& s : specs) names += s.name + ",";
    const std::uint64_t fingerprint = campaign::fnv1a64(names);
    fs::remove(jpath);
    journal = std::make_unique<campaign::JournalWriter>(jpath, fingerprint);
    telemetry::EventLog::Config events_cfg;
    events_cfg.config_fingerprint = fingerprint;
    events = std::make_unique<telemetry::EventLog>(events_cfg);
    tracker = std::make_unique<campaign::ProgressTracker>();
    tracker->set_fingerprint(fingerprint);
    tracker->attach(*events);
    ropts.journal = journal.get();
    ropts.events = events.get();
    ropts.progress = tracker.get();
    ropts.journal_error = &journal_error;
  }
  const double c1 = process_cpu_s();
  const auto t1 = Clock::now();
  std::vector<campaign::RunOutcome> outcomes;
  {
    const Span span("campaign.Campaign::run");
    perfbench::set_cross_thread_parent(span.id());
    outcomes = pool.run(specs, ropts);
    perfbench::set_cross_thread_parent(0);
  }
  const auto t2 = Clock::now();
  {
    const Span span("campaign.write_campaign_json_file");
    campaign::write_campaign_json_file(
        dir / "campaign.json", outcomes,
        campaign::CampaignReportMeta{.name = "perfbench", .cycles = 0,  // varies
                                     .threads = pool.threads()});
  }
  const auto t3 = Clock::now();
  const double c3 = process_cpu_s();
  u.setup_s = c1 - c0;
  u.measured_s = c3 - c1;
  u.host_s = c3 - c0;
  chk.begin();
  chk.expect(journal_error.empty(), "journal append failed: " + journal_error);
  for (const campaign::RunOutcome& out : outcomes) {
    chk.begin();
    check_outcome(chk, out);
    repeats.check(chk, out.name, digest_outcome(out));
    if (out.status != campaign::RunStatus::kOk) continue;
    u.run_ms.push_back(out.report.metrics.at("bench.spec_cpu_ms"));
    ++u.runs_ok;
    u.cycles += out.report.cycles;
  }
  if (stats != nullptr) {
    for (const campaign::RunOutcome& out : outcomes) {
      const auto it = out.report.metrics.find("bench.spec_ms");
      if (it != out.report.metrics.end()) stats->spec_ms.push_back(it->second);
      stats->attempts += out.attempts;
    }
    stats->runs += outcomes.size();
    stats->pool_s += std::chrono::duration<double>(t2 - t1).count();
    stats->report_ms.push_back(1e3 * std::chrono::duration<double>(t3 - t2).count());
    if (shape.observed) {
      stats->journal_kb.push_back(static_cast<double>(fs::file_size(jpath)) / 1024.0);
      stats->events.push_back(static_cast<double>(events->size()));
    }
  }
  return u;
}

/// One sampled spec of the seed, run inline on this thread, must match
/// its outcome under kThread and under kProcess bit for bit.
void check_isolation_identity(const SweepShape& shape, std::uint64_t seed, Checks& chk) {
  const std::vector<campaign::RunSpec> specs = make_specs(shape, seed);
  const campaign::RunSpec& spec = specs[seed % specs.size()];
  campaign::RunOutcome inline_out;
  inline_out.name = spec.name;
  inline_out.status = campaign::RunStatus::kOk;
  inline_out.report = spec.run();
  const std::string want = digest_outcome(inline_out);
  for (const auto iso : {campaign::Isolation::kThread, campaign::Isolation::kProcess}) {
    const campaign::Campaign pool(
        campaign::Campaign::Config{.threads = 2, .isolation = iso});
    const std::vector<campaign::RunOutcome> outs = pool.run({spec});
    chk.begin();
    check_outcome(chk, outs.at(0));
    chk.expect(digest_outcome(outs.at(0)) == want,
               spec.name + ": inline run differs from its " +
                   (iso == campaign::Isolation::kThread ? "kThread" : "kProcess") +
                   " outcome");
  }
}

// --- workloads ----------------------------------------------------------------

enum class Workload { kPaperCycle, kPaperObserved, kSweepThread, kSweepProcess, kTlmPaper };

struct WorkloadInfo {
  const char* name;
  Workload id;
};
constexpr std::array<WorkloadInfo, 5> kWorkloads = {{
    {"paper_cycle", Workload::kPaperCycle},
    {"paper_observed", Workload::kPaperObserved},
    {"sweep_thread", Workload::kSweepThread},
    {"sweep_process", Workload::kSweepProcess},
    {"tlm_paper", Workload::kTlmPaper},
}};

/// Runs measured unit `i` of the workload under `seed`.
class Runner {
 public:
  Runner(Workload w, std::uint64_t seed, fs::path dir, Checks& chk)
      : w_(w), seed_(seed), dir_(std::move(dir)), chk_(chk) {}

  Unit unit(std::uint64_t i, CampaignStats* stats = nullptr) {
    perfbench::set_run_id(i);
    const Span span("bench.unit");
    const std::uint64_t inst = i % kInstances;
    const std::uint64_t step = i / kInstances % kInstances;
    const std::uint64_t base = instance_seed(seed_, inst);
    const std::string key = "instance " + std::to_string(inst) + " step " + std::to_string(step);
    switch (w_) {
      case Workload::kPaperCycle:
        return paper_unit(false, base, step_cycles(kPaperCycles, step), dir_, chk_, repeats_,
                          key);
      case Workload::kPaperObserved:
        return paper_unit(true, base, step_cycles(kObservedCycles, step), dir_, chk_,
                          repeats_, key);
      case Workload::kSweepThread:
        return sweep_unit(kSweepThread, seed_, dir_, chk_, repeats_, stats);
      case Workload::kSweepProcess:
        return sweep_unit(kSweepProcess, seed_, dir_, chk_, repeats_, stats);
      case Workload::kTlmPaper:
        return tlm_unit(base, step_cycles(kTlmCycles, step), chk_, repeats_, key);
    }
    return {};
  }

  /// CPU slot of unit `i` (CpuRotation::pin): shifted by one every pass
  /// over the instances, so that no instance always runs on the same CPU.
  [[nodiscard]] static std::uint64_t cpu_slot(std::uint64_t i) { return i + i / kInstances; }

  /// False for the sweeps, whose campaigns start threads or processes.
  [[nodiscard]] bool single_threaded() const {
    return w_ != Workload::kSweepThread && w_ != Workload::kSweepProcess;
  }

  /// Units needed to run every input of the seed once.
  [[nodiscard]] std::uint64_t units_per_pass() const {
    return single_threaded() ? kInstances * kInstances : 1;
  }

  [[nodiscard]] const RepeatCheck& repeats() const { return repeats_; }

 private:
  Workload w_;
  std::uint64_t seed_;
  fs::path dir_;
  Checks& chk_;
  RepeatCheck repeats_;
};

/// Digest of every simulated statistic of one pass over the seed's
/// inputs (the output oracle's golden value for the default seed).
std::string pass_digest(Workload w, std::uint64_t seed, const fs::path& dir, Checks& chk) {
  Runner runner(w, seed, dir, chk);
  for (std::uint64_t i = 0; i < runner.units_per_pass(); ++i) runner.unit(i);
  return runner.repeats().combined();
}

std::optional<std::string> oracle_digest(const fs::path& file, std::string_view workload) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    if (fields >> name >> digest && name == workload) return digest;
  }
  return std::nullopt;
}

// --- metrics output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Checks& chk, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += chk.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(chk.attempted());
  out += ", \"failed\": " + std::to_string(chk.failed());
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " + json_double(metrics[k].value) +
           ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Peak resident memory of this process image. (getrusage's ru_maxrss
/// would also count the launcher's peak, which survives exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Moves the calling thread from CPU to CPU. On a shared host the CPU
/// time of the same work changes from CPU to CPU, by up to 1.5x, in
/// phases lasting seconds (FINDINGS.md); a measurement that stays on one
/// CPU reports that CPU's phase, one that visits every allowed CPU in
/// turn reports the machine. Single-threaded workloads only: threads and processes
/// started while pinned would inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::uint64_t i) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Runs units until `seconds` have passed and at least 100 runs are
/// timed, so run_ms_p90 always has 10 samples beyond it.
std::vector<Unit> run_for(Runner& runner, double seconds) {
  std::optional<CpuRotation> rotation;
  if (runner.single_threaded()) rotation.emplace();
  std::vector<Unit> units;
  std::size_t runs = 0;
  const auto t0 = Clock::now();
  while (runs < 100 || seconds_since(t0) < seconds) {
    if (rotation) rotation->pin(Runner::cpu_slot(units.size()));
    units.push_back(runner.unit(units.size()));
    runs += units.back().run_ms.size();
  }
  return units;
}

std::vector<Metric> end_to_end(const std::vector<Unit>& units, double peak_mb,
                               double tlm_err) {
  double cycles = 0.0, measured = 0.0, host = 0.0, ok = 0.0;
  std::vector<double> setup, run_ms;
  for (const Unit& u : units) {
    cycles += static_cast<double>(u.cycles);
    measured += u.measured_s;
    host += u.host_s;
    ok += static_cast<double>(u.runs_ok);
    setup.push_back(u.setup_s);
    run_ms.insert(run_ms.end(), u.run_ms.begin(), u.run_ms.end());
  }
  std::fprintf(stderr, "perfbench: %zu units, %zu runs timed\n", units.size(), run_ms.size());
  return {
      {"sim_cycles_per_s", cycles / measured, "1/s"},
      {"runs_per_s", ok / host, "1/s"},
      {"run_ms_p50", median(run_ms), "ms"},
      {"run_ms_p90", percentile(run_ms, 0.9), "ms"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"tlm_energy_err", tlm_err, "ratio"},
  };
}

// --- the traced run -------------------------------------------------------------

/// The per-layer ladder: paper_cycle's traffic at stacked levels, same
/// seed and length, levels interleaved round by round.
constexpr std::array<Observers, 5> kLadder = {{
    {},                                                       // kernel + bus
    {.estimator = true},                                      // + PowerFsm
    {.estimator = true, .monitor = true},                     // + BusMonitor
    {.estimator = true, .monitor = true, .window_cycles = kObservedWindow},  // + windows
    {.estimator = true, .monitor = true, .window_cycles = kObservedWindow, .txn_trace = true},
}};

struct LadderRound {
  std::array<double, kLadder.size()> ns{};  ///< host ns per simulated cycle
  double tlm_ns = 0.0;
  bool exported = false;
  std::array<double, kExportFiles.size()> export_ms{};
};

struct LadderCounts {  ///< simulated counts, identical every round
  double processes = 0, deltas = 0, advances = 0, transfers = 0, txns = 0;
  double trace_events = 0, export_bytes = 0, tlm_transfers = 0;
};

LadderRound ladder_round(std::uint64_t round, std::uint64_t base, const fs::path& dir,
                         Checks& chk, LadderCounts& counts) {
  LadderRound out;
  constexpr std::size_t kItems = kLadder.size() + 1;  // + the TLM model
  for (std::size_t k = 0; k < kItems; ++k) {
    const std::size_t item = (k + round) % kItems;
    if (item == kLadder.size()) {
      double run_s = 0.0;
      const TlmResult t = tlm_run(base, kLadderCycles, chk, nullptr, &run_s);
      out.tlm_ns = 1e9 * run_s / static_cast<double>(t.cycles);
      counts.tlm_transfers = static_cast<double>(t.transfers) / static_cast<double>(t.cycles);
      continue;
    }
    auto rig = build_rig(base, kLadder[item]);
    const auto t0 = CpuClock::now();
    rig->run(kLadderCycles);
    out.ns[item] = 1e9 * seconds_since(t0) / static_cast<double>(kLadderCycles);
    chk.begin();
    check_rig(chk, *rig, "ladder level " + std::to_string(item));
    const auto per_cycle = [](std::uint64_t n) {
      return static_cast<double>(n) / static_cast<double>(kLadderCycles);
    };
    if (item == 2) {
      counts.processes = per_cycle(rig->kernel.stats().processes_executed);
      counts.deltas = per_cycle(rig->kernel.delta_count());
      counts.advances = per_cycle(rig->kernel.stats().time_advances);
      const Span span("ahb.BusMonitor::stats");
      counts.transfers = per_cycle(rig->mon->stats().transfers);
    }
    if (item == kLadder.size() - 1) {
      {
        const Span span("power.txn_tracer");
        counts.txns = per_cycle(rig->est->txn_tracer()->log().size());
        counts.trace_events = static_cast<double>(rig->est->trace_events()->size() +
                                                  rig->est->txn_tracer()->spans().size());
      }
      // Exporting costs several times the whole ladder; every other
      // round is enough for its medians.
      if (round % 2 == 1) continue;
      out.exported = true;
      export_all(*rig, dir, &out.export_ms);
      counts.export_bytes = 0;
      for (const char* f : kExportFiles) {
        counts.export_bytes += static_cast<double>(fs::file_size(dir / f));
      }
    }
  }
  return out;
}

std::vector<Metric> per_layer(const std::vector<LadderRound>& rounds, const LadderCounts& c,
                              const CampaignStats& cs, double trace_overhead) {
  const auto level = [&](std::size_t k) {
    std::vector<double> v;
    for (const LadderRound& r : rounds) v.push_back(r.ns[k]);
    return median(v);
  };
  const auto increment = [&](std::size_t k) {
    std::vector<double> v;
    for (const LadderRound& r : rounds) v.push_back(r.ns[k] - r.ns[k - 1]);
    return median(v);
  };
  std::vector<double> ratio, tlm;
  for (const LadderRound& r : rounds) {
    ratio.push_back((r.ns[1] + r.ns[4] - r.ns[3]) / r.ns[1]);
    tlm.push_back(r.tlm_ns);
  }
  const double base = level(0);
  double stacked = base;
  for (std::size_t k = 1; k < kLadder.size(); ++k) stacked += increment(k);
  const double full = level(kLadder.size() - 1);

  std::vector<Metric> m = {
      {"sim.ns_per_cycle", base, "ns"},
      {"sim.processes_per_cycle", c.processes, "count"},
      {"sim.deltas_per_cycle", c.deltas, "count"},
      {"sim.time_advances_per_cycle", c.advances, "count"},
      {"ahb.monitor_ns_per_cycle", increment(2), "ns"},
      {"ahb.transfers_per_cycle", c.transfers, "count"},
      {"power.fsm_ns_per_cycle", increment(1), "ns"},
      {"power.attribution_ns_per_cycle", increment(4), "ns"},
      {"power.attribution_ratio", median(ratio), "ratio"},
      {"power.txns_per_cycle", c.txns, "count"},
      {"telemetry.windows_ns_per_cycle", increment(3), "ns"},
  };
  static constexpr std::array<const char*, 7> kExportMetric = {
      "telemetry.export_ms.window_csv", "telemetry.export_ms.window_json",
      "telemetry.export_ms.trace_json", "telemetry.export_ms.txns_csv",
      "telemetry.export_ms.txns_json",  "telemetry.export_ms.txn_trace_json",
      "telemetry.export_ms.metrics_json"};
  for (std::size_t k = 0; k < kExportMetric.size(); ++k) {
    std::vector<double> v;
    for (const LadderRound& r : rounds) {
      if (r.exported) v.push_back(r.export_ms[k]);
    }
    m.push_back({kExportMetric[k], median(v), "ms"});
  }
  const double workers = static_cast<double>(sweep_workers());
  double spec_s = 0.0;
  for (const double ms : cs.spec_ms) spec_s += ms / 1e3;
  const double runs = static_cast<double>(cs.runs);
  const bool sweep = cs.runs > 0;
  m.insert(m.end(), {
      {"telemetry.export_mb", c.export_bytes / 1e6, "MB"},
      {"telemetry.trace_events", c.trace_events, "count"},
      {"campaign.spec_ms_p50", median(cs.spec_ms), "ms"},
      {"campaign.overhead_ms_per_run",
       sweep ? 1e3 * (cs.pool_s * workers - spec_s) / runs : 0.0, "ms"},
      {"campaign.parallel_efficiency", sweep ? spec_s / (cs.pool_s * workers) : 0.0, "ratio"},
      {"campaign.report_ms", median(cs.report_ms), "ms"},
      {"campaign.journal_kb", median(cs.journal_kb), "kB"},
      {"campaign.events", median(cs.events), "count"},
      {"campaign.attempts_per_run",
       sweep ? static_cast<double>(cs.attempts) / runs : 0.0, "count"},
      {"tlm.ns_per_cycle", median(tlm), "ns"},
      {"tlm.transfers_per_cycle", c.tlm_transfers, "count"},
      {"bench.trace_overhead", trace_overhead, "ratio"},
      {"bench.stack_residual", std::fabs(stacked - full) / full, "ratio"},
  });
  return m;
}

/// The separate traced run: the workload itself, in pairs of one
/// untraced and one traced unit (bench.trace_overhead and the campaign
/// metrics), then the stacked-level ladder for the rest of the time.
std::vector<Metric> traced_run(Runner& runner, double seconds, std::uint64_t seed,
                               const fs::path& out, Checks& chk) {
  CampaignStats cs;
  std::vector<double> ratios;  ///< traced / untraced host time, per pair
  {
    std::optional<CpuRotation> rotation;
    if (runner.single_threaded()) rotation.emplace();
    const auto t0 = Clock::now();
    for (std::uint64_t pair = 0; ratios.size() < 2 || seconds_since(t0) < 0.4 * seconds;
         ++pair) {
      if (rotation) rotation->pin(Runner::cpu_slot(pair));
      // Both units of a pair run the same input on the same CPU; ABBA
      // order across pairs cancels drift within the pair.
      const bool traced_first = pair % 2 == 1;
      std::array<double, 2> s{};  // [untraced, traced]
      for (const bool on : {traced_first, !traced_first}) {
        perfbench::set_tracing(on);
        s[on ? 1 : 0] = runner.unit(pair, &cs).host_s;
      }
      ratios.push_back(s[1] / s[0]);
    }
  }
  perfbench::set_tracing(true);
  std::vector<LadderRound> rounds;
  LadderCounts counts;
  const fs::path ladder_dir = out / "ladder";
  fs::create_directories(ladder_dir);
  {
    CpuRotation rotation;
    const auto t1 = Clock::now();
    while (rounds.size() < 3 || seconds_since(t1) < 0.6 * seconds) {
      rotation.pin(rounds.size());
      perfbench::set_run_id(1'000'000 + rounds.size());
      const Span span("bench.ladder_round");
      rounds.push_back(
          ladder_round(rounds.size(), instance_seed(seed, 0), ladder_dir, chk, counts));
    }
  }
  perfbench::set_tracing(false);
  const std::vector<perfbench::SpanRecord> spans = perfbench::recorded_spans();
  perfbench::write_chrome_trace(out / "bench_trace.json", spans);
  std::fprintf(stderr, "perfbench: per-layer self time (%zu spans, %zu ladder rounds)\n%s",
               spans.size(), rounds.size(), perfbench::self_time_table(spans).c_str());
  return per_layer(rounds, counts, cs, median(ratios));
}

[[noreturn]] void usage() {
  std::fputs(
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
      "                 --out DIR --oracle FILE\n"
      "       perfbench --workload NAME --print-digest [--out DIR]\n"
      "workloads: paper_cycle paper_observed sweep_thread sweep_process tlm_paper\n",
      stderr);
  std::exit(2);
}

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  bool print_digest = false;
  fs::path out = ".bench_out";
  fs::path oracle;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k == "--print-digest") {
      a.print_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (k == "--workload") {
      for (const WorkloadInfo& w : kWorkloads) {
        if (std::string_view(w.name) == v) a.workload = &w;
      }
      if (!a.workload) usage();
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
      if (!(a.seconds > 0.0)) usage();
    } else if (k == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--oracle") {
      a.oracle = v;
    } else {
      usage();
    }
  }
  if (!a.workload || (!a.print_digest && (a.oracle.empty() || a.seconds == 0.0))) usage();
  return a;
}

int run(const Args& a) {
  const Workload w = a.workload->id;
  const std::string name = a.workload->name;
  fs::create_directories(a.out);
  Checks chk;

  if (a.print_digest) {
    std::printf("%s %s\n", name.c_str(), pass_digest(w, kDefaultSeed, a.out, chk).c_str());
    return chk.failed() == 0 ? 0 : 1;
  }

  // The measured phase comes first, so that peak_rss_mb covers the
  // workload alone and not the untimed checks below.
  Runner runner(w, a.seed, a.out, chk);
  std::vector<Unit> units;
  double peak_mb = 0.0;
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = traced_run(runner, a.seconds, a.seed, a.out, chk);
  } else {
    units = run_for(runner, a.seconds);
    peak_mb = peak_rss_mb();
  }

  // Output oracle: the default-seed digest, then the invariants on this
  // seed. Untimed.
  const std::optional<std::string> want = oracle_digest(a.oracle, name);
  const std::string got = pass_digest(w, kDefaultSeed, a.out, chk);
  chk.begin();
  chk.expect(want.has_value() && *want == got,
             name + ": default-seed digest " + got + " != oracle " + want.value_or("(none)"));
  if (w == Workload::kSweepThread) check_isolation_identity(kSweepThread, a.seed, chk);
  if (w == Workload::kSweepProcess) check_isolation_identity(kSweepProcess, a.seed, chk);
  if (!a.trace) metrics = end_to_end(units, peak_mb, tlm_energy_error(a.seed, chk));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_result(chk, metrics);
  return chk.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
