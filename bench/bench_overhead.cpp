// Observability overhead guards: each mode enforces one of the
// observability contract's "disabled costs almost nothing" bounds and
// exits 1 on violation.
//
//   bench_overhead --telemetry-guard  a *disabled* metrics registry
//                                     costs < 2% versus no registry;
//   bench_overhead --txn-guard        a compiled-in but runtime-disabled
//                                     transaction tracer costs < 3%
//                                     versus no tracer;
//   bench_overhead --events-guard     a campaign narrating into a
//                                     *disabled* EventLog (plus an
//                                     attached ProgressTracker) costs
//                                     < 2% versus no log at all.
//
// Exactly one mode is required. The enabled costs of each layer (the
// paper's Sec. 6 "doubling in the simulation time") are measured by
// perfbench's per-layer ladder (perfbench/FINDINGS.md).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/progress.hpp"
#include "common.hpp"
#include "telemetry/events.hpp"

namespace {

using namespace ahbp;

constexpr auto kSimTime = sim::SimTime::us(200);  // 20k cycles @ 100 MHz

/// Receives each sample's result, so the timed work stays observable
/// and cannot be optimized away.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Overhead guards. Every guard times the same workload without (A) and
// with (B) the disabled feature in interleaved ABBA pairs -- AB, BA, AB,
// ... -- so drift and warm-up hit both sides alike, and measures each
// sample in the calling thread's CPU time, so time the thread spends
// descheduled never counts. The verdict is the median of the per-pair
// overheads B/A - 1, which a few disturbed samples cannot move. On a
// noisy host the guard keeps adding pairs until the median's 95%
// confidence interval lies wholly below the bound, or until a pair
// budget runs out and the median alone decides.

using bench::quantile;
using bench::sorted;
using bench::thread_cpu_seconds;

/// Distribution-free 95% confidence interval of the median of sorted
/// `v`: the order statistics n/2 -+ 0.98 sqrt(n) (normal approximation
/// to the binomial).
std::pair<double, double> median_ci(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  const double half = 0.98 * std::sqrt(n);
  const auto lo = static_cast<std::size_t>(std::max(0.0, std::floor(n / 2 - half)));
  const auto hi = static_cast<std::size_t>(std::min(n - 1, std::ceil(n / 2 + half)));
  return {v[lo], v[hi]};
}

/// Runs ABBA pairs of `sample(false)` (A) and `sample(true)` (B), each
/// returning its thread-CPU seconds -- at least `min_pairs`, at most
/// `max_pairs` -- and checks the median per-pair overhead B/A - 1
/// against `bound`. Returns the process exit status.
int run_guard(const char* label, const char* b_name, double bound,
              int min_pairs, int max_pairs,
              const std::function<double(bool)>& sample) {
  sample(false);  // warm up code and allocator once
  std::vector<double> a, b, overhead;
  std::pair<double, double> ci;
  for (int i = 0; i < max_pairs; ++i) {
    double ta = 0, tb = 0;
    if (i % 2 == 0) {
      ta = sample(false);
      tb = sample(true);
    } else {
      tb = sample(true);
      ta = sample(false);
    }
    a.push_back(ta);
    b.push_back(tb);
    overhead.push_back(tb / ta - 1.0);
    if (static_cast<int>(overhead.size()) < min_pairs) continue;
    ci = median_ci(sorted(overhead));
    // Stop early only on a clear pass: a burst of host noise over a few
    // pairs can fake an overhead, so a failing verdict needs the budget.
    if (ci.second < bound) break;
  }
  const std::vector<double> sa = sorted(a), sb = sorted(b), so = sorted(overhead);
  const double delta = quantile(so, 0.5);
  std::printf("%s: %zu ABBA pairs, thread CPU time per sample\n", label,
              so.size());
  std::printf("  %-17s median %.3f ms (q1 %.3f, q3 %.3f)\n", "baseline",
              quantile(sa, 0.5) * 1e3, quantile(sa, 0.25) * 1e3,
              quantile(sa, 0.75) * 1e3);
  std::printf("  %-17s median %.3f ms (q1 %.3f, q3 %.3f)\n", b_name,
              quantile(sb, 0.5) * 1e3, quantile(sb, 0.25) * 1e3,
              quantile(sb, 0.75) * 1e3);
  std::printf("  median pair overhead %+.2f%% (95%% CI %+.2f%% .. %+.2f%%, "
              "q1 %+.2f%%, q3 %+.2f%%; bound < %.0f%%)\n",
              delta * 100.0, ci.first * 100.0, ci.second * 100.0,
              quantile(so, 0.25) * 100.0, quantile(so, 0.75) * 100.0,
              bound * 100.0);
  if (delta >= bound) {
    std::fprintf(stderr, "FAIL: %s exceeds the overhead bound\n", label);
    return 1;
  }
  std::puts("PASS");
  return 0;
}

// --telemetry-guard: a disabled metrics registry costs < 2%.
double telemetry_sample(bool with_registry) {
  const double t0 = thread_cpu_seconds();
  telemetry::MetricsRegistry metrics;
  metrics.set_enabled(false);
  campaign::PaperTestbench sys({.power = power::AhbPowerEstimator::Config{
                                    .metrics = with_registry ? &metrics : nullptr}});
  sys.run(kSimTime);
  g_sink = sys.est->total_energy();
  return thread_cpu_seconds() - t0;
}

// --txn-guard: a runtime-disabled transaction tracer costs < 3%.
double txn_sample(bool with_tracer) {
  // 3x the telemetry guard's run per sample: the disabled tracer costs one
  // branch, so longer samples keep timer granularity out of the ratio.
  const double t0 = thread_cpu_seconds();
  campaign::PaperTestbench sys(
      {.power = power::AhbPowerEstimator::Config{.txn_trace = with_tracer}});
  if (with_tracer) sys.est->txn_tracer()->set_enabled(false);
  sys.run(kSimTime * 3);
  g_sink = sys.est->total_energy();
  return thread_cpu_seconds() - t0;
}

// --events-guard: a campaign narrating into a disabled EventLog (plus an
// attached ProgressTracker) costs < 2%.
double events_sample(bool with_events) {
  // Many tiny runs so the per-run narration path (run_start/run_finish
  // emission, tracker bookkeeping) dominates over simulation work --
  // the worst case for the disabled sink's early-out branch.
  telemetry::EventLog::Config cfg;
  cfg.enabled = false;
  telemetry::EventLog log(cfg);
  campaign::ProgressTracker tracker;
  tracker.attach(log);
  std::vector<campaign::RunSpec> specs;
  specs.reserve(48);
  for (int i = 0; i < 48; ++i) {
    specs.push_back(
        campaign::PaperTestbench::spec("guard_" + std::to_string(i), {}, 500));
  }
  // One worker: the campaign runs every spec inline on this thread, so
  // its CPU clock sees all of the work.
  campaign::Campaign::Config ccfg;
  ccfg.threads = 1;
  const campaign::Campaign pool(ccfg);
  campaign::Campaign::RunOptions opts;
  if (with_events) {
    opts.events = &log;
    opts.progress = &tracker;
  }
  const double t0 = thread_cpu_seconds();
  const auto outcomes = pool.run(specs, opts);
  g_sink = static_cast<double>(outcomes.size());
  return thread_cpu_seconds() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2) {
    if (std::strcmp(argv[1], "--telemetry-guard") == 0) {
      return run_guard("telemetry-off guard", "disabled-registry", 0.02, 10,
                       200, telemetry_sample);
    }
    if (std::strcmp(argv[1], "--txn-guard") == 0) {
      return run_guard("txn-trace guard", "disabled-tracer", 0.03, 10, 100,
                       txn_sample);
    }
    if (std::strcmp(argv[1], "--events-guard") == 0) {
      return run_guard("events-off guard", "disabled-log", 0.02, 10, 200,
                       events_sample);
    }
  }
  std::fprintf(stderr,
               "usage: bench_overhead "
               "--telemetry-guard | --txn-guard | --events-guard\n");
  return 2;
}
