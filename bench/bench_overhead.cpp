// Reproduces the paper's Sec. 6 cost claim: "the price to pay for the
// application of this analysis methodology ... is a doubling in the
// simulation time". Google-benchmark measures the same 20k-cycle
// testbench run with power analysis absent, disabled, and in each of the
// three integration styles, plus the telemetry layer (metrics registry
// and windowed sampling) on top.
//
// `bench_overhead --telemetry-guard` skips google-benchmark and instead
// enforces the observability contract's overhead guarantee: attaching a
// *disabled* metrics registry must cost < 2% versus no registry at all
// (median of per-pair ratios over interleaved ABBA pairs, each sample in
// thread CPU time). Exit 1 on violation.
// `bench_overhead --txn-guard` does the same for the transaction tracer:
// compiled in but runtime-disabled must cost < 3% versus no tracer.
// `bench_overhead --events-guard` does it for the campaign event log: a
// campaign narrating into a *disabled* EventLog (plus an attached
// ProgressTracker) must cost < 2% versus running with no log at all.

#include <benchmark/benchmark.h>

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
#include "power/styles.hpp"
#include "telemetry/events.hpp"

namespace {

using namespace ahbp;

constexpr auto kSimTime = sim::SimTime::us(200);  // 20k cycles @ 100 MHz

void BM_FunctionalOnly(benchmark::State& state) {
  for (auto _ : state) {
    bench::PaperSystem sys({.power_enabled = false});
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.m1.stats().writes);
  }
}
BENCHMARK(BM_FunctionalOnly)->Unit(benchmark::kMillisecond);

void BM_PowerDisabled(benchmark::State& state) {
  // Estimator constructed but bypassed at runtime (POWERTEST compiled in
  // but switched off).
  for (auto _ : state) {
    bench::PaperSystem sys;
    sys.est->set_enabled(false);
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.m1.stats().writes);
  }
}
BENCHMARK(BM_PowerDisabled)->Unit(benchmark::kMillisecond);

void BM_PowerLocalStyle(benchmark::State& state) {
  double energy = 0;
  for (auto _ : state) {
    bench::PaperSystem sys;
    sys.run(kSimTime);
    energy = sys.est->total_energy();
    benchmark::DoNotOptimize(energy);
  }
  state.counters["energy_nJ"] = energy * 1e9;
}
BENCHMARK(BM_PowerLocalStyle)->Unit(benchmark::kMillisecond);

void BM_PowerLocalWithTrace(benchmark::State& state) {
  // The Figs 3-5 power trace: 10-cycle (100 ns) windows, no metrics.
  for (auto _ : state) {
    bench::PaperSystem sys({.telemetry_window_cycles = 10});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    benchmark::DoNotOptimize(sys.est->total_energy());
  }
}
BENCHMARK(BM_PowerLocalWithTrace)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryDisabled(benchmark::State& state) {
  // Metrics registry attached but switched off: the contract says this
  // costs one well-predicted branch per update (docs/OBSERVABILITY.md).
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    metrics.set_enabled(false);
    bench::PaperSystem sys({.metrics = &metrics});
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.est->total_energy());
  }
}
BENCHMARK(BM_PowerTelemetryDisabled)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryMetrics(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    bench::PaperSystem sys({.metrics = &metrics});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    benchmark::DoNotOptimize(metrics.counter("ahb.power.sampled_cycles").value());
  }
}
BENCHMARK(BM_PowerTelemetryMetrics)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryWindows(benchmark::State& state) {
  // Full observability stack: live metrics plus 100-cycle windowed power
  // sampling and the instruction duration-event log.
  std::size_t windows = 0;
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    bench::PaperSystem sys(
        {.telemetry_window_cycles = 100, .metrics = &metrics});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    windows = sys.est->windows()->windows().size();
    benchmark::DoNotOptimize(windows);
  }
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_PowerTelemetryWindows)->Unit(benchmark::kMillisecond);

void BM_PowerTxnTrace(benchmark::State& state) {
  // Per-transaction reconstruction and energy attribution on top of the
  // base estimator.
  std::size_t txns = 0;
  for (auto _ : state) {
    bench::PaperSystem sys({.txn_trace = true});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    txns = sys.est->txn_tracer()->log().size();
    benchmark::DoNotOptimize(txns);
  }
  state.counters["txns"] = static_cast<double>(txns);
}
BENCHMARK(BM_PowerTxnTrace)->Unit(benchmark::kMillisecond);

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
  bench::PaperSystem sys({.metrics = with_registry ? &metrics : nullptr});
  sys.run(kSimTime);
  benchmark::DoNotOptimize(sys.est->total_energy());
  return thread_cpu_seconds() - t0;
}

// --txn-guard: a runtime-disabled transaction tracer costs < 3%.
double txn_sample(bool with_tracer) {
  // 3x the benchmark duration per sample: the disabled tracer costs one
  // branch, so longer samples keep timer granularity out of the ratio.
  const double t0 = thread_cpu_seconds();
  bench::PaperSystem sys({.txn_trace = with_tracer});
  if (with_tracer) sys.est->txn_tracer()->set_enabled(false);
  sys.run(kSimTime * 3);
  benchmark::DoNotOptimize(sys.est->total_energy());
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
    specs.push_back({"guard_" + std::to_string(i), [] {
                       bench::PaperSystem sys;
                       sys.run(sim::SimTime::us(5));
                       campaign::PowerReport r;
                       r.total_energy = sys.est->total_energy();
                       r.cycles = 500;
                       return r;
                     }});
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
  benchmark::DoNotOptimize(outcomes.size());
  return thread_cpu_seconds() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-guard") == 0) {
      return run_guard("telemetry-off guard", "disabled-registry", 0.02, 10,
                       200, telemetry_sample);
    }
    if (std::strcmp(argv[i], "--txn-guard") == 0) {
      return run_guard("txn-trace guard", "disabled-tracer", 0.03, 10, 100,
                       txn_sample);
    }
    if (std::strcmp(argv[i], "--events-guard") == 0) {
      return run_guard("events-off guard", "disabled-log", 0.02, 10, 200,
                       events_sample);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
