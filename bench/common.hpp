#pragma once
// Shared helpers for the paper-reproduction benches. The testbench of
// the paper's evaluation (Sec. 5) is campaign::PaperTestbench; its
// default Config, seeds 101/202, is the rig every bench runs.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "campaign/testbench.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ahbp::bench {

/// Runs `sys` for `t` and flushes its estimator's telemetry. True when
/// the window series then sums to the total energy within 1e-9 relative;
/// otherwise prints a CHECK FAILED line.
inline bool run_and_check_windows(campaign::PaperTestbench& sys, sim::SimTime t) {
  sys.run(t);
  power::AhbPowerEstimator& est = *sys.est;
  est.flush_telemetry();
  double sum = 0.0;
  for (const double e : power::window_energy(*est.windows(), "total")) sum += e;
  const double total = est.total_energy();
  if (std::abs(sum - total) <= 1e-9 * total) return true;
  std::printf("CONSERVATION CHECK FAILED: windows hold %.17g J, estimator %.17g J\n",
              sum, total);
  return false;
}

/// CPU seconds the calling thread spent so far. Timing guards measure
/// in thread CPU time, so time the thread spends descheduled never
/// counts.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The q-quantile of sorted `v` (linear interpolation).
inline double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace ahbp::bench
