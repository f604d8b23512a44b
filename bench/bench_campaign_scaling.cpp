// Campaign throughput scaling -- how fast the paper's sweep workload
// runs when fanned across cores.
//
// Workload: the Sec. 5 testbench swept over arbitration policy, slave
// wait states and traffic seeds (the Figs. 3-6 axes) -- dozens of
// independent 50 us simulations. The bench runs the identical spec list
// through campaign::Campaign at 1, 2, 4 and hardware_threads workers,
// reports simulated cycles/sec per thread count as JSON (collected into
// BENCH_*.json trajectories), and verifies the determinism contract:
// per-run energies must be bit-identical to the serial baseline.
//
//   bench_campaign_scaling [--smoke]
//
// --smoke shrinks the workload (8 runs x 5 us, 1 and 2 threads) for the
// ctest guard; the determinism check is identical. Exit code 1 on any
// parallel-vs-serial mismatch.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace ahbp;

std::vector<campaign::RunSpec> paper_sweep(unsigned n_seeds, std::uint64_t cycles) {
  std::vector<campaign::RunSpec> specs;
  for (const auto policy : {ahb::ArbitrationPolicy::kFixedPriority,
                            ahb::ArbitrationPolicy::kRoundRobin}) {
    for (const unsigned waits : {0u, 1u, 3u}) {
      for (unsigned s = 0; s < n_seeds; ++s) {
        const std::string name =
            std::string(policy == ahb::ArbitrationPolicy::kFixedPriority ? "fixed"
                                                                         : "rr") +
            "/w" + std::to_string(waits) + "/s" + std::to_string(s);
        specs.push_back(campaign::PaperTestbench::spec(
            name, {.policy = policy, .wait_states = waits,
                   .master_seeds = {101 + 1000 * s, 202 + 1000 * s}}, cycles));
      }
    }
  }
  return specs;
}

struct Point {
  unsigned threads = 0;
  double wall_s = 0.0;
  double cycles_per_sec = 0.0;
  double speedup = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const unsigned n_seeds = smoke ? 2u : 4u;  // 2*3*n_seeds runs total
  const std::uint64_t cycles = smoke ? 500 : 5000;  // 5 or 50 us

  const std::vector<campaign::RunSpec> specs = paper_sweep(n_seeds, cycles);

  const unsigned hw = campaign::Campaign::hardware_threads();
  std::vector<unsigned> counts{1};
  for (unsigned t : {2u, 4u, hw}) {
    if (t > 1 && (smoke ? t <= 2 : true) &&
        std::find(counts.begin(), counts.end(), t) == counts.end()) {
      counts.push_back(t);
    }
  }

  std::vector<campaign::RunOutcome> baseline;
  std::vector<Point> points;
  bool deterministic = true;
  std::uint64_t cycles_total = 0;

  for (const unsigned t : counts) {
    const campaign::Campaign pool(campaign::Campaign::Config{.threads = t});
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = pool.run(specs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    cycles_total = 0;
    for (const auto& o : outcomes) {
      if (o.status != campaign::RunStatus::kOk) {
        std::fprintf(stderr, "run %zu (%s) failed: %s\n", o.index, o.name.c_str(),
                     o.error.c_str());
        deterministic = false;
      }
      cycles_total += o.report.cycles;
    }

    if (t == 1) {
      baseline = outcomes;
    } else {
      // Determinism guard: same seeds => same joules, bit for bit,
      // regardless of worker count and completion order.
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (std::memcmp(&outcomes[i].report.total_energy,
                        &baseline[i].report.total_energy, sizeof(double)) != 0 ||
            outcomes[i].report.cycles != baseline[i].report.cycles ||
            outcomes[i].name != baseline[i].name) {
          std::fprintf(stderr,
                       "determinism violation at run %zu (%s): %.17g J @ %u "
                       "threads vs %.17g J serial\n",
                       i, outcomes[i].name.c_str(),
                       outcomes[i].report.total_energy, t,
                       baseline[i].report.total_energy);
          deterministic = false;
        }
      }
    }

    Point p;
    p.threads = t;
    p.wall_s = wall;
    p.cycles_per_sec = wall > 0.0 ? static_cast<double>(cycles_total) / wall : 0.0;
    p.speedup = points.empty() ? 1.0 : points.front().wall_s / wall;
    points.push_back(p);
  }

  // JSON summary on stdout for trajectory collection.
  std::printf("{\"bench\":\"campaign_scaling\",\"smoke\":%s,\"runs\":%zu,"
              "\"sim_cycles_total\":%llu,\"hardware_threads\":%u,"
              "\"deterministic\":%s,\"scaling\":[",
              smoke ? "true" : "false", specs.size(),
              static_cast<unsigned long long>(cycles_total), hw,
              deterministic ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("%s{\"threads\":%u,\"wall_s\":%.6f,\"cycles_per_sec\":%.0f,"
                "\"speedup\":%.3f}",
                i == 0 ? "" : ",", points[i].threads, points[i].wall_s,
                points[i].cycles_per_sec, points[i].speedup);
  }
  std::printf("]}\n");

  if (!deterministic) return 1;
  return 0;
}
