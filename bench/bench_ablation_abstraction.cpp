// Ablation over the modeling abstraction level -- the paper's speed
// argument quantified: cycle-accurate kernel simulation vs the
// transaction-level (function-call) model, same workload shape, same
// power FSM. Reports the speedup and the energy-per-cycle gap; exits 1
// unless the TLM model is > 5x faster with energy/cycle within 0.3-3.0x
// of the cycle-accurate model.
//
// The speedup is timed like bench_overhead's guards: each model's run
// is measured in the calling thread's CPU time, the two run in
// alternating pairs (CA then TLM, TLM then CA, ...) so drift and
// warm-up hit both alike, and the verdict is the median of the per-pair
// ratios, which a few disturbed samples cannot move.

#include <cstdio>
#include <vector>

#include "common.hpp"
#include "power/report.hpp"
#include "tlm/tlm.hpp"

namespace {

using namespace ahbp;

constexpr std::uint64_t kCycles = 100000;  // 1 ms of bus time @ 100 MHz
constexpr int kPairs = 15;

struct Sample {
  double cpu_s = 0.0;
  double energy = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t transfers = 0;
};

Sample run_cycle_accurate() {
  Sample s;
  const double t0 = bench::thread_cpu_seconds();
  bench::PaperSystem sys;
  sys.run(sim::SimTime::us(1000));
  s.cpu_s = bench::thread_cpu_seconds() - t0;
  s.energy = sys.est->total_energy();
  s.cycles = sys.est->fsm().cycles();
  s.transfers = sys.m1.stats().writes + sys.m1.stats().reads +
                sys.m2.stats().writes + sys.m2.stats().reads;
  return s;
}

Sample run_transaction_level() {
  Sample s;
  const double t0 = bench::thread_cpu_seconds();
  tlm::TlmBus bus(tlm::TlmBus::Config{.n_masters = 3});
  tlm::TlmMemory m1, m2, m3;
  bus.map(m1, 0x0000, 0x1000);
  bus.map(m2, 0x1000, 0x1000);
  bus.map(m3, 0x2000, 0x1000);
  tlm::TlmTrafficRunner r1(bus, 1,
                           {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 101});
  tlm::TlmTrafficRunner r2(bus, 2,
                           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
  // Interleave tenures in cycle-sized slices, mimicking arbitration.
  std::uint64_t next = 2000;
  while (bus.cycles() < kCycles) {
    r1.run_until(std::min<std::uint64_t>(next, kCycles));
    r2.run_until(std::min<std::uint64_t>(next + 2000, kCycles));
    next += 4000;
  }
  s.cpu_s = bench::thread_cpu_seconds() - t0;
  s.energy = bus.total_energy();
  s.cycles = bus.cycles();
  s.transfers = bus.transfers();
  return s;
}

}  // namespace

int main() {
  std::puts("=== Ablation: abstraction level (cycle-accurate vs TLM) ===\n");

  // Warm code and allocator once; every run is deterministic, so the
  // last sample's energies stand for all of them.
  Sample ca = run_cycle_accurate();
  Sample tl = run_transaction_level();
  std::vector<double> ca_s, tlm_s, ratio;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      ca = run_cycle_accurate();
      tl = run_transaction_level();
    } else {
      tl = run_transaction_level();
      ca = run_cycle_accurate();
    }
    ca_s.push_back(ca.cpu_s);
    tlm_s.push_back(tl.cpu_s);
    ratio.push_back(ca.cpu_s / tl.cpu_s);
  }
  const std::vector<double> so = bench::sorted(ratio);
  const double speedup = bench::quantile(so, 0.5);

  const double ca_epc = ca.energy / static_cast<double>(ca.cycles);
  const double tlm_epc = tl.energy / static_cast<double>(tl.cycles);

  std::printf("%d alternating pairs, thread CPU time per run (median)\n\n", kPairs);
  std::printf("%-18s %12s %12s %12s %14s\n", "model", "cpu time", "cycles",
              "transfers", "energy/cycle");
  std::printf("%-18s %9.1f ms %12llu %12llu %14s\n", "cycle-accurate",
              bench::quantile(bench::sorted(ca_s), 0.5) * 1e3,
              static_cast<unsigned long long>(ca.cycles),
              static_cast<unsigned long long>(ca.transfers),
              power::format_energy(ca_epc).c_str());
  std::printf("%-18s %9.1f ms %12llu %12llu %14s\n", "transaction-level",
              bench::quantile(bench::sorted(tlm_s), 0.5) * 1e3,
              static_cast<unsigned long long>(tl.cycles),
              static_cast<unsigned long long>(tl.transfers),
              power::format_energy(tlm_epc).c_str());
  std::printf("\nspeedup: %.1fx (pair ratios q1 %.1fx, q3 %.1fx)   "
              "energy/cycle ratio (tlm/ca): %.2f\n",
              speedup, bench::quantile(so, 0.25), bench::quantile(so, 0.75),
              tlm_epc / ca_epc);
  std::puts("\nthe paper's abstraction ladder, quantified: each level up trades");
  std::puts("signal-accurate activity for orders-of-magnitude simulation speed");
  std::puts("while the instruction-level energy stays in the same band.");

  const bool ok = speedup > 5.0 && tlm_epc / ca_epc > 0.3 && tlm_epc / ca_epc < 3.0;
  if (!ok) {
    std::puts("ABSTRACTION CHECK FAILED");
    return 1;
  }
  std::puts("ABSTRACTION CHECK PASSED.");
  return 0;
}
