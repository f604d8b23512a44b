// Ablation over the paper's Fig. 1 design space: the private / local /
// global power-model integration styles. Runs the same workload under
// all three, comparing reported energy (accuracy vs the cycle-level
// reference), wall-clock cost and intrusiveness proxies.

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"
#include "power/styles.hpp"

namespace {

using namespace ahbp;
using Clock = std::chrono::steady_clock;

constexpr auto kSimTime = sim::SimTime::us(100);

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  std::puts("=== Ablation: power-model integration styles (paper Fig. 1) ===\n");
  std::printf("workload: paper testbench, %s @ 100 MHz\n\n",
              kSimTime.to_string().c_str());

  // Reference: functional only.
  double t_func = 0.0;
  {
    const auto t0 = Clock::now();
    bench::PaperSystem sys({.power_enabled = false});
    sys.run(kSimTime);
    t_func = ms_since(t0);
  }

  double e_local = 0.0, t_local = 0.0;
  {
    const auto t0 = Clock::now();
    bench::PaperSystem sys;
    sys.run(kSimTime);
    t_local = ms_since(t0);
    e_local = sys.est->total_energy();
  }

  double e_global = 0.0, t_global = 0.0;
  std::uint64_t posted = 0;
  {
    const auto t0 = Clock::now();
    bench::PaperSystem sys({.power_enabled = false});
    power::GlobalPowerAnalyzer an(&sys.top, "an",
                                  power::PowerFsm::Config{
                                      .n_masters = sys.bus.n_masters(),
                                      .n_slaves = sys.bus.n_slaves()});
    sys.bus.subscribe(an);
    sys.run(kSimTime);
    t_global = ms_since(t0);
    e_global = an.total_energy();
    posted = an.fsm().cycles();
  }

  double e_priv = 0.0, t_priv = 0.0;
  std::uint64_t events = 0;
  {
    const auto t0 = Clock::now();
    bench::PaperSystem sys({.power_enabled = false});
    power::PrivatePowerModel priv(&sys.top, "priv", sys.bus);
    sys.run(kSimTime);
    t_priv = ms_since(t0);
    e_priv = priv.total_energy();
    events = priv.event_count();
  }

  std::printf("%-22s %12s %12s %10s %14s\n", "style", "energy", "vs local",
              "time", "vs functional");
  auto row = [&](const char* name, double e, double t, const char* note) {
    std::printf("%-22s %12s %11.1f%% %8.1f ms %12.2fx  %s\n", name,
                power::format_energy(e).c_str(),
                e_local > 0 ? 100.0 * e / e_local : 0.0, t, t / t_func, note);
  };
  std::printf("%-22s %12s %12s %8.1f ms %12.2fx\n", "functional only", "-", "-",
              t_func, 1.0);
  row("local (monitor FSM)", e_local, t_local, "(paper's choice, ~2x)");
  row("global (analyzer)", e_global, t_global, "(most reusable)");
  row("private (per-event)", e_priv, t_priv, "(most intrusive)");

  std::printf("\nglobal analyzer received %llu cycle records; private style handled %llu"
              " signal events\n",
              static_cast<unsigned long long>(posted),
              static_cast<unsigned long long>(events));

  // Both styles run the same FSM on the bus's one cycle sample, so the
  // energies must be bit-identical.
  const bool agree = e_global == e_local;
  std::printf("local/global agreement: %s (identical FSM on identical samples)\n",
              agree ? "EXACT" : "MISMATCH");
  return agree ? 0 : 1;
}
