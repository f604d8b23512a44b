// Ablation over instruction-set granularity (paper Sec. 3): the trade-off
// between characterization effort (number of instructions to
// characterize) and the information the analysis yields.
//
//   coarse : 2 modes  (TRANSFER / NOT)      -> 4 instructions
//   paper  : 4 modes  (IDLE/IDLE_HO/R/W)    -> up to 16 instructions
//   fine   : per (mode x handover x wait)   -> tens of instructions
//
// Total energy is identical by construction (the same per-cycle energies
// are binned differently); what changes is how actionable the table is.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "power/report.hpp"

namespace {

using namespace ahbp;

struct Binned {
  std::map<std::string, power::PowerFsm::InstrStats> table;
  void add(const std::string& name, double e) {
    auto& st = table[name];
    ++st.count;
    st.energy += e;
  }
};

}  // namespace

int main() {
  std::puts("=== Ablation: instruction-set granularity (paper Sec. 3) ===\n");

  bench::PaperSystem sys;
  // A custom report sink re-bins the same per-cycle energies at all
  // three granularities simultaneously.
  struct MultiGranularitySink : ahb::CycleSubscriber {
    explicit MultiGranularitySink(power::PowerFsm::Config cfg) : fsm(cfg) {}
    void post_cycle(const ahb::CycleView& v) override {
      const auto r = fsm.step(v);
      const double e = r.blocks.total();
      // Coarse: transfer vs non-transfer.
      const std::string c = v.data_active ? "TRANS" : "NOTRANS";
      coarse.add(prev_c + "_" + c, e);
      prev_c = c;
      // Fine: paper mode x hready.
      const std::string f =
          std::string(power::to_string(r.mode)) + (v.hready ? "" : "+WAIT");
      fine.add(prev_f + "->" + f, e);
      prev_f = f;
    }
    power::PowerFsm fsm;
    Binned coarse, fine;
    std::string prev_c = "NOTRANS", prev_f = "IDLE";
  } sink(power::PowerFsm::Config{.n_masters = sys.bus.n_masters(),
                                 .n_slaves = sys.bus.n_slaves()});

  sys.bus.subscribe(sink);
  sys.run(sim::SimTime::us(50));

  const auto& paper_tab = sink.fsm.instructions();

  auto summarize = [](const char* name, std::size_t instructions,
                      double total_e) {
    std::printf("%-28s %6zu instructions   total %s\n", name, instructions,
                power::format_energy(total_e).c_str());
  };

  double coarse_e = 0.0;
  for (const auto& [k, v] : sink.coarse.table) coarse_e += v.energy;
  double fine_e = 0.0;
  for (const auto& [k, v] : sink.fine.table) fine_e += v.energy;

  summarize("coarse (2 modes)", sink.coarse.table.size(), coarse_e);
  summarize("paper (4 modes)", paper_tab.size(), sink.fsm.total_energy());
  summarize("fine (mode x wait)", sink.fine.table.size(), fine_e);

  std::puts("\ncoarse table:");
  for (const auto& [k, v] : sink.coarse.table) {
    std::printf("  %-20s %9llu x %10s\n", k.c_str(),
                static_cast<unsigned long long>(v.count),
                power::format_energy(v.average()).c_str());
  }

  std::puts("\npaper-granularity table (what the coarse table hides):");
  std::fputs(power::format_instruction_table(sink.fsm).c_str(), stdout);

  // The headline insight (data path vs arbitration) only exists at the
  // paper's granularity or finer: the coarse table cannot express it.
  const double data = power::data_transfer_share(sink.fsm);
  const double arb = power::arbitration_share(sink.fsm);
  std::printf("\ninsight available at paper granularity: data %.1f %% vs arb %.1f %%\n",
              100 * data, 100 * arb);
  std::puts("insight available at coarse granularity: none (handover invisible)");

  const bool consistent =
      std::abs(coarse_e - sink.fsm.total_energy()) < 1e-12 + 1e-9 * coarse_e &&
      std::abs(fine_e - sink.fsm.total_energy()) < 1e-12 + 1e-9 * fine_e;
  std::printf("\nenergy conservation across granularities: %s\n",
              consistent ? "OK" : "VIOLATED");
  return consistent ? 0 : 1;
}
