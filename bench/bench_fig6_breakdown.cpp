// Reproduces Figure 6 of the paper: the energy contribution of the AHB
// sub-blocks (M2S, DEC, ARB, S2M) over the full 50 us testbench run.
// The paper's qualitative picture: M2S dominates, the arbiter is tiny.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  campaign::PaperTestbench sys;
  std::puts("=== Figure 6: AHB sub-blocks power contribution (50 us) ===\n");

  sys.run(sim::SimTime::us(50));

  const power::BlockEnergy& e = sys.est->block_totals();
  std::fputs(power::format_block_breakdown(e).c_str(), stdout);
  std::printf("\nTotal: %s over %llu cycles\n",
              power::format_energy(e.total()).c_str(),
              static_cast<unsigned long long>(sys.est->fsm().cycles()));

  const bool ordering_ok = e.m2s > e.s2m && e.m2s > e.dec && e.m2s > e.arb &&
                           e.arb < e.m2s / 10;
  if (!ordering_ok) {
    std::puts("SHAPE CHECK FAILED: expected M2S dominant and ARB marginal");
    return 1;
  }
  std::puts("SHAPE CHECK PASSED: M2S > {S2M, DEC} >> ARB, as in the paper.");
  return 0;
}
