// Reproduces Table 1 of the paper: per-instruction average and total
// energy over a 50 us simulation of the AHB testbench at 100 MHz, plus
// the headline split between data-transfer and arbitration energy.
//
// Paper reference (Table 1):
//   IDLE_HO_IDLE_HO  14.7 pJ   11.49 %
//   IDLE_HO_WRITE    16.7 pJ    0.06 %
//   READ_WRITE       19.8 pJ   45.12 %
//   READ_IDLE_HO     22.4 pJ    1.14 %
//   WRITE_READ       14.7 pJ   42.19 %
//   => ~87.3 % data transfer without handover, ~12.7 % arbitration.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  campaign::PaperTestbench sys;
  std::puts("=== Table 1: instructions energy analysis ===");
  std::puts("testbench: 2 traffic masters (WRITE-READ sequences + IDLE),");
  std::puts("           1 default master, 3 slaves, 100 MHz, 50 us\n");

  sys.run(sim::SimTime::us(50));

  const power::PowerFsm& fsm = sys.est->fsm();
  std::fputs(power::format_instruction_table(fsm).c_str(), stdout);
  std::putchar('\n');
  std::fputs(power::format_activity_report(fsm.activity()).c_str(), stdout);

  const double data = power::data_transfer_share(fsm);
  const double arb = power::arbitration_share(fsm);
  std::printf("\nData-transfer (no handover) energy share: %6.2f %%  (paper: 87.3 %%)\n",
              100.0 * data);
  std::printf("Arbitration-related energy share:         %6.2f %%  (paper: 12.7 %%)\n",
              100.0 * arb);
  std::printf("Other (pure idle) energy share:           %6.2f %%\n",
              100.0 * (1.0 - data - arb));

  // Sanity for automated runs: the paper's qualitative claim must hold.
  if (data < 2 * arb) {
    std::puts("SHAPE CHECK FAILED: data path does not dominate arbitration");
    return 1;
  }
  std::puts("\nSHAPE CHECK PASSED: optimization effort belongs on the AHB data-path.");
  return 0;
}
