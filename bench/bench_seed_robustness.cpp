// Robustness of the Table-1 reproduction: the paper reports one
// simulation; we re-run the testbench across many random seeds and
// report mean +/- stddev of the headline quantities, showing the
// data-path-vs-arbitration split is a property of the workload class,
// not of one lucky seed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "power/report.hpp"

namespace {

using namespace ahbp;

struct Sample {
  double data_share;
  double arb_share;
  double total_nj;
  double wr_avg_pj;  ///< WRITE_READ average energy
};

struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};

Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (double x : xs) m.stddev += (x - m.mean) * (x - m.mean);
  m.stddev = std::sqrt(m.stddev / static_cast<double>(xs.size()));
  return m;
}

}  // namespace

int main() {
  std::puts("=== Seed robustness of the Table 1 headline (10 seeds, 50 us) ===\n");

  std::vector<double> data, arb, total, wr;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    campaign::PaperTestbench sys({.master_seeds = {seed * 17, seed * 31 + 5}});
    sys.run(sim::SimTime::us(50));
    const power::PowerFsm& fsm = sys.est->fsm();
    data.push_back(100.0 * power::data_transfer_share(fsm));
    arb.push_back(100.0 * power::arbitration_share(fsm));
    total.push_back(fsm.total_energy() * 1e9);
    const auto tab = fsm.instructions();
    wr.push_back(tab.count("WRITE_READ") ? tab.at("WRITE_READ").average() * 1e12
                                         : 0.0);
    std::printf("seed %2llu: data %.2f %%  arb %.2f %%  total %.1f nJ\n",
                static_cast<unsigned long long>(seed), data.back(), arb.back(),
                total.back());
  }

  const Moments md = moments(data), ma = moments(arb), mt = moments(total),
                mw = moments(wr);
  std::printf("\n%-28s %10s %10s\n", "quantity", "mean", "stddev");
  std::printf("%-28s %9.2f%% %9.2f%%\n", "data-transfer share", md.mean, md.stddev);
  std::printf("%-28s %9.2f%% %9.2f%%\n", "arbitration share", ma.mean, ma.stddev);
  std::printf("%-28s %7.1f nJ %7.1f nJ\n", "total energy", mt.mean, mt.stddev);
  std::printf("%-28s %7.2f pJ %7.2f pJ\n", "WRITE_READ avg energy", mw.mean,
              mw.stddev);
  std::printf("\npaper single-run reference: data 87.3 %%, arb 12.7 %%\n");

  // The split must be stable: every seed within a few points of the mean,
  // and the mean in the paper's neighbourhood.
  bool ok = md.stddev < 3.0 && md.mean > 80.0 && md.mean < 96.0;
  for (double d : data) ok = ok && std::fabs(d - md.mean) < 8.0;
  if (!ok) {
    std::puts("ROBUSTNESS CHECK FAILED: headline split is seed-sensitive");
    return 1;
  }
  std::puts("ROBUSTNESS CHECK PASSED: the split is a workload-class property.");
  return 0;
}
