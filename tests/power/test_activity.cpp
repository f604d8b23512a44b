// Unit tests for Hamming utilities and the Activity instrumentation class,
// plus goldens of the activity statistics of a paper-testbench run.

#include "power/activity.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <random>
#include <vector>

#include "campaign/testbench.hpp"
#include "power/analytic.hpp"
#include "power/estimator.hpp"
#include "power/report.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

static_assert(popcount64(0) == 0 && popcount64(~0ull) == 64 &&
                  popcount64(0x8000000000000001ull) == 2,
              "popcount64 must be usable in constant expressions");

TEST(Popcount64, MatchesStdPopcount) {
  EXPECT_EQ(popcount64(0), 0u);
  EXPECT_EQ(popcount64(~0ull), 64u);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(popcount64(1ull << b), 1u) << "bit " << b;
  }
  std::mt19937_64 rng(12345);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng();
    ASSERT_EQ(popcount64(x), static_cast<unsigned>(std::popcount(x))) << std::hex << x;
  }
}

TEST(Hamming, BasicProperties) {
  EXPECT_EQ(hamming(0, 0), 0u);
  EXPECT_EQ(hamming(0b1010, 0b1010), 0u);
  EXPECT_EQ(hamming(0b1010, 0b0101), 4u);
  EXPECT_EQ(hamming(0, ~0ull), 64u);
  EXPECT_EQ(hamming(0xFF, 0x00), 8u);
  EXPECT_EQ(hamming(1, 2), 2u);
}

TEST(Hamming, Symmetric) {
  EXPECT_EQ(hamming(0xCAFE, 0xBEEF), hamming(0xBEEF, 0xCAFE));
}

TEST(Hamming, ConstexprUsable) {
  static_assert(hamming(0b111, 0b000) == 3);
  SUCCEED();
}

/// Observes `v` on every channel of `a`; returns channel 0's distance.
unsigned store(Activity& a, std::uint64_t v) {
  const std::vector<std::uint64_t> vals(a.size(), v);
  std::vector<unsigned> hd(a.size());
  a.store_all(vals.data(), hd.data());
  return hd[0];
}

TEST(Activity, FirstObservationCountsNothing) {
  Activity a({"x"});
  EXPECT_EQ(store(a, 0xFFFF), 0u);
  EXPECT_EQ(a.bit_change_count(0), 0u);
  EXPECT_EQ(a.sample_count(), 1u);
}

TEST(Activity, AccumulatesHammingDistances) {
  Activity a({"x"});
  store(a, 0b0000);
  EXPECT_EQ(store(a, 0b0011), 2u);
  EXPECT_EQ(store(a, 0b0111), 1u);
  EXPECT_EQ(a.bit_change_count(0), 3u);
  EXPECT_EQ(a.nonzero_count(0), 2u);
  EXPECT_EQ(a.last_value(0), 0b0111u);
  EXPECT_EQ(a.sample_count(), 3u);
}

TEST(Activity, MeanHd) {
  Activity a({"x"});
  EXPECT_DOUBLE_EQ(a.mean_hd(0), 0.0);
  store(a, 0);
  EXPECT_DOUBLE_EQ(a.mean_hd(0), 0.0);  // one sample: no transitions yet
  store(a, 0b1111);  // HD 4
  store(a, 0b1110);  // HD 1
  EXPECT_DOUBLE_EQ(a.mean_hd(0), 2.5);
}

TEST(Activity, ResetClearsEverything) {
  Activity a({"x"});
  store(a, 5);
  store(a, 6);
  a.reset();
  EXPECT_EQ(a.bit_change_count(0), 0u);
  EXPECT_EQ(a.nonzero_count(0), 0u);
  EXPECT_EQ(a.sample_count(), 0u);
  EXPECT_EQ(store(a, 0xFF), 0u);  // first sample again
}

TEST(Activity, FindResolvesChannelNames) {
  Activity a({"haddr", "hwdata"});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.find("haddr"), 0u);
  EXPECT_EQ(a.find("hwdata"), 1u);
  EXPECT_EQ(a.find("hrdata"), std::nullopt);
  EXPECT_EQ(a.name(1), "hwdata");
}

TEST(Activity, BitChangeCountSumsChannels) {
  Activity a({"x", "y"});
  const std::uint64_t first[] = {0, 0};
  const std::uint64_t second[] = {0b11, 0b111};  // 2 + 3
  unsigned hd[2];
  a.store_all(first, hd);
  a.store_all(second, hd);
  EXPECT_EQ(hd[0], 2u);
  EXPECT_EQ(hd[1], 3u);
  EXPECT_EQ(a.bit_change_count(), 5u);
}

TEST(Activity, ResetClearsChannels) {
  Activity a({"x", "y"});
  store(a, 1);
  store(a, 2);
  a.reset();
  EXPECT_EQ(a.size(), 2u);  // the channel set survives
  EXPECT_EQ(a.bit_change_count(), 0u);
  EXPECT_EQ(a.sample_count(), 0u);
}

TEST(Activity, StoreRepeatedCountsZeroDistanceSamples) {
  Activity batched({"x"}), looped({"x"});
  for (Activity* a : {&batched, &looped}) {
    store(*a, 0);
    store(*a, 0b1011);  // HD 3
  }
  batched.store_repeated(50);
  for (int i = 0; i < 50; ++i) store(looped, 0b1011);
  EXPECT_EQ(batched.sample_count(), looped.sample_count());
  EXPECT_EQ(batched.bit_change_count(0), looped.bit_change_count(0));
  EXPECT_EQ(batched.nonzero_count(0), looped.nonzero_count(0));
  EXPECT_EQ(batched.last_value(0), 0b1011u);
  EXPECT_DOUBLE_EQ(batched.mean_hd(0), looped.mean_hd(0));
  batched.store_repeated(0);  // no-op
  EXPECT_EQ(batched.sample_count(), 52u);
}

TEST(Activity, StoreRepeatedNeedsAPreviousObservation) {
  Activity a({"x"});
  EXPECT_THROW(a.store_repeated(3), sim::SimError);
}

/// Every counter of every channel of `a` and `b` agrees.
void expect_same_counters(const Activity& a, const Activity& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.sample_count(), b.sample_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.bit_change_count(i), b.bit_change_count(i)) << a.name(i);
    EXPECT_EQ(a.nonzero_count(i), b.nonzero_count(i)) << a.name(i);
    EXPECT_EQ(a.last_value(i), b.last_value(i)) << a.name(i);
  }
}

TEST(Activity, FixedCountPathMatchesStoreAll) {
  constexpr std::size_t kN = 9;
  const std::vector<std::string> names = {"c0", "c1", "c2", "c3", "c4",
                                          "c5", "c6", "c7", "c8"};
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Activity fixed(names), dynamic(names);
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 500; ++step) {
      std::array<std::uint64_t, kN> vals{};
      for (std::uint64_t& v : vals) {
        // Mix repeats, narrow fields and full words, as bus views do.
        const std::uint64_t r = rng();
        v = r % 4 == 0 ? 0 : (r % 4 == 1 ? r & 0xFF : r);
      }
      if (step % 50 == 49) {
        fixed.store_repeated(step % 7);
        dynamic.store_repeated(step % 7);
      }
      std::array<unsigned, kN> hd_fixed{}, hd_dynamic{};
      fixed.store_all(vals, hd_fixed);
      dynamic.store_all(vals.data(), hd_dynamic.data());
      ASSERT_EQ(hd_fixed, hd_dynamic) << "seed " << seed << " step " << step;
      if (step == 0) {  // the first sample counts nothing on either path
        EXPECT_EQ(hd_fixed, (std::array<unsigned, kN>{}));
        EXPECT_EQ(fixed.bit_change_count(), 0u);
      }
    }
    expect_same_counters(fixed, dynamic);
  }
}

// -- goldens: a fixed-seed run of the paper testbench -----------------------
// Recorded before the activity storage was unified; the report text and
// the analytic statistics derived from it must not move by one bit.

struct PaperRun {
  Activity activity;
  std::uint64_t cycles = 0;
  double p_handover = 0.0;
};

/// The paper's Sec. 5 system (two traffic masters, three slaves, the
/// default master) at 100 MHz, observed for `n_cycles` bus cycles.
PaperRun run_paper_testbench(std::uint64_t n_cycles) {
  campaign::PaperTestbench tb({.monitor = ahb::BusMonitor::Config{}});
  tb.run_cycles(n_cycles);
  const std::uint64_t cycles = tb.est->fsm().cycles();
  return PaperRun{tb.est->fsm().activity(), cycles,
                  static_cast<double>(tb.monitor->stats().handovers) /
                      static_cast<double>(cycles)};
}

TEST(ActivityGolden, ReportText) {
  const PaperRun run = run_paper_testbench(5000);
  EXPECT_EQ(format_activity_report(run.activity),
            "Signal switching activity (instrumentation summary):\n"
            "  channel        samples     bit changes   mean HD   P(change)\n"
            "  data_slave        4999            2452     0.491      0.065\n"
            "  haddr             4999           12639     2.529      0.500\n"
            "  hbusreq           4999             328     0.066      0.066\n"
            "  hcontrol          4999            4994     0.999      0.966\n"
            "  hgrant            4999             328     0.066      0.033\n"
            "  hmaster           4999             327     0.065      0.033\n"
            "  hrdata            4999           40147     8.033      0.499\n"
            "  hresp             4999               0     0.000      0.000\n"
            "  hwdata            4999           40147     8.033      0.499\n");
}

TEST(ActivityGolden, FromActivityStats) {
  const PaperRun run = run_paper_testbench(5000);
  ASSERT_EQ(run.cycles, 4999u);
  const WorkloadStats s =
      AnalyticPowerModel::from_activity(run.activity, run.cycles, run.p_handover);
  EXPECT_EQ(s.hd_addr, 0x1.439f85186d629p+1);
  EXPECT_EQ(s.hd_ctl, 0x1.ff7ce6db13d18p-1);
  EXPECT_EQ(s.hd_wdata, 0x1.00fe00b7899a1p+3);
  EXPECT_EQ(s.hd_rdata, 0x1.00fe00b7899a1p+3);
  EXPECT_EQ(s.hd_resp, 0x0p+0);
  EXPECT_EQ(s.hd_req, 0x1.0cc0587dc5b9p-4);
  EXPECT_EQ(s.hd_grant, 0x1.0cc0587dc5b9p-4);
  EXPECT_EQ(s.hd_dslave, 0x1.0bee96a918a1dp-3);
  EXPECT_EQ(s.p_addr_change, 0x1.ff7ce6db13d18p-2);
  EXPECT_EQ(s.p_handover, 0x1.0cc0587dc5b9p-5);
}

}  // namespace
}  // namespace ahbp::power
