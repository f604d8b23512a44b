// Tests for the live gate-level co-simulation cross-check.

#include "power/cosim.hpp"

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "bits_digest.hpp"
#include "campaign/testbench.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::AhbBus;
using ahb::DefaultMaster;
using ahb::MemorySlave;

/// The paper's testbench on two slaves (seeds 21/22) under the
/// gate-level cross-check instead of the estimator.
struct CosimBench : campaign::PaperTestbench {
  CosimBench()
      : PaperTestbench({.master_seeds = {21, 22}, .slaves = 2, .power = std::nullopt}),
        check(std::make_unique<GateLevelCrossCheck>(&top, "cosim", bus)) {}

  std::unique_ptr<GateLevelCrossCheck> check;
};

TEST(CosimSeries, StatisticsOnKnownData) {
  CosimSeries s;
  s.model = {1.0, 2.0, 3.0, 4.0};
  s.gate = {2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(s.model_total(), 10.0);
  EXPECT_DOUBLE_EQ(s.gate_total(), 20.0);
  EXPECT_NEAR(s.correlation(), 1.0, 1e-12);  // perfectly linear
  EXPECT_DOUBLE_EQ(s.totals_ratio(), 0.5);
}

TEST(CosimSeries, DegenerateCases) {
  CosimSeries s;
  EXPECT_DOUBLE_EQ(s.correlation(), 0.0);
  EXPECT_DOUBLE_EQ(s.totals_ratio(), 0.0);
  s.model = {1.0, 1.0};
  s.gate = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(s.correlation(), 0.0);  // zero model variance
}

TEST(Cosim, RequiresFinalizedBus) {
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  EXPECT_THROW(GateLevelCrossCheck(&top, "c", bus), sim::SimError);
}

TEST(Cosim, SeriesGrowWithCycles) {
  CosimBench b;
  b.run_cycles(500);
  EXPECT_GE(b.check->cycles(), 499u);
  EXPECT_EQ(b.check->mux_series().model.size(), b.check->cycles());
  EXPECT_EQ(b.check->mux_series().gate.size(), b.check->cycles());
  EXPECT_EQ(b.check->arbiter_series().model.size(), b.check->cycles());
}

TEST(Cosim, MuxModelTracksGateLevelOnLiveTraffic) {
  CosimBench b;
  b.run_cycles(3000);
  const CosimSeries& s = b.check->mux_series();
  EXPECT_GT(s.gate_total(), 0.0);
  EXPECT_GT(s.correlation(), 0.6)
      << "macromodel should track gate-level per-cycle energy";
  const double r = s.totals_ratio();
  EXPECT_GT(r, 0.2);
  EXPECT_LT(r, 5.0);
}

TEST(Cosim, ArbiterModelTracksGateLevelOnLiveTraffic) {
  CosimBench b;
  b.run_cycles(3000);
  const CosimSeries& s = b.check->arbiter_series();
  EXPECT_GT(s.gate_total(), 0.0);
  // The simplified FSM's grant timing differs from the live arbiter's
  // hold-while-requesting rule, so per-cycle correlation is moderate;
  // total energy must still land in the right band.
  EXPECT_GT(s.correlation(), 0.25);
  const double r = s.totals_ratio();
  EXPECT_GT(r, 0.3);
  EXPECT_LT(r, 3.0);
}

// -- golden values from the scalar per-cycle reference ------------------------
// The cross-check replays 64 buffered bus cycles as the lanes of one
// gate::BitSim pass. Every constant below was recorded by driving the
// same live stimulus into scalar gate::GateSim structures one bus cycle
// at a time: exact digests of each cycle's IEEE-754 gate and model
// energies, plus the series totals as hexfloat literals.

using testutil::BitsDigest;

std::uint64_t series_digest(const std::vector<double>& v) {
  BitsDigest d;
  for (double e : v) d.add(e);
  return d.value();
}

struct SeriesGolden {
  std::size_t cycles;
  std::uint64_t gate_digest, model_digest;
  double gate_total, model_total;
};

void expect_series(const CosimSeries& s, const SeriesGolden& want,
                   const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(s.gate.size(), want.cycles);
  ASSERT_EQ(s.model.size(), want.cycles);
  EXPECT_EQ(series_digest(s.gate), want.gate_digest);
  EXPECT_EQ(series_digest(s.model), want.model_digest);
  EXPECT_EQ(s.gate_total(), want.gate_total);
  EXPECT_EQ(s.model_total(), want.model_total);
}

TEST(Cosim, BatchedEngineMatchesPerCycleExactly) {
  CosimBench b;
  b.run_cycles(500);  // 499 cycles, not a multiple of 64: final flush is partial
  ASSERT_EQ(b.check->cycles(), 499u);
  expect_series(b.check->mux_series(),
                {499, 0x99d45e64d339dc66ull, 0x8032c10ad845da4bull,
                 0x1.71fb1419069e7p-31, 0x1.f826e09df1c1fp-32},
                "mux");
  expect_series(b.check->arbiter_series(),
                {499, 0xe2a2a9bb4d559e84ull, 0xdf4055bb1c24a568ull,
                 0x1.f9f5bb676e85dp-36, 0x1.23eb19836e372p-35},
                "arbiter");
}

TEST(Cosim, BatchedEngineSurvivesMidRunFlush) {
  // Reading the series mid-run forces a partial flush; recording must
  // continue seamlessly (the carry keeps lane 0's "previous" assignment
  // correct across the flush boundary).
  CosimBench b;
  b.run_cycles(100);
  EXPECT_EQ(b.check->mux_series().gate.size(), b.check->cycles());  // partial flush
  b.run_cycles(200);
  ASSERT_EQ(b.check->cycles(), 299u);
  expect_series(b.check->mux_series(),
                {299, 0xc981ae1a1970d4ecull, 0xe8871eb2eee98559ull,
                 0x1.bb71ff1e1f9c3p-32, 0x1.2d1406854c097p-32},
                "mux");
  expect_series(b.check->arbiter_series(),
                {299, 0x687fcabfac736204ull, 0x8ab45d0c17ffc620ull,
                 0x1.4f435992f49cdp-36, 0x1.75199452b7b57p-36},
                "arbiter");
}

TEST(Cosim, QuietBusMeansQuietGateStructures) {
  // No traffic masters: only the default master idles on the bus, so the
  // gate-level structures see (almost) no switching.
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  DefaultMaster dm(&top, "dm", bus);
  DefaultMaster dm2(&top, "dm2", bus);  // 2 masters so shapes are buildable
  MemorySlave s(&top, "s", bus, {.base = 0, .size = 0x100});
  bus.finalize();
  GateLevelCrossCheck check(&top, "cosim", bus);
  k.run(sim::SimTime::us(5));
  EXPECT_DOUBLE_EQ(check.mux_series().gate_total(), 0.0);
  EXPECT_DOUBLE_EQ(check.mux_series().model_total(), 0.0);
}

}  // namespace
}  // namespace ahbp::power
