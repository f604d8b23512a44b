// Parameterized property tests for the power FSM across configuration
// shapes: non-negativity, energy conservation, monotonicity in activity,
// and scale behaviour in the configuration parameters.

#include <gtest/gtest.h>

#include <random>

#include "power/power_fsm.hpp"

namespace ahbp::power {
namespace {

using ahb::CycleView;

struct Shape {
  unsigned masters;
  unsigned slaves;
  unsigned data_width;
};

class FsmShapes : public ::testing::TestWithParam<Shape> {
protected:
  PowerFsm::Config cfg() const {
    const auto [m, s, w] = GetParam();
    return PowerFsm::Config{.n_masters = m, .n_slaves = s, .data_width = w};
  }
};

TEST_P(FsmShapes, EnergyIsNonNegativeAndConserved) {
  PowerFsm fsm(cfg());
  std::mt19937_64 rng(GetParam().masters * 1000 + GetParam().slaves);
  for (int i = 0; i < 300; ++i) {
    CycleView v;
    v.haddr = static_cast<std::uint32_t>(rng());
    v.hwdata = static_cast<std::uint32_t>(rng());
    v.hrdata = static_cast<std::uint32_t>(rng());
    v.data_active = (rng() & 1u) != 0;
    v.data_write = (rng() & 1u) != 0;
    v.data_slave = static_cast<std::uint8_t>(rng() % GetParam().slaves);
    v.hmaster = static_cast<std::uint8_t>(rng() % GetParam().masters);
    v.req_vector = static_cast<std::uint32_t>(rng()) &
                   ((1u << GetParam().masters) - 1);
    v.grant_vector = 1u << v.hmaster;
    const auto r = fsm.step(v);
    EXPECT_GE(r.blocks.arb, 0.0);
    EXPECT_GE(r.blocks.dec, 0.0);
    EXPECT_GE(r.blocks.m2s, 0.0);
    EXPECT_GE(r.blocks.s2m, 0.0);
  }
  // Conservation: instruction energies == block totals == total.
  double instr_sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [name, st] : fsm.instructions()) {
    instr_sum += st.energy;
    count += st.count;
  }
  EXPECT_NEAR(instr_sum, fsm.total_energy(), fsm.total_energy() * 1e-9);
  EXPECT_EQ(count, fsm.cycles());
  double master_sum = 0.0;
  for (double e : fsm.per_master_energy()) master_sum += e;
  EXPECT_NEAR(master_sum, fsm.total_energy(), fsm.total_energy() * 1e-9);
}

TEST_P(FsmShapes, MoreActivityNeverCostsLess) {
  // Two identical cycle streams except one flips more payload bits.
  auto run = [this](std::uint32_t data_mask) {
    PowerFsm fsm(cfg());
    for (int i = 0; i < 100; ++i) {
      CycleView v;
      v.data_active = true;
      v.data_write = true;
      v.haddr = 0x100;
      v.hwdata = (i % 2 != 0) ? data_mask : 0u;
      v.grant_vector = 1;
      fsm.step(v);
    }
    return fsm.total_energy();
  };
  EXPECT_LT(run(0x00000000), run(0x000000FF));
  EXPECT_LT(run(0x000000FF), run(0x00FFFFFF));
  EXPECT_LT(run(0x00FFFFFF), run(0xFFFFFFFF));
}

TEST_P(FsmShapes, IdleCyclesAreCheapestSteadyState) {
  PowerFsm fsm(cfg());
  CycleView idle;
  idle.grant_vector = 1;
  fsm.step(idle);
  const double idle_cost = fsm.step(idle).blocks.total();

  PowerFsm busy(cfg());
  CycleView b;
  b.data_active = true;
  b.data_write = true;
  b.haddr = 0xAAAAAAAA;
  b.hwdata = 0x55555555;
  b.grant_vector = 1;
  busy.step(b);
  b.haddr = ~b.haddr;
  b.hwdata = ~b.hwdata;
  const double busy_cost = busy.step(b).blocks.total();
  EXPECT_LT(idle_cost, busy_cost / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FsmShapes,
    ::testing::Values(Shape{2, 2, 32}, Shape{3, 4, 32}, Shape{4, 8, 32},
                      Shape{8, 16, 32}, Shape{3, 4, 16}, Shape{3, 4, 64},
                      Shape{16, 2, 32}));

TEST(FsmScaling, WiderDataBusCostsMorePerTransfer) {
  auto energy_at = [](unsigned width) {
    PowerFsm fsm(PowerFsm::Config{.n_masters = 3, .n_slaves = 4,
                                  .data_width = width});
    CycleView v;
    v.data_active = true;
    v.data_write = true;
    v.grant_vector = 1;
    fsm.step(v);
    // Select-change cycle: the width-scaled k_sel term dominates.
    CycleView h = v;
    h.hmaster = 1;
    h.grant_vector = 2;
    fsm.step(h);
    return fsm.total_energy();
  };
  EXPECT_LT(energy_at(16), energy_at(32));
  EXPECT_LT(energy_at(32), energy_at(64));
}

TEST(FsmScaling, MoreSlavesCostMorePerAddressFlip) {
  auto energy_at = [](unsigned slaves) {
    PowerFsm fsm(PowerFsm::Config{.n_masters = 3, .n_slaves = slaves});
    CycleView v;
    v.grant_vector = 1;
    fsm.step(v);
    v.haddr = 0xFFFFFFFF;
    return fsm.step(v).blocks.dec;
  };
  EXPECT_LT(energy_at(2), energy_at(8));
  EXPECT_LT(energy_at(8), energy_at(32));
}

}  // namespace
}  // namespace ahbp::power
