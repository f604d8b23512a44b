// Unit tests for the instruction-level power FSM: cycle classification,
// instruction naming, and accounting invariants.

#include "power/power_fsm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace ahbp::power {
namespace {

using ahb::CycleView;

PowerFsm::Config small_cfg() {
  return PowerFsm::Config{.n_masters = 3, .n_slaves = 4};
}

CycleView idle_view() {
  CycleView v;
  v.grant_vector = 0b001;  // default master granted
  return v;
}

CycleView write_view(std::uint32_t addr, std::uint32_t data) {
  CycleView v = idle_view();
  v.data_active = true;
  v.data_write = true;
  v.haddr = addr;
  v.hwdata = data;
  v.data_slave = 0;
  return v;
}

CycleView read_view(std::uint32_t addr, std::uint32_t data) {
  CycleView v = idle_view();
  v.data_active = true;
  v.data_write = false;
  v.haddr = addr;
  v.hrdata = data;
  v.data_slave = 0;
  return v;
}

TEST(PowerFsmNames, ModeAndInstructionStrings) {
  EXPECT_STREQ(to_string(BusMode::kIdle), "IDLE");
  EXPECT_STREQ(to_string(BusMode::kIdleHo), "IDLE_HO");
  EXPECT_STREQ(to_string(BusMode::kRead), "READ");
  EXPECT_STREQ(to_string(BusMode::kWrite), "WRITE");
  EXPECT_EQ(instruction_name(BusMode::kWrite, BusMode::kRead), "WRITE_READ");
  EXPECT_EQ(instruction_name(BusMode::kIdleHo, BusMode::kIdleHo),
            "IDLE_HO_IDLE_HO");
  EXPECT_EQ(instruction_name(BusMode::kIdle, BusMode::kWrite), "IDLE_WRITE");
}

TEST(PowerFsm, ClassifiesTransferCycles) {
  PowerFsm fsm(small_cfg());
  EXPECT_EQ(fsm.step(write_view(0x10, 0xAA)).mode, BusMode::kWrite);
  EXPECT_EQ(fsm.step(read_view(0x10, 0xAA)).mode, BusMode::kRead);
  EXPECT_EQ(fsm.step(idle_view()).mode, BusMode::kIdle);
}

TEST(PowerFsm, ClassifiesArbitrationAsIdleHo) {
  PowerFsm fsm(small_cfg());
  fsm.step(idle_view());
  // A non-owner requests: arbitration in progress.
  CycleView v = idle_view();
  v.req_vector = 0b010;
  EXPECT_EQ(fsm.step(v).mode, BusMode::kIdleHo);
  // Ownership moves (handover cycle).
  CycleView v2 = idle_view();
  v2.grant_vector = 0b010;
  v2.hmaster = 1;
  v2.req_vector = 0b010;
  EXPECT_EQ(fsm.step(v2).mode, BusMode::kIdleHo);
}

TEST(PowerFsm, OwnerRequestingIsPlainIdle) {
  PowerFsm fsm(small_cfg());
  CycleView v = idle_view();
  v.grant_vector = 0b010;
  v.hmaster = 1;
  v.req_vector = 0b010;  // the owner itself requests: no arbitration
  fsm.step(v);
  EXPECT_EQ(fsm.step(v).mode, BusMode::kIdle);
}

TEST(PowerFsm, InstructionSequenceIsRecorded) {
  PowerFsm fsm(small_cfg());
  fsm.step(idle_view());                 // IDLE_IDLE (first cycle)
  fsm.step(write_view(0x100, 0x1));      // IDLE_WRITE
  fsm.step(read_view(0x100, 0x1));       // WRITE_READ
  fsm.step(write_view(0x104, 0x2));      // READ_WRITE
  fsm.step(idle_view());                 // WRITE_IDLE
  const auto& tab = fsm.instructions();
  EXPECT_EQ(tab.at("IDLE_WRITE").count, 1u);
  EXPECT_EQ(tab.at("WRITE_READ").count, 1u);
  EXPECT_EQ(tab.at("READ_WRITE").count, 1u);
  EXPECT_EQ(tab.at("WRITE_IDLE").count, 1u);
  EXPECT_EQ(fsm.cycles(), 5u);
}

TEST(PowerFsm, InstructionEnergiesSumToTotal) {
  PowerFsm fsm(small_cfg());
  std::mt19937 rng(7);
  for (int i = 0; i < 200; ++i) {
    switch (rng() % 4) {
      case 0: fsm.step(idle_view()); break;
      case 1: fsm.step(write_view(rng(), rng())); break;
      case 2: fsm.step(read_view(rng(), rng())); break;
      default: {
        CycleView v = idle_view();
        v.req_vector = 0b110;
        fsm.step(v);
        break;
      }
    }
  }
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [name, st] : fsm.instructions()) {
    sum += st.energy;
    count += st.count;
  }
  EXPECT_NEAR(sum, fsm.total_energy(), fsm.total_energy() * 1e-12);
  EXPECT_EQ(count, fsm.cycles());
}

TEST(PowerFsm, DataCyclesCostMoreThanIdleCycles) {
  PowerFsm fsm(small_cfg());
  fsm.step(idle_view());
  const double e_idle = fsm.step(idle_view()).blocks.total();
  const double e_write = fsm.step(write_view(0xDEADBEEF, 0x12345678)).blocks.total();
  EXPECT_GT(e_write, e_idle * 5);
}

TEST(PowerFsm, PerInstructionAverageInPaperBand) {
  // Alternating WRITE-READ with random words: the average instruction
  // energy should land in the paper's order of magnitude (pJ, roughly
  // 5..50 pJ with our synthetic technology).
  PowerFsm fsm(small_cfg());
  std::mt19937 rng(42);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t a = 0x400 + 4 * (rng() % 256);
    const std::uint32_t d = rng();
    fsm.step(write_view(a, d));
    fsm.step(read_view(a, d ^ rng()));
  }
  // instructions() returns by value; keep the map alive before indexing.
  const auto tab = fsm.instructions();
  const auto& wr = tab.at("WRITE_READ");
  const auto& rw = tab.at("READ_WRITE");
  EXPECT_GT(wr.average(), 5e-12);
  EXPECT_LT(wr.average(), 50e-12);
  EXPECT_GT(rw.average(), 5e-12);
  EXPECT_LT(rw.average(), 50e-12);
}

TEST(PowerFsm, HandoverChargesArbiter) {
  PowerFsm fsm(small_cfg());
  CycleView a = idle_view();
  fsm.step(a);
  const double arb_before = fsm.block_totals().arb;
  CycleView b = idle_view();
  b.hmaster = 1;
  b.grant_vector = 0b010;
  fsm.step(b);
  const double arb_delta = fsm.block_totals().arb - arb_before;
  // Baseline idle arbiter energy:
  PowerFsm fsm2(small_cfg());
  fsm2.step(a);
  const double before2 = fsm2.block_totals().arb;
  fsm2.step(a);
  const double idle_delta = fsm2.block_totals().arb - before2;
  EXPECT_GT(arb_delta, idle_delta * 2);
}

TEST(PowerFsm, ResetClearsAccumulation) {
  PowerFsm fsm(small_cfg());
  fsm.step(write_view(0x123, 0x456));
  fsm.step(read_view(0x123, 0x456));
  EXPECT_GT(fsm.total_energy(), 0.0);
  fsm.reset();
  EXPECT_DOUBLE_EQ(fsm.total_energy(), 0.0);
  EXPECT_EQ(fsm.cycles(), 0u);
  EXPECT_TRUE(fsm.instructions().empty());
  EXPECT_EQ(fsm.mode(), BusMode::kIdle);
}

TEST(PowerFsm, ActivityStorageIsPopulated) {
  PowerFsm fsm(small_cfg());
  fsm.step(write_view(0x0, 0x0));
  fsm.step(write_view(0xFFFFFFFF, 0xFFFFFFFF));
  const Activity& a = fsm.activity();
  ASSERT_TRUE(a.find("haddr").has_value());
  EXPECT_EQ(a.bit_change_count(*a.find("haddr")), 32u);
  ASSERT_TRUE(a.find("hwdata").has_value());
  EXPECT_EQ(a.bit_change_count(*a.find("hwdata")), 32u);
}

TEST(BlockEnergy, Arithmetic) {
  BlockEnergy a{.arb = 1, .dec = 2, .m2s = 3, .s2m = 4};
  EXPECT_DOUBLE_EQ(a.total(), 10.0);
  BlockEnergy b{.arb = 1, .dec = 1, .m2s = 1, .s2m = 1};
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), 14.0);
  EXPECT_DOUBLE_EQ(a.m2s, 4.0);
}

}  // namespace
}  // namespace ahbp::power
