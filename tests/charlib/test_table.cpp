// Tests for the persistent coefficient table.

#include "charlib/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "power/power_fsm.hpp"
#include "sim/report.hpp"

namespace ahbp::charlib {
namespace {

using sim::SimError;

TEST(Table, SetGetHas) {
  CoefficientTable t;
  EXPECT_FALSE(t.has("m2s", "k_in"));
  EXPECT_DOUBLE_EQ(t.get("m2s", "k_in", 7.5), 7.5);
  t.set("m2s", "k_in", 2.25);
  EXPECT_TRUE(t.has("m2s", "k_in"));
  EXPECT_DOUBLE_EQ(t.get("m2s", "k_in"), 2.25);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Table, RejectsBadNames) {
  CoefficientTable t;
  EXPECT_THROW(t.set("", "k", 1), SimError);
  EXPECT_THROW(t.set("b", "", 1), SimError);
  EXPECT_THROW(t.set("a.b", "k", 1), SimError);
  EXPECT_THROW(t.set("b", "k v", 1), SimError);
  EXPECT_THROW(t.set("b", "k=v", 1), SimError);
}

TEST(Table, SaveLoadRoundTrip) {
  CoefficientTable t;
  t.set("m2s", "k_in", 2.218671234567890123);
  t.set("m2s", "k_sel", 2.18);
  t.set("dec", "e_per_hd", 3.5e-13);
  std::stringstream ss;
  t.save(ss);
  const CoefficientTable back = CoefficientTable::load(ss);
  EXPECT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.get("m2s", "k_in"), t.get("m2s", "k_in"));
  EXPECT_DOUBLE_EQ(back.get("dec", "e_per_hd"), 3.5e-13);
}

TEST(Table, LoadSkipsCommentsAndBlanks) {
  std::istringstream is(
      "# header comment\n"
      "\n"
      "m2s.k_in = 1.5   # trailing comment\n"
      "   \n"
      "dec.e0 = 0\n");
  const CoefficientTable t = CoefficientTable::load(is);
  EXPECT_DOUBLE_EQ(t.get("m2s", "k_in"), 1.5);
  EXPECT_TRUE(t.has("dec", "e0"));
}

TEST(Table, LoadRejectsMalformedLines) {
  {
    std::istringstream is("m2s.k_in 1.5\n");  // missing '='
    EXPECT_THROW((void)CoefficientTable::load(is), SimError);
  }
  {
    std::istringstream is("nokeydot = 1.5\n");
    EXPECT_THROW((void)CoefficientTable::load(is), SimError);
  }
  {
    std::istringstream is("m2s.k_in = \n");
    EXPECT_THROW((void)CoefficientTable::load(is), SimError);
  }
}

TEST(Table, CharacterizationBridgeRoundTrip) {
  const auto mux = characterize_mux(16, 3, 400, 77);
  const auto dec = characterize_decoder(4, 300, 78);
  CoefficientTable t;
  t.store_mux("m2s", mux);
  t.store_decoder("dec", dec);

  std::stringstream ss;
  t.save(ss);
  const CoefficientTable back = CoefficientTable::load(ss);

  const auto k = back.mux_coefficients("m2s");
  EXPECT_DOUBLE_EQ(k.k_in, mux.calibrated.k_in);
  EXPECT_DOUBLE_EQ(k.k_sel, mux.calibrated.k_sel);
  EXPECT_DOUBLE_EQ(k.k_out, mux.calibrated.k_out);
  EXPECT_DOUBLE_EQ(back.get("dec", "e_per_hd"), dec.fit.coefficients[1]);
  EXPECT_GT(back.get("m2s", "fit_r2"), 0.5);

  // Missing block falls back to structural defaults.
  const auto defaults = back.mux_coefficients("nonexistent");
  EXPECT_DOUBLE_EQ(defaults.k_in, power::MuxModel::Coefficients{}.k_in);

  // And the loaded coefficients drop into a PowerFsm config.
  power::PowerFsm::Config cfg{.n_masters = 3, .n_slaves = 4};
  cfg.m2s_coefficients = back.mux_coefficients("m2s");
  power::PowerFsm fsm(cfg);
  ahb::CycleView v;
  v.data_active = true;
  v.haddr = 0xFF;
  fsm.step(v);
  v.haddr = 0x00;
  fsm.step(v);
  EXPECT_GT(fsm.total_energy(), 0.0);
}

}  // namespace
}  // namespace ahbp::charlib
