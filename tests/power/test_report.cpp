// Unit tests for result rendering: instruction table, block breakdown,
// shares, windowed power traces, and unit formatting.

#include "power/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/report.hpp"
#include "telemetry/window.hpp"

namespace ahbp::power {
namespace {

using ahb::CycleView;

TEST(Format, Energy) {
  EXPECT_EQ(format_energy(0.0), "0 J");
  EXPECT_EQ(format_energy(14.7e-12), "14.70 pJ");
  EXPECT_EQ(format_energy(839.6e-6), "839.600 uJ");
  EXPECT_EQ(format_energy(2.5e-9), "2.500 nJ");
  EXPECT_EQ(format_energy(1.5e-3), "1.500 mJ");
  EXPECT_EQ(format_energy(3e-15), "3.00 fJ");
}

TEST(Format, Power) {
  EXPECT_EQ(format_power(0.0), "0 W");
  EXPECT_EQ(format_power(2.5e-3), "2.500 mW");
  EXPECT_EQ(format_power(150e-6), "150.000 uW");
  EXPECT_EQ(format_power(1.25), "1.250 W");
}

PowerFsm make_fsm_with_history() {
  PowerFsm fsm(PowerFsm::Config{.n_masters = 3, .n_slaves = 4});
  CycleView idle;
  idle.grant_vector = 1;
  CycleView wr = idle;
  wr.data_active = true;
  wr.data_write = true;
  wr.haddr = 0xAAAA5555;
  wr.hwdata = 0x12345678;
  CycleView rd = idle;
  rd.data_active = true;
  rd.data_write = false;
  rd.haddr = 0x5555AAAA;
  rd.hrdata = 0x87654321;
  CycleView ho = idle;
  ho.req_vector = 0b010;

  fsm.step(idle);
  for (int i = 0; i < 10; ++i) {
    fsm.step(wr);
    fsm.step(rd);
  }
  fsm.step(ho);
  fsm.step(ho);
  fsm.step(idle);
  return fsm;
}

TEST(Report, InstructionTableSortedByTotal) {
  PowerFsm fsm = make_fsm_with_history();
  const auto rows = instruction_table(fsm);
  ASSERT_GE(rows.size(), 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].total_j, rows[i].total_j);
  }
  double pct = 0.0;
  for (const auto& r : rows) pct += r.percent;
  EXPECT_NEAR(pct, 100.0, 1e-6);
}

TEST(Report, FormattedTableMentionsInstructions) {
  PowerFsm fsm = make_fsm_with_history();
  const std::string s = format_instruction_table(fsm);
  EXPECT_NE(s.find("WRITE_READ"), std::string::npos);
  EXPECT_NE(s.find("READ_WRITE"), std::string::npos);
  EXPECT_NE(s.find("Total simulation energy"), std::string::npos);
}

TEST(Report, SharesPartitionSensibly) {
  PowerFsm fsm = make_fsm_with_history();
  const double data = data_transfer_share(fsm);
  const double arb = arbitration_share(fsm);
  EXPECT_GT(data, 0.5);
  EXPECT_GT(arb, 0.0);
  EXPECT_LE(data + arb, 1.0 + 1e-9);
}

TEST(Report, BlockBreakdownPercentagesSumTo100) {
  BlockEnergy e{.arb = 1e-9, .dec = 2e-9, .m2s = 5e-9, .s2m = 2e-9};
  const std::string s = format_block_breakdown(e);
  EXPECT_NE(s.find("M2S"), std::string::npos);
  EXPECT_NE(s.find("50.00 %"), std::string::npos);  // m2s = 5/10
  EXPECT_NE(s.find("10.00 %"), std::string::npos);  // arb = 1/10
}

/// The estimator's window series shape: the four block tracks, 10-tick
/// windows by default; each tick is one 10 ns bus cycle.
telemetry::WindowSeries block_series(std::uint64_t window_ticks = 10) {
  return telemetry::WindowSeries({.window_ticks = window_ticks,
                                  .tracks = {"arb", "dec", "m2s", "s2m"}});
}
const sim::SimTime kPeriod = sim::SimTime::ns(10);

/// Count of lines in `s`.
long lines(const std::string& s) { return std::count(s.begin(), s.end(), '\n'); }

TEST(Report, TraceCsvHasHeaderAndRows) {
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {1e-12, 1e-12, 2e-12, 1e-12});
  ws.record(15, {1e-12, 1e-12, 2e-12, 1e-12});
  ws.flush();
  std::ostringstream os;
  write_trace_csv(os, ws, kPeriod);
  const std::string s = os.str();
  EXPECT_NE(s.find("time_us,p_total_mw,p_arb_mw,p_dec_mw,p_m2s_mw,p_s2m_mw\n"),
            std::string::npos);
  EXPECT_EQ(lines(s), 3);  // header + 2 windows
  // Window 0 is full (100 ns): 5 pJ -> 0.05 mW total, 0.02 mW M2S.
  EXPECT_NE(s.find("\n0,0.05,0.01,0.01,0.02,0.01\n"), std::string::npos) << s;
  // Window 1 starts at 0.1 us and covers the 6 cycles 10..15.
  EXPECT_NE(s.find("\n0.1,"), std::string::npos) << s;
}

TEST(Report, FormatTraceSelectsBlock) {
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {4e-12, 0, 0, 0});
  ws.record(10, {0, 0, 0, 0});  // closes window 0 at its full 10 ticks
  const std::string total = format_trace(ws, "total", kPeriod);
  const std::string arb = format_trace(ws, "arb", kPeriod);
  const std::string dec = format_trace(ws, "dec", kPeriod);
  EXPECT_NE(total.find("40.000 uW"), std::string::npos);  // 4pJ/100ns
  EXPECT_NE(arb.find("40.000 uW"), std::string::npos);
  EXPECT_NE(dec.find("0 W"), std::string::npos);
  EXPECT_NE(arb.find("time         P_arb\n"), std::string::npos);
}

TEST(Report, FormatTraceRejectsUnknownBlock) {
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {4e-12, 0, 0, 0});
  ws.flush();
  EXPECT_THROW((void)format_trace(ws, "M2S", kPeriod), sim::SimError);
  EXPECT_THROW((void)format_trace(ws, "bogus", kPeriod), sim::SimError);
  EXPECT_THROW((void)window_energy(ws, "Total"), sim::SimError);
  EXPECT_NO_THROW((void)format_trace(ws, "s2m", kPeriod));
}

TEST(Report, FormatTraceHonorsUntil) {
  telemetry::WindowSeries ws = block_series();
  for (std::uint64_t i = 0; i < 10; ++i) ws.record(10 * i + 5, {1e-12, 0, 0, 0});
  ws.flush();
  const std::string all = format_trace(ws, "total", kPeriod);
  const std::string cut = format_trace(ws, "total", kPeriod, sim::SimTime::ns(300));
  EXPECT_EQ(lines(all), 11);  // header + 10 windows
  EXPECT_EQ(lines(cut), 4);   // header + windows at 0, 100 and 200 ns
}

TEST(Trace, WindowsCloseOnBoundaries) {
  // Rendered rows appear as windows close; the flushed final window is
  // divided by the cycles it covers, not the full window.
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {0, 0, 1e-12, 0});
  ws.record(9, {0, 0, 1e-12, 0});
  EXPECT_EQ(lines(format_trace(ws, "m2s", kPeriod)), 1);  // header only
  ws.record(11, {0, 0, 1e-12, 0});
  EXPECT_EQ(format_trace(ws, "m2s", kPeriod), "time         P_m2s\n0 s          20.000 uW\n");
  ws.flush();
  EXPECT_EQ(format_trace(ws, "m2s", kPeriod),
            "time         P_m2s\n0 s          20.000 uW\n100 ns       50.000 uW\n");
}

TEST(Trace, GapsProduceEmptyWindows) {
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {0, 0, 1e-12, 0});
  ws.record(31, {0, 0, 1e-12, 0});
  const std::vector<double> power = window_power(ws, "total", kPeriod);
  ASSERT_EQ(power.size(), 3u);
  EXPECT_DOUBLE_EQ(power[0], 1e-12 / 100e-9);
  EXPECT_DOUBLE_EQ(power[1], 0.0);
  EXPECT_DOUBLE_EQ(power[2], 0.0);
  EXPECT_NE(format_trace(ws, "total", kPeriod).find("200 ns       0 W\n"),
            std::string::npos);
}

TEST(Trace, RejectsZeroWindow) {
  EXPECT_THROW((void)block_series(0), sim::SimError);
  telemetry::WindowSeries ws = block_series();
  ws.record(1, {1e-12, 0, 0, 0});
  ws.flush();
  std::ostringstream os;
  EXPECT_THROW(write_trace_csv(os, ws, sim::SimTime::zero()), sim::SimError);
  EXPECT_THROW((void)window_power(ws, "total", sim::SimTime::zero()), sim::SimError);
}

TEST(Report, InstructionCsv) {
  PowerFsm fsm = make_fsm_with_history();
  std::ostringstream os;
  write_instruction_csv(os, fsm);
  const std::string s = os.str();
  EXPECT_NE(s.find("instruction,count,avg_pj,total_pj,percent"),
            std::string::npos);
  EXPECT_NE(s.find("WRITE_READ,"), std::string::npos);
  // One header + one line per observed instruction.
  EXPECT_EQ(static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n')),
            1 + fsm.instructions().size());
}

TEST(Report, ActivityReport) {
  PowerFsm fsm = make_fsm_with_history();
  const std::string s = format_activity_report(fsm.activity());
  EXPECT_NE(s.find("haddr"), std::string::npos);
  EXPECT_NE(s.find("hwdata"), std::string::npos);
  EXPECT_NE(s.find("mean HD"), std::string::npos);
}

TEST(Report, ActivityReportChangeProbabilityBounds) {
  Activity a({"x"});
  unsigned hd = 0;
  for (const std::uint64_t v : {0, 1, 1}) a.store_all(&v, &hd);
  const std::string s = format_activity_report(a);
  // P(change) = 1 change / 2 transitions = 0.5.
  EXPECT_NE(s.find("0.500"), std::string::npos);
}

}  // namespace
}  // namespace ahbp::power
