// Golden-file tests for the exporters: identical inputs must produce
// byte-identical output (the determinism contract of
// docs/OBSERVABILITY.md), and the formats themselves are locked down
// against the exact strings below.

#include "telemetry/exporters.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/window.hpp"

namespace ahbp::telemetry {
namespace {

// The reference scenario: two tracks, one full and one partial window,
// tick = 1 us so timestamps come out integral.
WindowSeries golden_series() {
  WindowSeries s(
      WindowSeries::Config{.window_ticks = 4, .tracks = {"arb", "dec"}});
  s.record(0, {1.0, 2.0});
  s.record(1, {0.5, 0.25});
  s.record(5, {0.25, 0.5});
  s.flush();
  return s;
}

ExportMeta golden_meta() {
  return ExportMeta{.tick_ns = 1000.0, .process_name = "test"};
}

TEST(JsonNumber, ShortestRoundTrip) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(-2.25), "-2.25");
  EXPECT_EQ(json_number(42.0), "42");  // exact integers drop the fraction
  EXPECT_EQ(json_number(1e-12), "1e-12");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  // JSON has no inf/nan; the contract maps them to 0.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

// The original json_number: try "%.*g" at every precision from 1 up and
// keep the first that strtod parses back to v. Kept as the reference the
// <charconv> implementation must match byte for byte.
std::string reference_json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == 0.0) return "0";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// 1 (and a reported failure) when json_number(v) differs from the
/// reference, else 0.
int mismatch(double v) {
  const std::string got = json_number(v);
  const std::string want = reference_json_number(v);
  if (got == want) return 0;
  ADD_FAILURE() << "json_number(" << std::hexfloat << v << ") = " << got
                << ", reference " << want;
  return 1;
}

/// Mismatches for v and -v.
int count_mismatches(double v) { return mismatch(v) + mismatch(-v); }

TEST(JsonNumberProperty, PowersOfTwoAndNeighbours) {
  int bad = 0;
  for (int e = -1074; e <= 1023 && bad < 10; ++e) {
    const double p = std::ldexp(1.0, e);
    bad += count_mismatches(p);
    bad += count_mismatches(std::nextafter(p, 0.0));
    bad += count_mismatches(
        std::nextafter(p, std::numeric_limits<double>::infinity()));
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumberProperty, IntegralAndEdgeValues) {
  int bad = 0;
  constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
  for (std::int64_t i = kTwo53 - 4096; i <= kTwo53 + 4096 && bad < 10; ++i) {
    // Above 2^53 odd i round to a neighbour: those values repeat.
    bad += count_mismatches(static_cast<double>(i));
  }
  for (int i = 0; i < 64 && bad < 10; ++i) {
    bad += count_mismatches(static_cast<double>(std::uint64_t{1} << i));
    bad += count_mismatches(std::ldexp(3.0, 50 + i));  // integral, > 2^53
  }
  bad += count_mismatches(1e21);
  bad += count_mismatches(1e15 + 0.5);  // fractional just below 2^53
  bad += count_mismatches(5e-324);      // smallest subnormal
  bad += count_mismatches(std::numeric_limits<double>::max());
  bad += count_mismatches(std::numeric_limits<double>::min());
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumberProperty, ExporterTimestamps) {
  // tick_to_us at the default 10 ns tick: the Chrome trace "ts"/"dur"
  // and window t_start_us columns.
  int bad = 0;
  for (std::uint64_t t = 0; t < 200000 && bad < 10; ++t) {
    bad += count_mismatches(static_cast<double>(t) * 10.0 * 1e-3);
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumberProperty, FastPathLayoutEdges) {
  // The single-pass path lays out the shortest digits the way "%g" does:
  // fixed when -4 <= exp < P (P = digit count), else scientific with at
  // least two exponent digits. Each value sits at one edge of that rule.
  const std::pair<double, const char*> cases[] = {
      {1.5e-5, "1.5e-05"},              // exp -5: scientific
      {9.999e-5, "9.999e-05"},          // exp -5, just below the switch
      {1.5e-4, "0.00015"},              // exp -4: fixed
      {0.00012345678901234, "0.00012345678901234"},
      {12345.5, "12345.5"},             // exp P-2
      {9007199254740994.0, "9007199254740994"},    // exp P-1: fixed
      {12345678901234568.0, "12345678901234568"},  // exp P-1, 17 digits
      {12345678901234560.0, "1.234567890123456e+16"},  // exp P: scientific
      {0.30000000000000004, "0.30000000000000004"},    // 17 digits
      {1.0000000000000002, "1.0000000000000002"},
      {1e21, "1e+21"},
      {1e-21, "1e-21"},
      {1.5e21, "1.5e+21"},
      {std::nextafter(std::numeric_limits<double>::min(), 0.0),
       "2.225073858507201e-308"},  // largest subnormal
      {5e-324, "5e-324"},          // smallest subnormal
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
  };
  int bad = 0;
  for (const auto& [v, want] : cases) {
    EXPECT_EQ(json_number(v), want);
    EXPECT_EQ(json_number(-v), std::string("-") + want);
    bad += count_mismatches(v);
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumber, AppendKeepsEarlierBytes) {
  for (const double v : {0.0, 42.0, -2.25, 1.5e-5, 0.5, 1e21,
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::string out = "prefix, ";
    append_json_number(out, v);
    EXPECT_EQ(out, "prefix, " + json_number(v));
  }
  std::string out = "[";
  append_json_escaped(out, "a\"b\x01");
  EXPECT_EQ(out, "[a\\\"b\\u0001");
}

/// Random finite bit patterns (half of them negative), 2^20 in all,
/// split into shards that ctest runs in parallel.
class JsonNumberRandomBits : public ::testing::TestWithParam<int> {};

TEST_P(JsonNumberRandomBits, MatchesReference) {
  constexpr int kShards = 8;
  constexpr int kPerShard = (1 << 20) / kShards;
  std::mt19937_64 rng(0x6a736f6e6e756dull + static_cast<unsigned>(GetParam()));
  int bad = 0;
  for (int i = 0; i < kPerShard && bad < 10; ++i) {
    double v = std::bit_cast<double>(rng());
    while (!std::isfinite(v)) v = std::bit_cast<double>(rng());
    bad += mismatch(v);
  }
  EXPECT_EQ(bad, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberRandomBits, ::testing::Range(0, 8));

/// 1 (and a reported failure) when a TickUs stamp renders differently
/// from the reference rendering of its product, else 0.
int stamp_mismatch(std::uint64_t tick, double tick_ns) {
  std::string got;
  append(got, TickUs{tick, tick_ns});
  const std::string want =
      reference_json_number(static_cast<double>(tick) * tick_ns * 1e-3);
  if (got == want) return 0;
  ADD_FAILURE() << "TickUs{" << tick << ", " << tick_ns << "} = " << got
                << ", reference " << want;
  return 1;
}

/// The stamp writer against the reference at one tick length: every
/// tick below 2^20, 1 M seeded random ticks below the whole-nanosecond
/// path's 2^40 ns bound (spread over every magnitude, shared out over
/// the tick lengths), and the first ticks above it. Non-integral tick
/// lengths send most ticks down the general path. Each (tick length,
/// shard) pair takes a quarter of the ticks, so ctest runs them in
/// parallel.
class TickUsProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(TickUsProperty, MatchesReference) {
  constexpr int kShards = 4;
  constexpr int kTickLengths = 6;
  const auto [tick_ns, shard] = GetParam();
  int bad = 0;
  for (std::uint64_t t = static_cast<unsigned>(shard);
       t < (1u << 20) && bad < 10; t += kShards) {
    bad += stamp_mismatch(t, tick_ns);
  }
  const auto limit = static_cast<std::uint64_t>(0x1p40 / tick_ns);
  std::mt19937_64 rng(0x7469636b7573ull + static_cast<unsigned>(shard));
  for (int i = 0; i < 1'000'000 / (kTickLengths * kShards) && bad < 10; ++i) {
    bad += stamp_mismatch((rng() % limit) >> (rng() % 40), tick_ns);
  }
  std::uint64_t first_above = limit;
  while (static_cast<double>(first_above) * tick_ns < 0x1p40) ++first_above;
  for (std::uint64_t t = first_above + static_cast<unsigned>(shard);
       t < first_above + 4096 && bad < 10; t += kShards) {
    bad += stamp_mismatch(t, tick_ns);
  }
  EXPECT_EQ(bad, 0);
}

INSTANTIATE_TEST_SUITE_P(
    TickLengths, TickUsProperty,
    ::testing::Combine(::testing::Values(10.0, 1.0, 5.0, 2.5, 0.1, 3.3),
                       ::testing::Range(0, 4)));

/// Appends `part` after a prefix and checks the bytes it wrote stay
/// within append_bound(part).
template <class Part>
void expect_within_bound(const Part& part) {
  std::string out = "prefix";
  append(out, part);
  EXPECT_LE(out.size() - 6, append_bound(part)) << out;
}

TEST(Append, BoundCoversEveryPart) {
  expect_within_bound(std::numeric_limits<std::int64_t>::min());
  expect_within_bound(std::numeric_limits<std::uint64_t>::max());
  expect_within_bound(std::numeric_limits<std::int32_t>::min());
  expect_within_bound(-std::numeric_limits<double>::min());
  expect_within_bound(-std::numeric_limits<double>::denorm_min());
  expect_within_bound(-std::numeric_limits<double>::max());
  expect_within_bound(-1.2345678901234567e-308);
  expect_within_bound(-0.00012345678901234567);
  expect_within_bound(-12345678901234568.0);
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(-1.0, e);
    expect_within_bound(p);
    expect_within_bound(std::nextafter(p, 0.0));
  }
  expect_within_bound(TickUs{std::numeric_limits<std::uint64_t>::max(), 3.3});
  expect_within_bound(TickUs{(std::uint64_t{1} << 40) - 1, 1.0});
  expect_within_bound(TickUs{12345678901, 0.1});
  std::string controls;
  for (int i = 0; i < 64; ++i) controls += static_cast<char>(i % 32);
  expect_within_bound(JsonEscaped{controls});
  expect_within_bound("literal");
  expect_within_bound(std::string(100, 'x'));
  expect_within_bound('c');

  // The Chrome trace slice head, with hostile labels and extreme fields.
  const std::string name = "\"\\" + controls;
  std::string out;
  append_trace_slice(out, name, controls, std::numeric_limits<int>::min(),
                     std::numeric_limits<std::uint64_t>::max(),
                     std::numeric_limits<std::uint64_t>::max(),
                     -1.2345678901234567e-300);
  EXPECT_LE(out.size(), trace_slice_bound(name, controls));
}

TEST(JsonEscape, ControlAndQuoteHandling) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(WindowCsv, MatchesGolden) {
  std::ostringstream os;
  write_window_csv(os, golden_series(), golden_meta());
  EXPECT_EQ(os.str(),
            "window,start_tick,ticks,t_start_us,e_arb_j,e_dec_j,e_total_j,"
            "p_total_w\n"
            "0,0,4,0,1.5,2.25,3.75,937499.9999999999\n"
            "1,4,2,4,0.25,0.5,0.75,374999.99999999994\n");
}

TEST(WindowJson, MatchesGolden) {
  std::ostringstream os;
  write_window_json(os, golden_series(), golden_meta());
  EXPECT_EQ(
      os.str(),
      "{\n"
      "  \"schema\": \"ahbpower.windows.v1\",\n"
      "  \"tick_ns\": 1000,\n"
      "  \"window_ticks\": 4,\n"
      "  \"tracks\": [\"arb\", \"dec\"],\n"
      "  \"total_energy_j\": 4.5,\n"
      "  \"windows\": [\n"
      "    {\"start_tick\": 0, \"ticks\": 4, \"t_start_us\": 0, \"energy_j\": "
      "[1.5, 2.25], \"energy_total_j\": 3.75, \"power_w\": "
      "937499.9999999999},\n"
      "    {\"start_tick\": 4, \"ticks\": 2, \"t_start_us\": 4, \"energy_j\": "
      "[0.25, 0.5], \"energy_total_j\": 0.75, \"power_w\": "
      "374999.99999999994}\n"
      "  ]\n"
      "}\n");
}

TEST(ChromeTrace, MatchesGolden) {
  TraceEventLog log;
  log.add_complete("READ", "bus", 0, 3);
  log.add_complete("IDLE", "bus", 3, 2);
  const WindowSeries series = golden_series();
  std::ostringstream os;
  write_chrome_trace(os, log, &series, golden_meta());
  EXPECT_EQ(
      os.str(),
      "{\"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"test\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"bus instructions\"}},\n"
      "  {\"name\": \"READ\", \"cat\": \"bus\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 1, \"ts\": 0, \"dur\": 3},\n"
      "  {\"name\": \"IDLE\", \"cat\": \"bus\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 1, \"ts\": 3, \"dur\": 2},\n"
      "  {\"name\": \"power_mw\", \"ph\": \"C\", \"pid\": 1, \"ts\": 0, "
      "\"args\": {\"arb\": 374999999.99999994, \"dec\": 562499999.9999999}},\n"
      "  {\"name\": \"power_mw\", \"ph\": \"C\", \"pid\": 1, \"ts\": 4, "
      "\"args\": {\"arb\": 124999999.99999999, \"dec\": "
      "249999999.99999997}}\n"
      "]}\n");
}

TEST(ChromeTrace, NoSeriesOmitsCounters) {
  TraceEventLog log;
  log.add_complete("WRITE", "bus", 0, 1);
  std::ostringstream os;
  write_chrome_trace(os, log, nullptr, golden_meta());
  EXPECT_EQ(os.str().find("power_mw"), std::string::npos);
  EXPECT_NE(os.str().find("\"WRITE\""), std::string::npos);
}

TEST(ChromeTrace, HostileNamesStayValidJson) {
  // Regression: free-form labels (spec/instruction names) flow into the
  // trace verbatim; a name like m"0\ must come out escaped, never as a
  // raw quote that truncates the JSON string.
  TraceEventLog log;
  log.add_complete("m\"0\\", "cat\nbreak", 0, 1);
  ExportMeta meta = golden_meta();
  meta.process_name = "proc\"quote";
  std::ostringstream os;
  write_chrome_trace(os, log, nullptr, meta);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"m\\\"0\\\\\""), std::string::npos);
  EXPECT_NE(out.find("cat\\nbreak"), std::string::npos);
  EXPECT_NE(out.find("proc\\\"quote"), std::string::npos);
  EXPECT_EQ(out.find("m\"0"), std::string::npos);  // raw name must not leak
}

TEST(MetricsJson, MatchesGolden) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist", {1.0, 2.0}).observe(0.5);
  reg.histogram("c.hist", {1.0, 2.0}).observe(5.0);
  std::ostringstream os;
  write_metrics_json(os, reg);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"ahbpower.metrics.v1\",\n"
            "  \"enabled\": true,\n"
            "  \"counters\": {\n"
            "    \"a.count\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"b.gauge\": 1.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"c.hist\": {\"bounds\": [1, 2], \"counts\": [1, 0, 1], "
            "\"count\": 2, \"sum\": 5.5, \"min\": 0.5, \"max\": 5}\n"
            "  }\n"
            "}\n");
}

TEST(MetricsJson, EmptyRegistry) {
  MetricsRegistry reg;
  std::ostringstream os;
  write_metrics_json(os, reg);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"ahbpower.metrics.v1\",\n"
            "  \"enabled\": true,\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(PrometheusText, MatchesGolden) {
  MetricsRegistry reg;
  reg.counter("sim.cycles").add(1234);
  reg.gauge("power.total_w").set(0.000761);
  Histogram& h = reg.histogram("campaign.run_ms", {0.5, 2.5, 10.0});
  h.observe(0.25);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(42.0);
  std::ostringstream os;
  write_prometheus_text(os, reg);
  EXPECT_EQ(os.str(),
            "# TYPE sim_cycles counter\n"
            "sim_cycles 1234\n"
            "# TYPE power_total_w gauge\n"
            "power_total_w 0.000761\n"
            "# TYPE campaign_run_ms histogram\n"
            "campaign_run_ms_bucket{le=\"0.5\"} 1\n"
            "campaign_run_ms_bucket{le=\"2.5\"} 2\n"
            "campaign_run_ms_bucket{le=\"10\"} 3\n"
            "campaign_run_ms_bucket{le=\"+Inf\"} 4\n"
            "campaign_run_ms_sum 46.25\n"
            "campaign_run_ms_count 4\n");
}

TEST(Exporters, ByteIdenticalAcrossRepeatedExport) {
  const WindowSeries series = golden_series();
  const ExportMeta meta = golden_meta();
  std::ostringstream a, b;
  write_window_json(a, series, meta);
  write_window_json(b, series, meta);
  EXPECT_EQ(a.str(), b.str());

  std::ostringstream c, d;
  write_window_csv(c, series, meta);
  write_window_csv(d, series, meta);
  EXPECT_EQ(c.str(), d.str());
}

}  // namespace
}  // namespace ahbp::telemetry
