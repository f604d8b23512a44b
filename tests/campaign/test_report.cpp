// Tests for the campaign JSON report: structure, failure capture, and
// the byte-identical determinism contract across thread counts.

#include "campaign/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "campaign/campaign.hpp"
#include "sim/sim.hpp"

namespace ahbp::campaign {
namespace {

/// Synthetic spec: no simulation, just a deterministic report.
RunSpec synthetic_spec(std::string name, double energy) {
  return RunSpec{std::move(name), [energy] {
                   PowerReport r;
                   r.total_energy = energy;
                   r.blocks.arb = energy * 0.25;
                   r.blocks.dec = energy * 0.25;
                   r.blocks.m2s = energy * 0.25;
                   r.blocks.s2m = energy * 0.25;
                   r.cycles = 100;
                   r.transfers = 42;
                   r.metrics["zeta"] = 2.0;   // key order must win over
                   r.metrics["alpha"] = 1.0;  // insertion order
                   return r;
                 }};
}

std::string render(const std::vector<RunOutcome>& outcomes, unsigned threads) {
  std::ostringstream os;
  write_campaign_json(
      os, outcomes,
      CampaignReportMeta{.name = "test", .cycles = 100, .threads = threads});
  return os.str();
}

TEST(CampaignReport, GoldenStructure) {
  const Campaign pool(Campaign::Config{.threads = 1});
  const auto outcomes = pool.run({synthetic_spec("a", 1.5)});
  EXPECT_EQ(render(outcomes, 1),
            "{\n"
            "  \"schema\": \"ahbpower.campaign.v4\",\n"
            "  \"name\": \"test\",\n"
            "  \"cycles\": 100,\n"
            "  \"threads\": 1,\n"
            "  \"runs\": [\n"
            "    {\"index\": 0, \"name\": \"a\", \"ok\": true, \"status\": "
            "\"ok\", \"cycles\": "
            "100, \"transfers\": 42, \"total_energy_j\": 1.5, \"blocks_j\": "
            "{\"arb\": 0.375, \"dec\": 0.375, \"m2s\": 0.375, \"s2m\": "
            "0.375}, \"metrics\": {\"alpha\": 1, \"zeta\": 2}}\n"
            "  ],\n"
            "  \"aggregate\": {\"runs\": 1, \"failed\": 0, "
            "\"total_energy_j\": 1.5, \"min_energy_j\": 1.5, "
            "\"max_energy_j\": 1.5}\n"
            "}\n");
}

TEST(CampaignReport, AttributionBlockRendersWhenPopulated) {
  RunSpec spec{"attr", [] {
                 PowerReport r;
                 r.total_energy = 2.0;
                 r.cycles = 10;
                 r.bus_energy_j = 0.5;
                 r.attribution = {{1.0, 7}, {0.5, 3}};
                 return r;
               }};
  const Campaign pool(Campaign::Config{.threads = 1});
  const std::string json = render(pool.run({std::move(spec)}), 1);
  EXPECT_NE(json.find("\"attribution\": {\"bus_energy_j\": 0.5, \"masters\": "
                      "[{\"energy_j\": 1, \"txns\": 7}, "
                      "{\"energy_j\": 0.5, \"txns\": 3}]}"),
            std::string::npos)
      << json;
  // v1 fields survive alongside the v2 addition.
  EXPECT_NE(json.find("\"total_energy_j\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"blocks_j\": "), std::string::npos);
}

TEST(CampaignReport, NoAttributionBlockWithoutData) {
  const Campaign pool(Campaign::Config{.threads = 1});
  const std::string json = render(pool.run({synthetic_spec("a", 1.0)}), 1);
  EXPECT_EQ(json.find("\"attribution\""), std::string::npos);
}

TEST(CampaignReport, CapturesFailures) {
  std::vector<RunSpec> specs;
  specs.push_back(synthetic_spec("good", 2.0));
  specs.push_back(RunSpec{"bad", []() -> PowerReport {
                            throw sim::SimError("deliberate");
                          }});
  const Campaign pool(Campaign::Config{.threads = 1});
  const auto outcomes = pool.run(specs);
  const std::string json = render(outcomes, 1);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("deliberate"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  // Aggregate energy statistics cover successful runs only.
  EXPECT_NE(json.find("\"total_energy_j\": 2, \"min_energy_j\": 2, "
                      "\"max_energy_j\": 2"),
            std::string::npos);
  // v3/v4: failed runs are listed again in the degraded block, with the
  // wall time and attempt count that healthy output must not carry.
  // v4 extends the counts with crash and resume provenance.
  EXPECT_NE(json.find("\"degraded\": {\"count\": 1, \"failed\": 1, "
                      "\"timed_out\": 0, \"cancelled\": 0, \"crashed\": 0, "
                      "\"resumed\": 0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"signal\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 1"), std::string::npos);
}

TEST(CampaignReport, DegradedBlockMatchesGolden) {
  std::vector<RunOutcome> outcomes(3);
  outcomes[0].index = 0;
  outcomes[0].name = "ok";
  outcomes[0].status = RunStatus::kOk;
  outcomes[0].report.total_energy = 1.5;
  outcomes[0].report.cycles = 100;
  outcomes[0].report.transfers = 42;
  outcomes[0].report.blocks.arb = 0.5;
  outcomes[0].report.blocks.dec = 0.25;
  outcomes[0].report.blocks.m2s = 0.5;
  outcomes[0].report.blocks.s2m = 0.25;
  outcomes[0].wall_seconds = 0.5;
  outcomes[0].attempts = 1;
  outcomes[0].resumed = true;
  outcomes[1].index = 1;
  outcomes[1].name = "bad";
  outcomes[1].status = RunStatus::kFailed;
  outcomes[1].error = "spec[1] bad: deliberate \"boom\"";
  outcomes[1].wall_seconds = 0.125;
  outcomes[1].attempts = 2;
  outcomes[2].index = 2;
  outcomes[2].name = "slow";
  outcomes[2].status = RunStatus::kTimedOut;
  outcomes[2].error = "spec[2] slow: budget exceeded";
  outcomes[2].wall_seconds = 2.75;
  outcomes[2].attempts = 1;
  std::ostringstream os;
  write_campaign_json(
      os, outcomes,
      CampaignReportMeta{.name = "deg", .cycles = 100, .threads = 2});
  EXPECT_EQ(
      os.str(),
      "{\n"
      "  \"schema\": \"ahbpower.campaign.v4\",\n"
      "  \"name\": \"deg\",\n"
      "  \"cycles\": 100,\n"
      "  \"threads\": 2,\n"
      "  \"runs\": [\n"
      "    {\"index\": 0, \"name\": \"ok\", \"ok\": true, \"status\": "
      "\"ok\", \"cycles\": 100, \"transfers\": 42, \"total_energy_j\": 1.5, "
      "\"blocks_j\": {\"arb\": 0.5, \"dec\": 0.25, \"m2s\": 0.5, \"s2m\": "
      "0.25}, \"metrics\": {}},\n"
      "    {\"index\": 1, \"name\": \"bad\", \"ok\": false, \"status\": "
      "\"failed\", \"error\": \"spec[1] bad: deliberate \\\"boom\\\"\"},\n"
      "    {\"index\": 2, \"name\": \"slow\", \"ok\": false, \"status\": "
      "\"timed_out\", \"error\": \"spec[2] slow: budget exceeded\"}\n"
      "  ],\n"
      "  \"degraded\": {\"count\": 2, \"failed\": 1, \"timed_out\": 1, "
      "\"cancelled\": 0, \"crashed\": 0, \"resumed\": 1, \"runs\": [\n"
      "    {\"index\": 1, \"name\": \"bad\", \"status\": \"failed\", "
      "\"signal\": 0, \"wall_seconds\": 0.125, \"attempts\": 2, \"error\": "
      "\"spec[1] bad: deliberate \\\"boom\\\"\"},\n"
      "    {\"index\": 2, \"name\": \"slow\", \"status\": \"timed_out\", "
      "\"signal\": 0, \"wall_seconds\": 2.75, \"attempts\": 1, \"error\": "
      "\"spec[2] slow: budget exceeded\"}\n"
      "  ]},\n"
      "  \"aggregate\": {\"runs\": 3, \"failed\": 2, \"total_energy_j\": "
      "1.5, \"min_energy_j\": 1.5, \"max_energy_j\": 1.5}\n"
      "}\n");
}

TEST(CampaignReport, NoDegradedBlockWhenAllRunsSucceed) {
  const Campaign pool(Campaign::Config{.threads = 1});
  const std::string json = render(pool.run({synthetic_spec("a", 1.0)}), 1);
  EXPECT_EQ(json.find("\"degraded\""), std::string::npos);
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
}

TEST(CampaignReport, ByteIdenticalAcrossThreadCounts) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(synthetic_spec("run" + std::to_string(i), 0.5 + i));
  }
  const Campaign serial(Campaign::Config{.threads = 1});
  const Campaign parallel(Campaign::Config{.threads = 4});
  // Same meta.threads in both renders: the report records the campaign
  // configuration, not scheduling accidents; outcomes must not differ.
  const std::string a = render(serial.run(specs), 4);
  const std::string b = render(parallel.run(specs), 4);
  EXPECT_EQ(a, b);
}

TEST(CampaignReport, EmptyCampaign) {
  const std::string json = render({}, 1);
  EXPECT_NE(json.find("\"runs\": [\n  ]"), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 0, \"failed\": 0"), std::string::npos);
}

}  // namespace
}  // namespace ahbp::campaign
