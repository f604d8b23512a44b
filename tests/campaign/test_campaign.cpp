// Campaign runner: deterministic result ordering, parallel-vs-serial
// bit-identical power reports, and per-run error capture.

#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::campaign {
namespace {

/// A complete small AHB simulation as a spec: one traffic master, two
/// slaves, a power estimator; the whole system lives and dies on the
/// executing thread. Seeded, so identical per rerun.
RunSpec ahb_spec(std::uint64_t seed, unsigned wait_states) {
  return {"ahb/s" + std::to_string(seed), [seed, wait_states] {
            sim::Kernel kernel;
            sim::Module top(nullptr, "top");
            sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5,
                           sim::SimTime::ns(10));
            ahb::AhbBus bus(&top, "ahb", clk, {});
            ahb::DefaultMaster dm(&top, "dm", bus);
            ahb::TrafficMaster m1(
                &top, "m1", bus,
                {.addr_base = 0x0000, .addr_range = 0x2000, .seed = seed});
            ahb::MemorySlave s1(&top, "s1", bus,
                                {.base = 0x0000,
                                 .size = 0x1000,
                                 .wait_states = wait_states});
            ahb::MemorySlave s2(&top, "s2", bus,
                                {.base = 0x1000,
                                 .size = 0x1000,
                                 .wait_states = wait_states});
            bus.finalize();
            power::AhbPowerEstimator est(&top, "power", bus);
            kernel.run(sim::SimTime::us(5));

            PowerReport r;
            r.total_energy = est.total_energy();
            r.blocks = est.block_totals();
            r.cycles = est.fsm().cycles();
            return r;
          }};
}

std::vector<RunSpec> sample_specs() {
  std::vector<RunSpec> specs;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    specs.push_back(ahb_spec(seed, seed % 3));
  }
  return specs;
}

TEST(Campaign, OutcomesOrderedBySpecIndex) {
  const auto specs = sample_specs();
  const Campaign pool(Campaign::Config{.threads = 4});
  const auto outcomes = pool.run(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].name, specs[i].name);
    EXPECT_EQ(outcomes[i].status, RunStatus::kOk) << outcomes[i].error;
    EXPECT_GT(outcomes[i].report.cycles, 0u);
    EXPECT_GT(outcomes[i].report.total_energy, 0.0);
  }
}

TEST(Campaign, ParallelIsBitIdenticalToSerial) {
  const auto specs = sample_specs();
  const Campaign serial(Campaign::Config{.threads = 1});
  const Campaign parallel(Campaign::Config{.threads = 4});
  const auto a = serial.run(specs);
  const auto b = parallel.run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same seeds => same joules, bit for bit.
    EXPECT_EQ(std::memcmp(&a[i].report.total_energy, &b[i].report.total_energy,
                          sizeof(double)),
              0)
        << "run " << i << ": " << a[i].report.total_energy << " vs "
        << b[i].report.total_energy;
    EXPECT_EQ(a[i].report.cycles, b[i].report.cycles);
    EXPECT_EQ(std::memcmp(&a[i].report.blocks.arb, &b[i].report.blocks.arb,
                          sizeof(double)),
              0);
  }
}

TEST(Campaign, ThrowingSpecIsCapturedOthersComplete) {
  std::vector<RunSpec> specs;
  specs.push_back(ahb_spec(7, 0));
  specs.push_back({"boom", []() -> PowerReport {
                     throw std::runtime_error("intentional failure");
                   }});
  specs.push_back(ahb_spec(9, 1));
  const Campaign pool(Campaign::Config{.threads = 2});
  const auto outcomes = pool.run(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  EXPECT_NE(outcomes[1].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[1].status, RunStatus::kFailed);
  // The error names the spec, then carries the exception text.
  EXPECT_EQ(outcomes[1].error.find("spec[1] boom: "), 0u) << outcomes[1].error;
  EXPECT_NE(outcomes[1].error.find("intentional failure"), std::string::npos);
  EXPECT_EQ(outcomes[2].status, RunStatus::kOk);
}

/// A spec that simulates forever: a free-running clock and an unbounded
/// run() call. Only a campaign budget can end it.
RunSpec hung_spec() {
  return {"hung", [] {
            sim::Kernel kernel;
            sim::Module top(nullptr, "top");
            sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5,
                           sim::SimTime::ns(10));
            kernel.run();
            return PowerReport{};
          }};
}

TEST(Campaign, HungAndCrashingSpecsDegradeOthersUnaffected) {
  // The acceptance scenario: one hung spec, one crashing spec, two
  // healthy ones. The campaign completes, classifies both casualties
  // with wall times, and the healthy runs' joules are bit-identical to
  // a fault-free rerun of the same seeds.
  std::vector<RunSpec> specs;
  specs.push_back(ahb_spec(7, 0));
  specs.push_back(hung_spec());
  specs.push_back({"crash", []() -> PowerReport {
                     throw std::runtime_error("intentional crash");
                   }});
  specs.push_back(ahb_spec(9, 1));

  Campaign::Config cfg;
  cfg.threads = 2;
  // Generous enough for the healthy ~1000-advance runs, fatal for the
  // unbounded one.
  cfg.run_budget.max_cycles = 100000;
  const auto outcomes = Campaign(cfg).run(specs);

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_EQ(outcomes[3].status, RunStatus::kOk) << outcomes[3].error;

  EXPECT_NE(outcomes[1].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[1].status, RunStatus::kTimedOut);
  EXPECT_GT(outcomes[1].wall_seconds, 0.0);
  EXPECT_EQ(outcomes[1].error.find("spec[1] hung: "), 0u) << outcomes[1].error;
  EXPECT_NE(outcomes[1].error.find("max-cycle budget"), std::string::npos);

  EXPECT_NE(outcomes[2].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[2].status, RunStatus::kFailed);
  EXPECT_GE(outcomes[2].wall_seconds, 0.0);
  EXPECT_NE(outcomes[2].error.find("intentional crash"), std::string::npos);

  // Fault-free rerun of the surviving seeds, unlimited budget.
  const auto clean = Campaign(Campaign::Config{.threads = 2})
                         .run({ahb_spec(7, 0), ahb_spec(9, 1)});
  ASSERT_EQ(clean[0].status, RunStatus::kOk);
  ASSERT_EQ(clean[1].status, RunStatus::kOk);
  EXPECT_EQ(std::memcmp(&outcomes[0].report.total_energy,
                        &clean[0].report.total_energy, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&outcomes[3].report.total_energy,
                        &clean[1].report.total_energy, sizeof(double)),
            0);
}

TEST(Campaign, RetryTransientSalvagesATransientCrash) {
  std::atomic<int> calls{0};
  std::vector<RunSpec> specs;
  specs.push_back({"flaky", [&]() -> PowerReport {
                     if (calls.fetch_add(1) == 0) {
                       throw std::runtime_error("transient");
                     }
                     return PowerReport{};
                   }});
  specs.push_back({"doomed", []() -> PowerReport {
                     throw std::runtime_error("deterministic");
                   }});
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.retry_transient = true;
  const auto outcomes = Campaign(cfg).run(specs);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_NE(outcomes[1].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  EXPECT_EQ(outcomes[1].status, RunStatus::kFailed);
}

TEST(Campaign, WallDeadlineCancelsUnstartedSpecs) {
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.campaign_wall_seconds = 1e-9;  // passed before the first claim
  const auto outcomes = Campaign(cfg).run(sample_specs());
  for (const RunOutcome& o : outcomes) {
    EXPECT_NE(o.status, RunStatus::kOk);
    EXPECT_EQ(o.status, RunStatus::kCancelled);
    EXPECT_EQ(o.attempts, 0u);
    EXPECT_NE(o.error.find("not started"), std::string::npos) << o.error;
  }
}

TEST(Campaign, EmptySpecListYieldsEmptyOutcomes) {
  const Campaign pool;
  EXPECT_TRUE(pool.run({}).empty());
}

TEST(Campaign, ThreadConfigResolution) {
  EXPECT_GE(Campaign::hardware_threads(), 1u);
  EXPECT_GE(Campaign().threads(), 1u);
  EXPECT_EQ(Campaign(Campaign::Config{.threads = 3}).threads(), 3u);
}

}  // namespace
}  // namespace ahbp::campaign
