// Process-isolated campaign workers: healthy runs bit-identical to
// thread mode, hard crashes contained as kCrashed outcomes with the
// signal recorded, wall budgets enforced by the parent, transient
// crashes salvaged by a respawn, and persistent workers reused across
// specs, replaced when they die and all reaped before run() returns.

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "telemetry/events.hpp"

namespace ahbp::campaign {
namespace {

namespace fs = std::filesystem;

// ASan and TSan intercept SIGSEGV and turn the death into a nonzero
// exit, so crash tests assert the exact signal only for signals no
// sanitizer can catch (SIGKILL) and settle for "contained as kCrashed"
// otherwise.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSignalInterceptingSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSignalInterceptingSanitizer = true;
#else
constexpr bool kSignalInterceptingSanitizer = false;
#endif
#else
constexpr bool kSignalInterceptingSanitizer = false;
#endif

/// Deterministic synthetic spec exercising the full report surface
/// (metrics, attribution) so the pipe serialization is fully covered.
RunSpec synthetic_spec(std::string name, double energy) {
  return RunSpec{std::move(name), [energy] {
                   PowerReport r;
                   r.total_energy = energy;
                   r.blocks.arb = energy / 3.0;
                   r.blocks.dec = energy / 7.0;
                   r.blocks.m2s = energy / 11.0;
                   r.blocks.s2m = energy / 13.0;
                   r.cycles = 1000;
                   r.transfers = 77;
                   r.metrics["data_share"] = energy / 17.0;
                   r.metrics["arb_share"] = energy / 19.0;
                   r.attribution = {{energy / 2.0, 5}, {energy / 4.0, 2}};
                   r.bus_energy_j = energy / 4.0;
                   return r;
                 }};
}

std::vector<RunSpec> healthy_specs() {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(
        synthetic_spec("run" + std::to_string(i), 0.25 + 0.5 * i));
  }
  return specs;
}

std::string render(const std::vector<RunOutcome>& outcomes) {
  std::ostringstream os;
  write_campaign_json(
      os, outcomes,
      CampaignReportMeta{.name = "isolation", .cycles = 1000, .threads = 2});
  return os.str();
}

/// Distinct worker pids named by the run_start events in `log`.
std::set<std::uint64_t> run_start_workers(const telemetry::EventLog& log) {
  std::set<std::uint64_t> pids;
  for (const telemetry::Event& ev : log.events_since(0)) {
    if (ev.type == "run_start") pids.insert(ev.u64("worker"));
  }
  return pids;
}

/// run() reaps every worker it forked: no child is left, not even a
/// zombie.
void expect_no_children() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

RunSpec hung_spec() {
  return RunSpec{"hung", []() -> PowerReport {
                   for (;;) ::usleep(10000);
                 }};
}

TEST(Isolation, HealthyRunsBitIdenticalToThreadMode) {
  const auto specs = healthy_specs();
  const Campaign threaded(
      Campaign::Config{.threads = 2, .isolation = Isolation::kThread});
  const Campaign forked(
      Campaign::Config{.threads = 2, .isolation = Isolation::kProcess});
  const auto a = threaded.run(specs);
  const auto b = forked.run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].status, RunStatus::kOk) << b[i].error;
    EXPECT_EQ(a[i].report.total_energy, b[i].report.total_energy);
    EXPECT_EQ(a[i].report.metrics, b[i].report.metrics);
  }
  EXPECT_EQ(render(a), render(b));
}

TEST(Isolation, SigkillBecomesCrashedOutcomeWithSignal) {
  std::vector<RunSpec> specs = healthy_specs();
  specs.insert(specs.begin() + 2, RunSpec{"killer", []() -> PowerReport {
                                            (void)::raise(SIGKILL);
                                            return {};
                                          }});
  const Campaign pool(
      Campaign::Config{.threads = 2, .isolation = Isolation::kProcess});
  const auto outcomes = pool.run(specs);
  ASSERT_EQ(outcomes.size(), specs.size());

  EXPECT_NE(outcomes[2].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[2].status, RunStatus::kCrashed);
  EXPECT_EQ(outcomes[2].term_signal, SIGKILL);
  EXPECT_NE(outcomes[2].error.find("SIGKILL"), std::string::npos)
      << outcomes[2].error;

  // Every other run survives the neighbor's death, bit-identically.
  const Campaign threaded(Campaign::Config{.threads = 2});
  const auto reference = threaded.run(healthy_specs());
  for (std::size_t i = 0, j = 0; i < outcomes.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(outcomes[i].status, RunStatus::kOk) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].report.total_energy,
              reference[j].report.total_energy);
    ++j;
  }
}

TEST(Isolation, SegfaultIsContained) {
  std::vector<RunSpec> specs;
  specs.push_back(synthetic_spec("before", 1.0));
  specs.push_back(RunSpec{"segv", []() -> PowerReport {
                            volatile int* p = nullptr;
                            *p = 42;  // NOLINT: the point of the test
                            return {};
                          }});
  specs.push_back(synthetic_spec("after", 2.0));
  const Campaign pool(
      Campaign::Config{.threads = 1, .isolation = Isolation::kProcess});
  const auto outcomes = pool.run(specs);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_NE(outcomes[1].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[1].status, RunStatus::kCrashed);
  if (!kSignalInterceptingSanitizer) {
    EXPECT_EQ(outcomes[1].term_signal, SIGSEGV);
  }
  EXPECT_EQ(outcomes[2].status, RunStatus::kOk) << outcomes[2].error;
}

TEST(Isolation, WallBudgetKillsHungWorker) {
  std::vector<RunSpec> specs;
  specs.push_back(synthetic_spec("quick", 1.0));
  specs.push_back(hung_spec());
  Campaign::Config cfg;
  cfg.threads = 2;
  cfg.isolation = Isolation::kProcess;
  cfg.run_budget.max_wall_seconds = 0.2;
  const Campaign pool(cfg);
  const auto outcomes = pool.run(specs);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_NE(outcomes[1].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[1].status, RunStatus::kTimedOut);
}

TEST(Isolation, RetryTransientRespawnsCrashedWorkerOnce) {
  // Cross-process "crash only on the first attempt" flag: the first
  // spawn creates the marker and dies; the respawn sees it and succeeds.
  const fs::path marker =
      fs::temp_directory_path() /
      ("ahbp_isolation_marker_" + std::to_string(::getpid()));
  fs::remove(marker);
  std::vector<RunSpec> specs;
  specs.push_back(RunSpec{"transient", [marker]() -> PowerReport {
                            if (!fs::exists(marker)) {
                              std::ofstream(marker) << "1";
                              (void)::raise(SIGKILL);
                            }
                            PowerReport r;
                            r.total_energy = 4.5;
                            r.cycles = 10;
                            return r;
                          }});
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.isolation = Isolation::kProcess;
  cfg.retry_transient = true;
  const Campaign pool(cfg);
  const auto outcomes = pool.run(specs);
  fs::remove(marker);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(outcomes[0].report.total_energy, 4.5);
}

TEST(Isolation, DeterministicCrashWithRetryStaysCrashed) {
  std::vector<RunSpec> specs;
  specs.push_back(RunSpec{"always", []() -> PowerReport {
                            (void)::raise(SIGKILL);
                            return {};
                          }});
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.isolation = Isolation::kProcess;
  cfg.retry_transient = true;
  const Campaign pool(cfg);
  const auto outcomes = pool.run(specs);
  EXPECT_NE(outcomes[0].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[0].status, RunStatus::kCrashed);
  EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(Isolation, WorkersServeManySpecs) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 12; ++i) {
    specs.push_back(
        synthetic_spec("run" + std::to_string(i), 0.125 + 0.375 * i));
  }
  const Campaign threaded(
      Campaign::Config{.threads = 2, .isolation = Isolation::kThread});
  const Campaign forked(
      Campaign::Config{.threads = 2, .isolation = Isolation::kProcess});
  telemetry::EventLog log;
  Campaign::RunOptions opts;
  opts.events = &log;
  const auto outcomes = forked.run(specs, opts);
  expect_no_children();
  for (const RunOutcome& o : outcomes) {
    EXPECT_EQ(o.status, RunStatus::kOk) << o.error;
  }
  EXPECT_LE(run_start_workers(log).size(), 2u);
  EXPECT_EQ(render(threaded.run(specs)), render(outcomes));
}

TEST(Isolation, IdleWorkerRetiresWhileSiblingIsBusy) {
  // The first worker forked gets the quick spec and is retired while
  // the second, forked after it, is still busy. Had the second kept a
  // copy of the first's socket, the first would never see EOF and
  // run() would hang reaping it.
  std::vector<RunSpec> specs;
  specs.push_back(synthetic_spec("quick", 1.0));
  specs.push_back(RunSpec{"slow", [] {
                            ::usleep(300000);
                            PowerReport r;
                            r.total_energy = 2.0;
                            return r;
                          }});
  const Campaign pool(
      Campaign::Config{.threads = 2, .isolation = Isolation::kProcess});
  const auto outcomes = pool.run(specs);
  expect_no_children();
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_EQ(outcomes[1].status, RunStatus::kOk) << outcomes[1].error;
  EXPECT_EQ(outcomes[1].report.total_energy, 2.0);
}

TEST(Isolation, CrashedWorkerIsReplaced) {
  std::vector<RunSpec> specs;
  specs.push_back(synthetic_spec("before", 1.0));
  specs.push_back(RunSpec{"killer", []() -> PowerReport {
                            (void)::raise(SIGKILL);
                            return {};
                          }});
  specs.push_back(synthetic_spec("after1", 2.0));
  specs.push_back(synthetic_spec("after2", 3.0));
  const Campaign pool(
      Campaign::Config{.threads = 1, .isolation = Isolation::kProcess});
  telemetry::EventLog log;
  Campaign::RunOptions opts;
  opts.events = &log;
  const auto outcomes = pool.run(specs, opts);
  expect_no_children();
  // The first worker served "before" and died on "killer"; one
  // replacement served both later specs.
  EXPECT_EQ(run_start_workers(log).size(), 2u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_EQ(outcomes[1].status, RunStatus::kCrashed);
  EXPECT_EQ(outcomes[1].term_signal, SIGKILL);
  EXPECT_EQ(outcomes[2].status, RunStatus::kOk) << outcomes[2].error;
  EXPECT_EQ(outcomes[3].status, RunStatus::kOk) << outcomes[3].error;
  EXPECT_EQ(outcomes[3].report.total_energy, 3.0);
}

TEST(Isolation, TimedOutWorkerIsReplaced) {
  std::vector<RunSpec> specs;
  specs.push_back(hung_spec());
  specs.push_back(synthetic_spec("quick1", 1.0));
  specs.push_back(synthetic_spec("quick2", 2.0));
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.isolation = Isolation::kProcess;
  cfg.run_budget.max_wall_seconds = 0.2;
  const Campaign pool(cfg);
  const auto outcomes = pool.run(specs);
  expect_no_children();
  EXPECT_EQ(outcomes[0].status, RunStatus::kTimedOut);
  EXPECT_EQ(outcomes[1].status, RunStatus::kOk) << outcomes[1].error;
  EXPECT_EQ(outcomes[2].status, RunStatus::kOk) << outcomes[2].error;
}

TEST(Isolation, CampaignDeadlineKillsBusyWorkerAndReapsIt) {
  std::vector<RunSpec> specs;
  specs.push_back(hung_spec());
  specs.push_back(synthetic_spec("never", 1.0));
  Campaign::Config cfg;
  cfg.threads = 1;
  cfg.isolation = Isolation::kProcess;
  cfg.campaign_wall_seconds = 0.2;
  const Campaign pool(cfg);
  const auto outcomes = pool.run(specs);
  expect_no_children();
  EXPECT_EQ(outcomes[0].status, RunStatus::kCancelled);
  EXPECT_EQ(outcomes[0].attempts, 1u);
  EXPECT_EQ(outcomes[1].status, RunStatus::kCancelled);
  EXPECT_EQ(outcomes[1].attempts, 0u);  // never started
}

}  // namespace
}  // namespace ahbp::campaign
