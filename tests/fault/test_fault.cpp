// Fault-plan and injector tests: the schedule is a pure function of
// (seed, slave, transfer index), rates are honoured, and a faulted
// simulation produces bit-identical joules regardless of thread count
// (the determinism smoke for the campaign runner).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "campaign/testbench.hpp"
#include "fault/injector.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::fault {
namespace {

using sim::SimError;

TEST(FaultU01, DeterministicAndUniformRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = fault_u01(42, 1, i, 0x7265737021ULL);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, fault_u01(42, 1, i, 0x7265737021ULL));  // pure
  }
  // Distinct inputs decorrelate on every axis.
  EXPECT_NE(fault_u01(1, 0, 0, 0), fault_u01(2, 0, 0, 0));
  EXPECT_NE(fault_u01(1, 0, 0, 0), fault_u01(1, 1, 0, 0));
  EXPECT_NE(fault_u01(1, 0, 0, 0), fault_u01(1, 0, 1, 0));
  EXPECT_NE(fault_u01(1, 0, 0, 0), fault_u01(1, 0, 0, 1));
}

TEST(FaultPlan, RejectsBadConfigs) {
  EXPECT_THROW(FaultPlan::uniform(1, {.retry_rate = -0.1}, 1), SimError);
  EXPECT_THROW(FaultPlan::uniform(1, {.retry_rate = 1.5}, 1), SimError);
  EXPECT_THROW(
      FaultPlan::uniform(1, {.retry_rate = 0.5, .error_rate = 0.6}, 1),
      SimError);
  EXPECT_THROW(
      FaultPlan::uniform(1, {.split_rate = 0.1, .split_resume_cycles = 0}, 1),
      SimError);
  EXPECT_THROW(
      FaultPlan::uniform(1, {.jitter_rate = 0.1, .max_extra_waits = 0}, 1),
      SimError);
  EXPECT_NO_THROW(FaultPlan::uniform(1, {}, 4));
}

TEST(FaultPlan, ScheduleIsPureAndOrderIndependent) {
  const FaultPlan plan = FaultPlan::uniform(
      7, {.retry_rate = 0.2, .error_rate = 0.1, .split_rate = 0.1}, 2);
  ahb::FaultQuery q;
  q.transfer_index = 123;
  const ahb::FaultDecision first = plan.decide(0, q);
  // Consuming other decisions in between must not perturb it.
  for (std::uint64_t i = 0; i < 50; ++i) {
    ahb::FaultQuery other;
    other.transfer_index = i;
    (void)plan.decide(1, other);
  }
  const ahb::FaultDecision again = plan.decide(0, q);
  EXPECT_EQ(first.resp, again.resp);
  EXPECT_EQ(first.extra_waits, again.extra_waits);
}

TEST(FaultPlan, CertainRatesForceTheVerdict) {
  ahb::FaultQuery q;
  for (std::uint64_t i = 0; i < 20; ++i) {
    q.transfer_index = i;
    EXPECT_EQ(FaultPlan::uniform(3, {.retry_rate = 1.0}, 1).decide(0, q).resp,
              ahb::Resp::kRetry);
    EXPECT_EQ(FaultPlan::uniform(3, {.error_rate = 1.0}, 1).decide(0, q).resp,
              ahb::Resp::kError);
    const ahb::FaultDecision split =
        FaultPlan::uniform(3, {.split_rate = 1.0, .split_resume_cycles = 6}, 1)
            .decide(0, q);
    EXPECT_EQ(split.resp, ahb::Resp::kSplit);
    EXPECT_EQ(split.split_resume_cycles, 6u);
    const ahb::FaultDecision jitter =
        FaultPlan::uniform(3, {.jitter_rate = 1.0, .max_extra_waits = 3}, 1)
            .decide(0, q);
    EXPECT_EQ(jitter.resp, ahb::Resp::kOkay);
    EXPECT_GE(jitter.extra_waits, 1u);
    EXPECT_LE(jitter.extra_waits, 3u);
  }
}

TEST(FaultPlan, EmpiricalRateMatchesConfiguredRate) {
  const FaultPlan plan = FaultPlan::uniform(99, {.retry_rate = 0.3}, 1);
  int retries = 0;
  ahb::FaultQuery q;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    q.transfer_index = static_cast<std::uint64_t>(i);
    if (plan.decide(0, q).resp == ahb::Resp::kRetry) ++retries;
  }
  const double rate = static_cast<double>(retries) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultPlan, BurstInterruptHitsSeqBeatsOnly) {
  const FaultPlan plan =
      FaultPlan::uniform(5, {.burst_interrupt_rate = 1.0}, 1);
  ahb::FaultQuery q;
  q.htrans = ahb::Trans::kSeq;
  EXPECT_EQ(plan.decide(0, q).resp, ahb::Resp::kRetry);
  q.htrans = ahb::Trans::kNonSeq;
  EXPECT_EQ(plan.decide(0, q).resp, ahb::Resp::kOkay);
}

TEST(FaultPlan, SlavesBeyondConfigGetNoFaults) {
  const FaultPlan plan = FaultPlan::uniform(5, {.retry_rate = 1.0}, 2);
  ahb::FaultQuery q;
  EXPECT_EQ(plan.decide(0, q).resp, ahb::Resp::kRetry);
  EXPECT_EQ(plan.decide(7, q).resp, ahb::Resp::kOkay);
}

TEST(FaultInjector, StatsAndMetricsCountVerdicts) {
  telemetry::MetricsRegistry metrics;
  FaultInjector injector(
      FaultPlan::uniform(
          11, {.retry_rate = 0.3, .error_rate = 0.3, .split_rate = 0.3}, 1),
      &metrics);
  ahb::FaultHook hook = injector.hook(0);
  ahb::FaultQuery q;
  for (std::uint64_t i = 0; i < 300; ++i) {
    q.transfer_index = i;
    (void)hook(q);
  }
  const FaultInjector::Stats& s = injector.stats();
  EXPECT_EQ(s.decisions, 300u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.errors, 0u);
  EXPECT_GT(s.splits, 0u);
  EXPECT_EQ(metrics.counter("ahb.fault.decisions").value(), s.decisions);
  EXPECT_EQ(metrics.counter("ahb.fault.retries").value(), s.retries);
  EXPECT_EQ(metrics.counter("ahb.fault.errors").value(), s.errors);
  EXPECT_EQ(metrics.counter("ahb.fault.splits").value(), s.splits);
  EXPECT_EQ(metrics.counter("ahb.fault.jitter_cycles").value(),
            s.jitter_cycles);
}

/// A complete faulted AHB simulation as a campaign spec: the paper
/// testbench with two traffic masters on two fault-injected slaves
/// (master m sweeps slave m), so both injector slots decide. Everything
/// is seeded, so the run is a pure function of (seed, fault_seed).
campaign::RunSpec faulted_spec(std::uint64_t seed, std::uint64_t fault_seed) {
  return {"faulted/s" + std::to_string(seed), [seed, fault_seed] {
            campaign::PaperTestbench tb(
                {.master_seeds = {seed, seed + 1},
                 .slaves = 2,
                 .faults = FaultPlan::uniform(
                     fault_seed,
                     {.retry_rate = 0.05, .error_rate = 0.01, .jitter_rate = 0.1},
                     2)});
            tb.run(sim::SimTime::us(5));
            campaign::PowerReport r = tb.report();
            // The fault schedule itself, exported for the bit-identity
            // check across thread counts.
            const FaultInjector::Stats& s = tb.injector->stats();
            r.metrics["fault_retries"] = static_cast<double>(s.retries);
            r.metrics["fault_errors"] = static_cast<double>(s.errors);
            r.metrics["fault_jitter_cycles"] = static_cast<double>(s.jitter_cycles);
            for (unsigned i = 0; i < 2; ++i) {
              r.metrics["s" + std::to_string(i + 1) + "_retries"] =
                  static_cast<double>(tb.slaves[i]->stats().retries);
            }
            return r;
          }};
}

TEST(FaultInjector, SameSeedBitIdenticalAcrossThreadCounts) {
  std::vector<campaign::RunSpec> specs;
  for (std::uint64_t seed : {3u, 5u, 8u, 13u}) {
    specs.push_back(faulted_spec(seed, 21));
  }
  const auto serial = campaign::Campaign({.threads = 1}).run(specs);
  const auto parallel = campaign::Campaign({.threads = 4}).run(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].status, campaign::RunStatus::kOk) << serial[i].error;
    ASSERT_EQ(parallel[i].status, campaign::RunStatus::kOk) << parallel[i].error;
    // Same fault seed => same schedule and the same joules, bit for bit.
    EXPECT_EQ(std::memcmp(&serial[i].report.total_energy,
                          &parallel[i].report.total_energy, sizeof(double)),
              0)
        << "run " << i;
    EXPECT_EQ(serial[i].report.cycles, parallel[i].report.cycles);
    EXPECT_EQ(serial[i].report.metrics.at("fault_retries"),
              parallel[i].report.metrics.at("fault_retries"));
    EXPECT_EQ(serial[i].report.metrics.at("fault_errors"),
              parallel[i].report.metrics.at("fault_errors"));
    EXPECT_EQ(serial[i].report.metrics.at("fault_jitter_cycles"),
              parallel[i].report.metrics.at("fault_jitter_cycles"));
    // And the schedule actually injected something, on both slaves.
    EXPECT_GT(serial[i].report.metrics.at("s1_retries"), 0.0);
    EXPECT_GT(serial[i].report.metrics.at("s2_retries"), 0.0);
    EXPECT_EQ(serial[i].report.metrics.at("s1_retries") +
                  serial[i].report.metrics.at("s2_retries"),
              serial[i].report.metrics.at("fault_retries"));
  }
}

}  // namespace
}  // namespace ahbp::fault
