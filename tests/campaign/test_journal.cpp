// Write-ahead journal: exact outcome round-trips, torn-tail tolerance,
// corruption rejection, resume-skip semantics, and the end-to-end
// guarantee -- a campaign SIGKILLed mid-sweep resumes to a report
// byte-identical to an uninterrupted run.

#include "campaign/journal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"

namespace ahbp::campaign {
namespace {

namespace fs = std::filesystem;

/// A fully populated outcome with awkward doubles: the round trip must
/// be exact to the bit, not merely close.
RunOutcome sample_outcome(std::size_t index) {
  RunOutcome out;
  out.index = index;
  out.name = "cfg/" + std::to_string(index);
  out.status = RunStatus::kOk;
  out.wall_seconds = 0.1 + static_cast<double>(index);
  out.attempts = 1;
  PowerReport& r = out.report;
  r.total_energy = 1.0 / 3.0 + static_cast<double>(index);
  r.blocks.arb = 0.1 * static_cast<double>(index + 1);
  r.blocks.dec = std::nextafter(0.2, 1.0);
  r.blocks.m2s = 1e-300;
  r.blocks.s2m = 12345.6789;
  r.cycles = 100000 + index;
  r.transfers = 4242;
  r.metrics["data_share"] = 0.123456789012345678;
  r.metrics["arb_share"] = 1e-17;
  r.attribution = {{0.5, 7}, {1.0 / 7.0, 3}};
  r.bus_energy_j = 2.0 / 3.0;
  return out;
}

RunOutcome failed_outcome() {
  RunOutcome out;
  out.index = 3;
  out.name = "bad \"quoted\"\nname";
  out.status = RunStatus::kCrashed;
  out.term_signal = SIGSEGV;
  out.error = "worker crashed with signal 11 (SIGSEGV)";
  out.wall_seconds = 0.25;
  out.attempts = 2;
  return out;
}

/// Field-exact equality (doubles compared by bit pattern via ==; the
/// journal stores raw bits so even that is exact).
void expect_outcomes_equal(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.term_signal, b.term_signal);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.report.total_energy, b.report.total_energy);
  EXPECT_EQ(a.report.blocks.arb, b.report.blocks.arb);
  EXPECT_EQ(a.report.blocks.dec, b.report.blocks.dec);
  EXPECT_EQ(a.report.blocks.m2s, b.report.blocks.m2s);
  EXPECT_EQ(a.report.blocks.s2m, b.report.blocks.s2m);
  EXPECT_EQ(a.report.cycles, b.report.cycles);
  EXPECT_EQ(a.report.transfers, b.report.transfers);
  EXPECT_EQ(a.report.metrics, b.report.metrics);
  ASSERT_EQ(a.report.attribution.size(), b.report.attribution.size());
  for (std::size_t i = 0; i < a.report.attribution.size(); ++i) {
    EXPECT_EQ(a.report.attribution[i].energy_j,
              b.report.attribution[i].energy_j);
    EXPECT_EQ(a.report.attribution[i].txns, b.report.attribution[i].txns);
  }
  EXPECT_EQ(a.report.bus_energy_j, b.report.bus_energy_j);
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ahbp_journal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    file_ = dir_ / "campaign.journal";
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string slurp() const {
    std::ifstream in(file_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void dump(const std::string& bytes) const {
    std::ofstream out(file_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  fs::path file_;
};

TEST_F(JournalTest, EncodeDecodeRoundTripsExactly) {
  for (const RunOutcome& original : {sample_outcome(0), failed_outcome()}) {
    RunOutcome decoded;
    ASSERT_TRUE(decode_outcome(encode_outcome(original), decoded));
    expect_outcomes_equal(original, decoded);
  }
}

TEST_F(JournalTest, DecodeRejectsMalformedPayloads) {
  const std::string good = encode_outcome(sample_outcome(1));
  RunOutcome out;
  EXPECT_FALSE(decode_outcome("", out));
  EXPECT_FALSE(decode_outcome(good.substr(0, good.size() / 2), out));
  EXPECT_FALSE(decode_outcome(good + "x", out));  // trailing bytes
}

TEST_F(JournalTest, WriterCreatesHeaderAndLoaderRoundTrips) {
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(0));
    writer.append(failed_outcome());
  }
  const std::string bytes = slurp();
  ASSERT_GE(bytes.size(), kJournalHeaderBytes);
  EXPECT_EQ(bytes.substr(0, kJournalHeaderBytes),
            std::string(kJournalSchema) + "\nconfig=0000000000000000\n");

  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.torn_tail);
  EXPECT_EQ(loaded.valid_bytes, bytes.size());
  ASSERT_EQ(loaded.outcomes.size(), 2u);
  expect_outcomes_equal(sample_outcome(0), loaded.outcomes[0]);
  expect_outcomes_equal(failed_outcome(), loaded.outcomes[1]);
  for (const RunOutcome& o : loaded.outcomes) EXPECT_TRUE(o.resumed);
}

TEST_F(JournalTest, MissingFileLoadsEmpty) {
  const JournalLoadResult loaded = load_journal(file_);
  EXPECT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.outcomes.empty());
}

TEST_F(JournalTest, WriterAppendsAcrossReopens) {
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(0));
  }
  {
    JournalWriter writer(file_);  // the post-crash reopen
    writer.append(sample_outcome(1));
  }
  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.outcomes.size(), 2u);
}

TEST_F(JournalTest, WriterRefusesForeignFile) {
  dump("not a journal at all\n");
  EXPECT_THROW(JournalWriter{file_}, std::runtime_error);
}

TEST_F(JournalTest, TornTailIsTolerated) {
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(0));
    writer.append(sample_outcome(1));
  }
  const std::string bytes = slurp();
  // Cut the file mid-way through the second frame: the crash shape.
  const std::string header_and_one =
      bytes.substr(0, kJournalHeaderBytes + 12 +
                          encode_outcome(sample_outcome(0)).size());
  dump(header_and_one + bytes.substr(header_and_one.size(), 7));
  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(loaded.torn_tail);
  EXPECT_EQ(loaded.valid_bytes, header_and_one.size());
  ASSERT_EQ(loaded.outcomes.size(), 1u);
  expect_outcomes_equal(sample_outcome(0), loaded.outcomes[0]);
}

TEST_F(JournalTest, ReopenTruncatesTornTailBeforeAppending) {
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(0));
    writer.append(sample_outcome(1));
  }
  const std::string bytes = slurp();
  const std::size_t one_frame_size =
      kJournalHeaderBytes + 12 + encode_outcome(sample_outcome(0)).size();
  // Leave a 7-byte partial second frame: the kill-mid-append shape.
  dump(bytes.substr(0, one_frame_size + 7));

  // The post-crash reopen must truncate the tail; appending after it
  // would otherwise let the torn frame's length field span the new
  // bytes and poison every frame journaled from here on.
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(2));
    writer.append(failed_outcome());
  }
  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.torn_tail);
  ASSERT_EQ(loaded.outcomes.size(), 3u);
  expect_outcomes_equal(sample_outcome(0), loaded.outcomes[0]);
  expect_outcomes_equal(sample_outcome(2), loaded.outcomes[1]);
  expect_outcomes_equal(failed_outcome(), loaded.outcomes[2]);
}

TEST_F(JournalTest, ConfigFingerprintRoundTripsAndGuardsReopen) {
  {
    JournalWriter writer(file_, 0xdeadbeefcafe1234ull);
    writer.append(sample_outcome(0));
  }
  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.config_fingerprint, 0xdeadbeefcafe1234ull);

  // Same fingerprint reopens fine; a different campaign is refused.
  EXPECT_NO_THROW(JournalWriter(file_, 0xdeadbeefcafe1234ull));
  EXPECT_THROW(JournalWriter(file_, 0x1111111111111111ull),
               std::runtime_error);
  // 0 = caller opted out of the check (e.g. ad-hoc tooling).
  EXPECT_NO_THROW(JournalWriter(file_, 0));
}

TEST_F(JournalTest, SchemaLineWithoutConfigLineIsRejected) {
  dump(std::string(kJournalSchema) + "\n");
  EXPECT_FALSE(load_journal(file_).ok());
  EXPECT_THROW(JournalWriter{file_}, std::runtime_error);
}

TEST_F(JournalTest, CorruptCompleteFrameIsRejected) {
  {
    JournalWriter writer(file_);
    writer.append(sample_outcome(0));
  }
  std::string bytes = slurp();
  bytes[bytes.size() - 3] ^= 0x5a;  // flip payload bits, length intact
  dump(bytes);
  const JournalLoadResult loaded = load_journal(file_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("checksum"), std::string::npos) << loaded.error;
  // A writer must refuse to append after corruption, not bury it.
  EXPECT_THROW(JournalWriter{file_}, std::runtime_error);
}

TEST_F(JournalTest, HeaderlessFileIsRejected) {
  dump("garbage");
  EXPECT_FALSE(load_journal(file_).ok());
}

// --- resume semantics through Campaign::run --------------------------------

/// Synthetic spec whose execution count is observable.
RunSpec counting_spec(std::string name, double energy, int* counter) {
  return RunSpec{std::move(name), [energy, counter] {
                   ++*counter;
                   PowerReport r;
                   r.total_energy = energy;
                   r.cycles = 10;
                   return r;
                 }};
}

TEST_F(JournalTest, ResumeSkipsJournaledRunsAndRunsTheRest) {
  int runs0 = 0;
  int runs1 = 0;
  std::vector<RunSpec> specs;
  specs.push_back(counting_spec("a", 1.0, &runs0));
  specs.push_back(counting_spec("b", 2.0, &runs1));

  const Campaign pool(Campaign::Config{.threads = 1});
  {
    JournalWriter writer(file_);
    Campaign::RunOptions opts;
    opts.journal = &writer;
    const auto first = pool.run({specs[0]}, opts);
    ASSERT_EQ(first[0].status, RunStatus::kOk) << first[0].error;
  }
  ASSERT_EQ(runs0, 1);

  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  JournalWriter writer(file_);
  Campaign::RunOptions opts;
  opts.journal = &writer;
  opts.resume = &loaded.outcomes;
  const auto outcomes = pool.run(specs, opts);

  EXPECT_EQ(runs0, 1) << "journaled run must not re-execute";
  EXPECT_EQ(runs1, 1);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  EXPECT_TRUE(outcomes[0].resumed);
  EXPECT_EQ(outcomes[1].status, RunStatus::kOk);
  EXPECT_FALSE(outcomes[1].resumed);
  EXPECT_EQ(outcomes[0].report.total_energy, 1.0);
  EXPECT_EQ(outcomes[1].report.total_energy, 2.0);

  // Only the newly executed run was appended.
  const JournalLoadResult after = load_journal(file_);
  ASSERT_TRUE(after.ok()) << after.error;
  ASSERT_EQ(after.outcomes.size(), 2u);
  EXPECT_EQ(after.outcomes[1].name, "b");
}

/// Scoped RLIMIT_FSIZE clamp: writes past the limit fail with EFBIG
/// (SIGXFSZ ignored for the duration) -- a portable stand-in for a
/// full disk.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &old_);
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{bytes, old_.rlim_max};
    ::setrlimit(RLIMIT_FSIZE, &lim);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    ::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit old_{};
  void (*old_handler_)(int) = nullptr;
};

TEST_F(JournalTest, AppendFailureIsDeferredNotFatalWhenRequested) {
  JournalWriter writer(file_);
  const std::size_t journal_size = slurp().size();

  int runs = 0;
  std::vector<RunSpec> specs;
  specs.push_back(counting_spec("a", 1.0, &runs));
  const Campaign pool(Campaign::Config{.threads = 1});
  Campaign::RunOptions opts;
  opts.journal = &writer;

  const FileSizeLimit no_space(journal_size);  // next append hits "disk full"

  // With journal_error set, the outcomes survive the journal failure.
  std::string journal_error;
  opts.journal_error = &journal_error;
  const auto outcomes = pool.run(specs, opts);
  EXPECT_EQ(runs, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk) << outcomes[0].error;
  EXPECT_NE(journal_error.find("append"), std::string::npos) << journal_error;

  // Without it, the legacy contract: run() completes, then throws.
  opts.journal_error = nullptr;
  EXPECT_THROW((void)pool.run(specs, opts), std::runtime_error);
}

TEST_F(JournalTest, ResumeEntryMustMatchIndexAndName) {
  int runs = 0;
  std::vector<RunSpec> specs;
  specs.push_back(counting_spec("renamed", 1.0, &runs));

  RunOutcome stale = sample_outcome(0);
  stale.name = "original";  // spec list changed since the journal
  const std::vector<RunOutcome> resume{stale};
  const Campaign pool(Campaign::Config{.threads = 1});
  Campaign::RunOptions opts;
  opts.resume = &resume;
  const auto outcomes = pool.run(specs, opts);
  EXPECT_EQ(runs, 1) << "mismatched journal entry must not be trusted";
  EXPECT_FALSE(outcomes[0].resumed);
}

/// Deterministic all-ok report render (the byte-identity oracle).
std::string render(const std::vector<RunOutcome>& outcomes) {
  std::ostringstream os;
  write_campaign_json(
      os, outcomes,
      CampaignReportMeta{.name = "kill-resume", .cycles = 10, .threads = 1});
  return os.str();
}

/// Specs for the kill-resume scenario. When `lethal` is true the third
/// spec SIGKILLs its own process -- the hard-crash shape the journal
/// exists for.
std::vector<RunSpec> kill_specs(bool lethal) {
  std::vector<RunSpec> specs;
  static int sink = 0;  // counters are irrelevant here
  specs.push_back(counting_spec("s0", 1.25, &sink));
  specs.push_back(counting_spec("s1", 2.5, &sink));
  specs.push_back(RunSpec{"s2", [lethal] {
                            if (lethal) (void)::raise(SIGKILL);
                            PowerReport r;
                            r.total_energy = 3.75;
                            r.cycles = 10;
                            return r;
                          }});
  specs.push_back(counting_spec("s3", 5.0, &sink));
  return specs;
}

TEST_F(JournalTest, KillResumeReportIsByteIdentical) {
  // Phase 1: a child process runs the campaign serially with a journal
  // and is SIGKILLed by its third spec -- runs 0 and 1 are already
  // durable, nothing else is.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    JournalWriter writer(file_);
    const Campaign pool(Campaign::Config{.threads = 1});
    Campaign::RunOptions opts;
    opts.journal = &writer;
    (void)pool.run(kill_specs(/*lethal=*/true), opts);
    ::_exit(0);  // unreachable: spec s2 kills the process
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Phase 2: resume. The journal must hold exactly the two completed
  // runs; the resumed campaign re-executes only s2 (now healthy) and s3.
  const JournalLoadResult loaded = load_journal(file_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.torn_tail);
  ASSERT_EQ(loaded.outcomes.size(), 2u);
  EXPECT_EQ(loaded.outcomes[0].name, "s0");
  EXPECT_EQ(loaded.outcomes[1].name, "s1");

  JournalWriter writer(file_);
  const Campaign pool(Campaign::Config{.threads = 1});
  Campaign::RunOptions opts;
  opts.journal = &writer;
  opts.resume = &loaded.outcomes;
  const auto resumed = pool.run(kill_specs(/*lethal=*/false), opts);
  ASSERT_EQ(resumed.size(), 4u);
  for (const auto& o : resumed) EXPECT_EQ(o.status, RunStatus::kOk) << o.error;

  // The oracle: an uninterrupted campaign over the same specs.
  const auto uninterrupted = pool.run(kill_specs(/*lethal=*/false));
  EXPECT_EQ(render(resumed), render(uninterrupted));
}

}  // namespace
}  // namespace ahbp::campaign
