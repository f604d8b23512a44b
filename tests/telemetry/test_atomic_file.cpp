// AtomicFile: all-or-nothing publication, no temp-file litter, and
// error reporting instead of torn artifacts.

#include "telemetry/atomic_file.hpp"

#include <gtest/gtest.h>

#include <array>
#include <barrier>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace ahbp::telemetry {
namespace {

namespace fs = std::filesystem;

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ahbp_atomic_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string slurp(const fs::path& p) const {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Number of directory entries besides `expected` -- temp-file litter.
  [[nodiscard]] std::size_t extra_entries(const fs::path& expected) const {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path() != expected) ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(AtomicFileTest, CommitPublishesExactBytes) {
  const fs::path target = dir_ / "out.json";
  AtomicFile::publish(target, "{\"a\": 1}\n");
  EXPECT_EQ(slurp(target), "{\"a\": 1}\n");
  EXPECT_EQ(extra_entries(target), 0u);
}

TEST_F(AtomicFileTest, CommitReplacesPreviousContentWholly) {
  const fs::path target = dir_ / "out.json";
  ASSERT_TRUE(AtomicFile::write(target, "old content, rather long"));
  AtomicFile::publish(target, "new");
  EXPECT_EQ(slurp(target), "new");
}

TEST_F(AtomicFileTest, CreatesMissingParentDirectories) {
  const fs::path target = dir_ / "a" / "b" / "out.csv";
  AtomicFile::publish(target, "x,y\n");
  EXPECT_EQ(slurp(target), "x,y\n");
}

TEST_F(AtomicFileTest, StaticWriteRoundTrips) {
  const fs::path target = dir_ / "blob.bin";
  const std::string payload("\x00\x01\xffraw", 6);
  std::string error;
  ASSERT_TRUE(AtomicFile::write(target, payload, &error)) << error;
  EXPECT_EQ(slurp(target), payload);
}

TEST_F(AtomicFileTest, FailureReportsErrorAndLeavesNoArtifact) {
  // The "directory" component is a regular file: no write can succeed.
  const fs::path blocker = dir_ / "blocker";
  ASSERT_TRUE(AtomicFile::write(blocker, "file, not dir"));
  const fs::path target = blocker / "out.json";
  std::string error;
  EXPECT_FALSE(AtomicFile::write(target, "content", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_THROW(AtomicFile::publish(target, "content"), std::runtime_error);
}

TEST_F(AtomicFileTest, ConcurrentWritersOfOnePathBothSucceed) {
  // Two threads of one process publish the same path at once, round
  // after round. Each stages its own temp file, so both commits succeed
  // and the file always holds one writer's bytes whole.
  const fs::path target = dir_ / "shared.json";
  constexpr int kRounds = 200;
  const std::array<std::string, 2> payloads = {std::string(1 << 20, 'a'),
                                               std::string(1 << 20, 'b')};
  std::barrier start(2);
  std::array<int, 2> failures{};
  std::array<std::string, 2> first_error;
  int torn = 0;  // read and written by writer 0 only
  auto writer = [&](std::size_t w) {
    for (int round = 0; round < kRounds; ++round) {
      start.arrive_and_wait();
      std::string error;
      if (!AtomicFile::write(target, payloads[w], &error)) {
        if (failures[w]++ == 0) first_error[w] = error;
      }
      start.arrive_and_wait();
      if (w == 0) {
        const std::string now = slurp(target);
        if (now != payloads[0] && now != payloads[1]) ++torn;
      }
    }
  };
  std::thread other(writer, 1);
  writer(0);
  other.join();
  EXPECT_EQ(failures[0], 0) << first_error[0];
  EXPECT_EQ(failures[1], 0) << first_error[1];
  EXPECT_EQ(torn, 0);
  EXPECT_EQ(extra_entries(target), 0u);  // no *.tmp.* left behind
}

}  // namespace
}  // namespace ahbp::telemetry
