#pragma once
// Crash-safe file emission: every output file is either the complete
// new content or the previous content -- never a truncated mix.
//
// The classic failure this prevents: a campaign (or the process hosting
// it) is SIGKILLed while an exporter's ofstream has flushed half a JSON
// document, leaving a torn artifact that downstream tooling chokes on.
// AtomicFile stages the content in memory, writes it to a same-directory
// temp file, fsyncs, renames over the destination (atomic on POSIX) and
// fsyncs the directory so the rename itself is durable. Adopted by the
// campaign report, the telemetry exporters and the CLI
// (docs/ROBUSTNESS.md).

#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>

namespace ahbp::telemetry {

/// One atomic file write. A caller holding the whole content publishes
/// it in one call:
///
///   AtomicFile::publish(dir / "metrics.json", contents);  // throws
///
/// (the exporters' `write_*_file` functions do exactly this). A caller
/// that only has an `std::ostream` writer streams into `stream()`, then
/// calls `commit()` (temp + fsync + rename; throws std::runtime_error):
///
///   AtomicFile f(path);
///   write_report(f.stream());
///   f.commit();
///
/// A destructed-but-uncommitted AtomicFile leaves the destination
/// untouched (nothing is created before commit). Parent directories are
/// created by commit() when missing.
class AtomicFile {
 public:
  explicit AtomicFile(std::filesystem::path path) : path_(std::move(path)) {}

  /// The staging stream; content is held in memory until commit().
  [[nodiscard]] std::ostream& stream() { return buf_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Durably publishes the staged content. Throws std::runtime_error on
  /// any I/O failure; the destination is untouched when it throws.
  void commit();

  /// One-shot form: atomically replace `path` with `contents`. Returns
  /// false and fills `error` (when non-null) instead of throwing.
  static bool write(const std::filesystem::path& path,
                    std::string_view contents, std::string* error = nullptr);

  /// One-shot form that throws what commit() throws: std::runtime_error
  /// ("AtomicFile: <error>") on any I/O failure. The exporters render
  /// into one buffer and publish it through here.
  static void publish(const std::filesystem::path& path,
                      std::string_view contents);

 private:
  std::filesystem::path path_;
  std::ostringstream buf_;
  bool committed_ = false;
};

}  // namespace ahbp::telemetry
