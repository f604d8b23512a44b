#pragma once
// Crash-safe file emission: every output file is either the complete
// new content or the previous content -- never a truncated mix.
//
// The classic failure this prevents: a campaign (or the process hosting
// it) is SIGKILLed while an exporter's ofstream has flushed half a JSON
// document, leaving a torn artifact that downstream tooling chokes on.
// AtomicFile takes the complete content, writes it to a same-directory
// temp file, fsyncs, renames over the destination (atomic on POSIX) and
// fsyncs the directory so the rename itself is durable. Adopted by the
// campaign report, the telemetry exporters and the CLI
// (docs/ROBUSTNESS.md).

#include <filesystem>
#include <string>
#include <string_view>

namespace ahbp::telemetry {

/// One atomic file write. A caller renders the whole content, then
/// publishes it in one call:
///
///   AtomicFile::publish(dir / "metrics.json", contents);  // throws
///
/// (the exporters' `write_*_file` functions do exactly this). Nothing is
/// created before the content is complete, and missing parent
/// directories are created.
class AtomicFile {
 public:
  /// Atomically replaces `path` with `contents`. Returns false and
  /// fills `error` (when non-null) instead of throwing.
  static bool write(const std::filesystem::path& path,
                    std::string_view contents, std::string* error = nullptr);

  /// Same, but throws std::runtime_error ("AtomicFile: <error>") on any
  /// I/O failure; the destination is untouched when it throws.
  static void publish(const std::filesystem::path& path,
                      std::string_view contents);
};

}  // namespace ahbp::telemetry
