#pragma once
// Write-ahead journal for campaign runs (schema "ahbpower.journal.v1").
//
// Power sweeps are long-running batch jobs; a mid-campaign `kill -9`
// must not cost the completed runs. The journal makes every finished
// RunOutcome durable the moment it completes: an append-only file
// holding two ASCII header lines (the schema identifier and a
// `config=<16 hex digits>` campaign-configuration fingerprint)
// followed by binary frames, each
// `[u32 payload length][u64 FNV-1a checksum][payload]`, written with
// write(2) + fsync(2) under a mutex so concurrent pool workers append
// whole frames in completion order.
//
// Durability contract:
//  - append() returns only after the frame is fsynced -- a subsequent
//    hard kill cannot lose it. (The file's directory entry is also
//    fsynced at creation, so the journal itself survives power loss.)
//  - Doubles are serialized as raw IEEE-754 bits, so a restored outcome
//    is bit-identical to the original and a resumed campaign report is
//    byte-identical to an uninterrupted one (docs/ROBUSTNESS.md).
//  - load_journal() tolerates a torn tail (the frame being written when
//    the process died) by returning every complete frame before it;
//    a corrupt *complete* frame (checksum mismatch) is an error.
//  - Reopening an existing journal truncates a torn tail before the
//    first new append, so resumed appends never land after a partial
//    frame (which would otherwise corrupt every later frame).
//  - The config fingerprint lets a resume refuse a journal written by
//    a campaign with different parameters instead of silently mixing
//    stale outcomes into the new report.
//
// Resume: pass the loaded outcomes to Campaign::run via
// RunOptions::resume -- journaled runs are restored without executing,
// and only newly executed runs are appended again.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"

namespace ahbp::campaign {

/// The journal's on-disk schema identifier (also its first header line).
inline constexpr std::string_view kJournalSchema = "ahbpower.journal.v1";

/// The second header line: "config=" + 16 lowercase hex digits + "\n".
inline constexpr std::string_view kJournalConfigPrefix = "config=";

/// Total header size in bytes (schema line + config line); frames start
/// at this offset.
inline constexpr std::size_t kJournalHeaderBytes =
    kJournalSchema.size() + 1 + kJournalConfigPrefix.size() + 16 + 1;

/// @name Outcome wire format (shared by the journal and the process-
/// isolation worker sockets)
///@{
/// Serializes one outcome; doubles as raw bits, strings length-prefixed.
[[nodiscard]] std::string encode_outcome(const RunOutcome& out);
/// Inverse of encode_outcome. Returns false on a malformed payload.
[[nodiscard]] bool decode_outcome(std::string_view payload, RunOutcome& out);
/// Wraps a payload in the journal frame: u32 length, u64 FNV-1a
/// checksum, payload bytes (all little-endian).
[[nodiscard]] std::string frame_payload(std::string_view payload);
/// FNV-1a 64-bit checksum of a byte string.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);
///@}

/// Append-only durable writer. Creates the file (and the header) when
/// absent; appends to an existing journal, so an interrupted campaign's
/// writer picks up where the previous process stopped -- after
/// truncating any torn tail left by the previous process dying
/// mid-append. Thread-safe.
class JournalWriter {
 public:
  /// Opens (or creates) the journal. `config_fingerprint` identifies
  /// the campaign configuration (see fnv1a64): a fresh journal records
  /// it in the header, and reopening an existing journal throws when
  /// the recorded fingerprint differs (0 = skip the check). Also throws
  /// std::runtime_error when the file cannot be opened, has a foreign
  /// header, or holds a corrupt complete frame.
  explicit JournalWriter(const std::filesystem::path& file,
                         std::uint64_t config_fingerprint = 0);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Durably appends one finished outcome (frame + fsync). Throws
  /// std::runtime_error on I/O failure.
  void append(const RunOutcome& out);

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  std::mutex mutex_;
  int fd_ = -1;
};

/// What load_journal recovered.
struct JournalLoadResult {
  std::vector<RunOutcome> outcomes;  ///< complete frames, file order
  bool torn_tail = false;  ///< file ended mid-frame (tolerated)
  /// Campaign-configuration fingerprint recorded in the header.
  std::uint64_t config_fingerprint = 0;
  /// Byte offset of the end of the last valid frame (header included):
  /// the length a writer must truncate the file to before appending
  /// after a torn tail.
  std::size_t valid_bytes = 0;
  /// Empty when the journal is readable; otherwise why loading stopped
  /// (missing header, corrupt complete frame, undecodable payload).
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Reads a journal back. A missing file yields ok() with no outcomes
/// (a fresh campaign); a torn tail yields the recovered prefix.
[[nodiscard]] JournalLoadResult load_journal(
    const std::filesystem::path& file);

}  // namespace ahbp::campaign
