#include "campaign/journal.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace ahbp::campaign {

namespace {

// --- little-endian primitive encoding --------------------------------------

void put_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

/// Raw IEEE-754 bits: the round trip is exact, which is what makes a
/// resumed report byte-identical to an uninterrupted one.
void put_f64(std::string& s, double v) {
  put_u64(s, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& s, std::string_view v) {
  put_u32(s, static_cast<std::uint32_t>(v.size()));
  s.append(v);
}

/// Bounds-checked little-endian reader over a payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  bool str(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (remaining() < n) return false;
    v.assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Refuse absurd frame lengths so a corrupt length field cannot make
/// the loader allocate gigabytes.
constexpr std::uint32_t kMaxPayload = 1u << 28;

[[nodiscard]] std::string errno_text(const char* op,
                                     const std::filesystem::path& p) {
  return std::string(op) + " " + p.string() + ": " + std::strerror(errno);
}

bool write_all_fd(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// fsyncs the directory containing `path` so a freshly created journal
/// survives power loss (mirrors telemetry::AtomicFile). Best effort:
/// some filesystems reject O_RDONLY directory fsync.
void sync_parent_dir(const std::filesystem::path& path) {
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// The "config=<16 hex digits>\n" header line for a fingerprint.
std::string config_line(std::uint64_t fingerprint) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string line(kJournalConfigPrefix);
  for (int i = 15; i >= 0; --i) line.push_back(kHex[(fingerprint >> (4 * i)) & 0xf]);
  line.push_back('\n');
  return line;
}

/// Parses the two ASCII header lines. Returns false on a foreign or
/// truncated header; on success `fingerprint` holds the config value.
bool parse_header(std::string_view data, std::uint64_t& fingerprint) {
  if (data.size() < kJournalHeaderBytes) return false;
  if (data.substr(0, kJournalSchema.size()) != kJournalSchema ||
      data[kJournalSchema.size()] != '\n') {
    return false;
  }
  std::string_view cfg = data.substr(kJournalSchema.size() + 1,
                                     kJournalConfigPrefix.size() + 17);
  if (cfg.substr(0, kJournalConfigPrefix.size()) != kJournalConfigPrefix ||
      cfg.back() != '\n') {
    return false;
  }
  cfg = cfg.substr(kJournalConfigPrefix.size(), 16);
  fingerprint = 0;
  for (const char c : cfg) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    fingerprint = (fingerprint << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encode_outcome(const RunOutcome& out) {
  std::string p;
  p.reserve(160 + out.name.size() + out.error.size());
  put_u64(p, out.index);
  put_str(p, out.name);
  put_u8(p, static_cast<std::uint8_t>(out.status));
  put_u32(p, static_cast<std::uint32_t>(out.term_signal));
  put_str(p, out.error);
  put_f64(p, out.wall_seconds);
  put_u32(p, out.attempts);

  const PowerReport& r = out.report;
  put_f64(p, r.total_energy);
  put_f64(p, r.blocks.arb);
  put_f64(p, r.blocks.dec);
  put_f64(p, r.blocks.m2s);
  put_f64(p, r.blocks.s2m);
  put_u64(p, r.cycles);
  put_u64(p, r.transfers);
  put_u32(p, static_cast<std::uint32_t>(r.metrics.size()));
  for (const auto& [key, value] : r.metrics) {
    put_str(p, key);
    put_f64(p, value);
  }
  put_u32(p, static_cast<std::uint32_t>(r.attribution.size()));
  for (const PowerReport::MasterAttribution& m : r.attribution) {
    put_f64(p, m.energy_j);
    put_u64(p, m.txns);
  }
  put_f64(p, r.bus_energy_j);
  return p;
}

bool decode_outcome(std::string_view payload, RunOutcome& out) {
  Reader rd(payload);
  out = RunOutcome{};
  std::uint64_t index = 0;
  std::uint8_t status = 0;
  std::uint32_t signal = 0;
  std::uint32_t attempts = 0;
  if (!rd.u64(index) || !rd.str(out.name) || !rd.u8(status) ||
      !rd.u32(signal) || !rd.str(out.error) || !rd.f64(out.wall_seconds) ||
      !rd.u32(attempts)) {
    return false;
  }
  if (status > static_cast<std::uint8_t>(RunStatus::kCrashed)) return false;
  out.index = static_cast<std::size_t>(index);
  out.status = static_cast<RunStatus>(status);
  out.term_signal = static_cast<int>(signal);
  out.attempts = attempts;

  PowerReport& r = out.report;
  std::uint32_t n_metrics = 0;
  if (!rd.f64(r.total_energy) || !rd.f64(r.blocks.arb) ||
      !rd.f64(r.blocks.dec) || !rd.f64(r.blocks.m2s) ||
      !rd.f64(r.blocks.s2m) || !rd.u64(r.cycles) || !rd.u64(r.transfers) ||
      !rd.u32(n_metrics)) {
    return false;
  }
  for (std::uint32_t i = 0; i < n_metrics; ++i) {
    std::string key;
    double value = 0.0;
    if (!rd.str(key) || !rd.f64(value)) return false;
    r.metrics.emplace(std::move(key), value);
  }
  std::uint32_t n_masters = 0;
  if (!rd.u32(n_masters)) return false;
  if (n_masters > payload.size()) return false;  // corrupt count
  r.attribution.reserve(n_masters);
  for (std::uint32_t i = 0; i < n_masters; ++i) {
    PowerReport::MasterAttribution m;
    if (!rd.f64(m.energy_j) || !rd.u64(m.txns)) return false;
    r.attribution.push_back(m);
  }
  if (!rd.f64(r.bus_energy_j)) return false;
  return rd.remaining() == 0;
}

std::string frame_payload(std::string_view payload) {
  std::string frame;
  frame.reserve(12 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame, fnv1a64(payload));
  frame.append(payload);
  return frame;
}

// --- writer ----------------------------------------------------------------

JournalWriter::JournalWriter(const std::filesystem::path& file,
                             std::uint64_t config_fingerprint)
    : path_(file) {
  if (file.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(file.parent_path(), ec);
  }
  fd_ = ::open(file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: " + errno_text("open", file));
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    // Fresh journal: durable header (schema + config fingerprint)
    // before any frame, then the directory entry itself -- without the
    // parent fsync, power loss could drop the whole file even though
    // every append() "durably" returned.
    std::string header(kJournalSchema);
    header.push_back('\n');
    header += config_line(config_fingerprint);
    if (!write_all_fd(fd_, header) || ::fsync(fd_) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("journal: " + errno_text("write", file));
    }
    sync_parent_dir(file);
    return;
  }
  // Appending to an existing file. Refuse a foreign format outright so
  // --journal pointed at the wrong file cannot silently corrupt it,
  // refuse a journal written by a differently configured campaign, and
  // truncate a torn tail: O_APPEND would otherwise place new frames
  // after the partial one, making every later frame unreadable.
  const JournalLoadResult existing = load_journal(file);
  if (!existing.ok()) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(existing.error);
  }
  if (config_fingerprint != 0 &&
      existing.config_fingerprint != config_fingerprint) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(
        "journal: " + file.string() +
        " was written by a campaign with a different configuration");
  }
  if (static_cast<std::size_t>(size) > existing.valid_bytes) {
    if (::ftruncate(fd_, static_cast<off_t>(existing.valid_bytes)) != 0 ||
        ::fsync(fd_) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("journal: " + errno_text("truncate", file));
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const RunOutcome& out) {
  const std::string frame = frame_payload(encode_outcome(out));
  const std::lock_guard<std::mutex> lock(mutex_);
  // O_APPEND makes the whole-frame write atomic w.r.t. concurrent
  // appends; fsync before returning is the write-ahead guarantee.
  if (!write_all_fd(fd_, frame) || ::fsync(fd_) != 0) {
    throw std::runtime_error("journal: " + errno_text("append", path_));
  }
}

// --- loader ----------------------------------------------------------------

JournalLoadResult load_journal(const std::filesystem::path& file) {
  JournalLoadResult result;
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(file)) return result;  // fresh campaign
    result.error = "journal: cannot read " + file.string();
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  if (!parse_header(data, result.config_fingerprint)) {
    result.error =
        "journal: " + file.string() + " has no " +
        std::string(kJournalSchema) + " header with a config line";
    return result;
  }

  std::size_t pos = kJournalHeaderBytes;
  result.valid_bytes = pos;
  while (pos < data.size()) {
    // Frame prefix: u32 length + u64 checksum. A short prefix is a torn
    // tail (the process died mid-append) and is tolerated.
    if (data.size() - pos < 12) {
      result.torn_tail = true;
      return result;
    }
    Reader prefix(std::string_view(data).substr(pos, 12));
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    prefix.u32(len);
    prefix.u64(checksum);
    if (len > kMaxPayload) {
      result.error = "journal: frame at offset " + std::to_string(pos) +
                     " has absurd length " + std::to_string(len);
      return result;
    }
    if (data.size() - pos - 12 < len) {
      result.torn_tail = true;  // payload cut off mid-write
      return result;
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + 12, len);
    if (fnv1a64(payload) != checksum) {
      // A *complete* frame that fails its checksum is corruption, not a
      // torn tail -- refuse to resume from it.
      result.error = "journal: checksum mismatch in frame at offset " +
                     std::to_string(pos);
      return result;
    }
    RunOutcome out;
    if (!decode_outcome(payload, out)) {
      result.error = "journal: undecodable outcome in frame at offset " +
                     std::to_string(pos);
      return result;
    }
    out.resumed = true;
    result.outcomes.push_back(std::move(out));
    pos += 12 + len;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace ahbp::campaign
