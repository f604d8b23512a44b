#include "telemetry/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace ahbp::telemetry {

namespace {

[[nodiscard]] std::string errno_text(const char* op,
                                     const std::filesystem::path& p) {
  return std::string(op) + " " + p.string() + ": " + std::strerror(errno);
}

/// Writes all of `data` to `fd`, riding out short writes and EINTR.
bool write_all(int fd, std::string_view data) {
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

/// fsyncs the directory containing `path` so a just-committed rename
/// survives power loss. Best effort: some filesystems reject O_RDONLY
/// directory fsync; the rename is still atomic without it.
void sync_parent_dir(const std::filesystem::path& path) {
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool AtomicFile::write(const std::filesystem::path& path,
                       std::string_view contents, std::string* error) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      if (error) *error = "create_directories " + path.parent_path().string() +
                          ": " + ec.message();
      return false;
    }
  }
  // Same-directory temp file (rename(2) is only atomic within a
  // filesystem). The suffix is unique per call -- pid plus a
  // process-wide counter -- so concurrent writers of one path, in other
  // processes or on other threads of this one, never share a temp file;
  // the last rename wins whole.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_tmp.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error) *error = errno_text("open", tmp);
    return false;
  }
  const bool wrote = write_all(fd, contents);
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote || !synced) {
    if (error) *error = errno_text(wrote ? "fsync" : "write", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = errno_text("rename", path);
    ::unlink(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

void AtomicFile::publish(const std::filesystem::path& path,
                         std::string_view contents) {
  std::string error;
  if (!write(path, contents, &error)) {
    throw std::runtime_error("AtomicFile: " + error);
  }
}

}  // namespace ahbp::telemetry
