#include "telemetry/events.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "telemetry/exporters.hpp"

namespace ahbp::telemetry {

namespace {

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// write(2) the whole buffer, retrying on EINTR/short writes.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

EventField field_str(std::string key, std::string_view value) {
  EventField f;
  f.key = std::move(key);
  f.kind = EventField::Kind::kString;
  f.str = value;
  return f;
}

EventField field_u64(std::string key, std::uint64_t value) {
  EventField f;
  f.key = std::move(key);
  f.kind = EventField::Kind::kU64;
  f.u64 = value;
  return f;
}

EventField field_f64(std::string key, double value) {
  EventField f;
  f.key = std::move(key);
  f.kind = EventField::Kind::kF64;
  f.f64 = value;
  return f;
}

const EventField* Event::find(std::string_view key) const {
  for (const EventField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::uint64_t Event::u64(std::string_view key, std::uint64_t fallback) const {
  const EventField* f = find(key);
  return f != nullptr && f->kind == EventField::Kind::kU64 ? f->u64 : fallback;
}

double Event::f64(std::string_view key, double fallback) const {
  const EventField* f = find(key);
  return f != nullptr && f->kind == EventField::Kind::kF64 ? f->f64 : fallback;
}

std::string_view Event::str(std::string_view key,
                            std::string_view fallback) const {
  const EventField* f = find(key);
  return f != nullptr && f->kind == EventField::Kind::kString
             ? std::string_view(f->str)
             : fallback;
}

std::string Event::render() const {
  std::string out;
  out.reserve(96 + type.size() + 32 * fields.size());
  append(out, "{\"seq\": ", seq, ", \"t_mono_us\": ", t_mono_us,
         ", \"t_wall_us\": ", t_wall_us, ", \"type\": \"", JsonEscaped{type},
         '"');
  for (const EventField& f : fields) {
    append(out, ", \"", JsonEscaped{f.key}, "\": ");
    switch (f.kind) {
      case EventField::Kind::kString:
        append(out, '"', JsonEscaped{f.str}, '"');
        break;
      case EventField::Kind::kU64: append(out, f.u64); break;
      case EventField::Kind::kF64: append(out, f.f64); break;
    }
  }
  out += '}';
  return out;
}

EventLog::EventLog(Config cfg)
    : cfg_(std::move(cfg)), epoch_(std::chrono::steady_clock::now()) {
  if (!cfg_.enabled || cfg_.file.empty()) return;
  fd_ = ::open(cfg_.file.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    error_ = "EventLog: cannot open " + cfg_.file.string() + ": " +
             std::strerror(errno);
    return;
  }
  const std::string header = "{\"schema\": \"" + std::string(kEventsSchema) +
                             "\", \"config\": \"" +
                             hex16(cfg_.config_fingerprint) + "\"}\n";
  write_line(header);
}

EventLog::~EventLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void EventLog::write_line(const std::string& line) {
  if (fd_ < 0 || !error_.empty()) return;
  if (!write_all(fd_, line) || ::fsync(fd_) != 0) {
    error_ = "EventLog: write to " + cfg_.file.string() + " failed: " +
             std::strerror(errno);
    ::close(fd_);
    fd_ = -1;  // no point appending after a hole in the stream
  }
}

void EventLog::emit(std::string type, std::vector<EventField> fields) {
  if (!cfg_.enabled) return;
  Event ev;
  ev.type = std::move(type);
  ev.fields = std::move(fields);

  std::vector<Listener> listeners;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ev.seq = events_.size() + 1;
    ev.t_mono_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    ev.t_wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    events_.push_back(ev);
    write_line(ev.render() + "\n");
    listeners = listeners_;
  }
  // Outside the lock: a listener may emit() again (worker_stalled).
  for (const Listener& fn : listeners) fn(ev);
}

void EventLog::add_listener(Listener fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(std::move(fn));
}

std::uint64_t EventLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<Event> EventLog::events_since(std::uint64_t after_seq) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  if (after_seq < events_.size()) {
    out.assign(events_.begin() + static_cast<std::ptrdiff_t>(after_seq),
               events_.end());
  }
  return out;
}

std::string EventLog::render_since(std::uint64_t after_seq) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (std::size_t i = after_seq; i < events_.size(); ++i) {
    out += events_[i].render();
    out += '\n';
  }
  return out;
}

std::uint64_t EventLog::now_mono_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::string EventLog::error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

}  // namespace ahbp::telemetry
