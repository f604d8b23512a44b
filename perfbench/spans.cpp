#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<unsigned> g_next_tid{1};
std::atomic<std::uint64_t> g_cross_parent{0};

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

struct ThreadState {
  unsigned tid = 0;
  std::uint64_t run = 0;
  std::vector<std::uint64_t> open;  ///< ids of the spans open here
};
thread_local ThreadState t_state;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
void set_run_id(std::uint64_t run) { t_state.run = run; }
void set_cross_thread_parent(std::uint64_t id) {
  g_cross_parent.store(id, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  if (t_state.tid == 0) t_state.tid = g_next_tid.fetch_add(1);
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_state.open.empty()
                    ? g_cross_parent.load(std::memory_order_relaxed)
                    : t_state.open.back();
  rec_.run = t_state.run;
  rec_.tid = t_state.tid;
  t_state.open.push_back(rec_.id);
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.end_ns = now_ns();
  t_state.open.pop_back();
  const std::lock_guard lock(g_mutex);
  g_spans.push_back(rec_);
}

std::vector<SpanRecord> recorded_spans() {
  const std::lock_guard lock(g_mutex);
  return g_spans;
}

void write_chrome_trace(const std::filesystem::path& file,
                        const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + file.string());
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& s : spans) {
    const std::string_view layer = layer_of(s.name);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%llu}}",
                 first ? "" : ",", s.name, static_cast<int>(layer.size()),
                 layer.data(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.run));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + file.string());
  }
}

std::string self_time_table(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    const auto p = by_id.find(s.parent);
    if (p != by_id.end() && p->second->tid == s.tid) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string_view, Row> rows;
  std::int64_t all_self = 0;
  for (const SpanRecord& s : spans) {
    Row& r = rows[layer_of(s.name)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto c = child_ns.find(s.id);
    const std::int64_t self =
        std::max<std::int64_t>(0, dur - (c == child_ns.end() ? 0 : c->second));
    ++r.count;
    r.total_ns += dur;
    r.self_ns += self;
    all_self += self;
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %8s %12s %12s %7s\n", "layer",
                "spans", "total ms", "self ms", "self %");
  out += line;
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof line, "%-10.*s %8llu %12.3f %12.3f %6.1f%%\n",
                  static_cast<int>(layer.size()), layer.data(),
                  static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6,
                  all_self > 0 ? 100.0 * static_cast<double>(r.self_ns) /
                                     static_cast<double>(all_self)
                               : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
