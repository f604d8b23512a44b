#pragma once
// Telemetry exporters: CSV and JSON window time-series, a Chrome
// trace_event (about://tracing, ui.perfetto.dev) writer, and the
// metrics-registry JSON snapshot.
//
// Every exporter is deterministic: identical inputs produce
// byte-identical output (numbers are rendered with a shortest
// round-trip formatter, maps iterate in name order), so emitted files
// can be golden-tested and diffed across runs. Formats are specified in
// docs/OBSERVABILITY.md; structural validity of the JSON outputs is
// checked in CI by tools/telemetry_validate against
// tools/telemetry_schema.json.

#include <algorithm>
#include <cassert>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/window.hpp"

namespace ahbp::telemetry {

/// @name Text rendering primitives (shared by every emitter)
/// Emitters build each output in one std::string through append(): it
/// grows the string once by the parts' upper bound (append_bound),
/// writes each part through the char* writers below and trims the
/// string to what was written. json_escape / json_number return the
/// same renderings as a fresh string.
///@{
/// Most characters an integer renders to (INT64_MIN, UINT64_MAX).
inline constexpr std::size_t kIntChars = 20;
/// Most characters write_json_number renders; its longest output is 24
/// ("-2.2250738585072014e-308").
inline constexpr std::size_t kNumberChars = 32;

/// Writes `s` escaped for use inside JSON double quotes at `p` (at most
/// 6 * s.size() characters); returns one past the last one written.
char* write_json_escaped(char* p, std::string_view s);
/// Writes a finite double as the shortest "%.*g" rendering that parses
/// back to the same value ("1.5", "0.1", "1e-12"); integral values
/// within the exact-double range render without a fraction. Non-finite
/// values render as 0 (JSON has no inf/nan). At most kNumberChars.
char* write_json_number(char* p, double v);
/// Writes `tick * tick_ns * 1e-3` (a tick as microseconds) exactly as
/// write_json_number renders it, without the general formatter when the
/// product is a whole number of nanoseconds. At most kNumberChars.
char* write_tick_us(char* p, std::uint64_t tick, double tick_ns);
/// Writes an integer's decimal digits (at most kIntChars).
template <std::integral T>
char* write_int(char* p, T v) {
  return std::to_chars(p, p + kIntChars, v).ptr;
}

/// A string to append as escaped JSON string content (no quotes added).
struct JsonEscaped {
  std::string_view s;
};

/// A tick to append in microseconds, as write_tick_us renders it.
struct TickUs {
  std::uint64_t tick = 0;
  double tick_ns = 0.0;
};

namespace detail {
// String literals take the array overloads: their length is a constant,
// so no strlen runs and the copy compiles to a few moves.
template <std::size_t N>
constexpr std::size_t part_bound(const char (&)[N]) {
  return N - 1;
}
constexpr std::size_t part_bound(std::string_view s) { return s.size(); }
constexpr std::size_t part_bound(char) { return 1; }
constexpr std::size_t part_bound(double) { return kNumberChars; }
constexpr std::size_t part_bound(TickUs) { return kNumberChars; }
constexpr std::size_t part_bound(JsonEscaped e) { return 6 * e.s.size(); }
template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
constexpr std::size_t part_bound(T) {
  return kIntChars;
}

template <std::size_t N>
char* write_part(char* p, const char (&s)[N]) {
  assert(std::char_traits<char>::length(s) == N - 1);  // a literal
  std::memcpy(p, s, N - 1);
  return p + (N - 1);
}
inline char* write_part(char* p, std::string_view s) {
  return std::copy(s.begin(), s.end(), p);
}
inline char* write_part(char* p, char c) {
  *p = c;
  return p + 1;
}
inline char* write_part(char* p, double v) { return write_json_number(p, v); }
inline char* write_part(char* p, TickUs t) {
  return write_tick_us(p, t.tick, t.tick_ns);
}
inline char* write_part(char* p, JsonEscaped e) {
  return write_json_escaped(p, e.s);
}
template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
char* write_part(char* p, T v) {
  return write_int(p, v);
}

template <class Part>
char* write_bounded(char* p, const Part& part) {
  char* const end = write_part(p, part);
  assert(static_cast<std::size_t>(end - p) <= part_bound(part));
  return end;
}
}  // namespace detail

/// The most characters append(out, parts...) can write: text its size,
/// a char 1, an integer kIntChars, a double or TickUs kNumberChars, a
/// JsonEscaped string 6 characters per byte.
template <class... Parts>
constexpr std::size_t append_bound(const Parts&... parts) {
  return (std::size_t{0} + ... + detail::part_bound(parts));
}

/// Appends each part in order: text and chars as they are, integers as
/// decimal digits, doubles as write_json_number renders them, TickUs
/// stamps as write_tick_us does and JsonEscaped strings escaped. The
/// emitters' one formatting path:
///   append(out, "{\"id\": ", r.id, ", \"energy_j\": ", r.energy_j, '}');
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  const std::size_t at = out.size();
  out.resize(at + append_bound(parts...));
  char* p = out.data() + at;
  ((p = detail::write_bounded(p, parts)), ...);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Appends `s` escaped for use inside JSON double quotes.
inline void append_json_escaped(std::string& out, std::string_view s) {
  append(out, JsonEscaped{s});
}
/// Appends write_json_number's rendering of `v`.
inline void append_json_number(std::string& out, double v) { append(out, v); }
/// Escapes a string for use inside JSON double quotes.
[[nodiscard]] std::string json_escape(std::string_view s);
/// write_json_number's rendering as a string.
[[nodiscard]] std::string json_number(double v);
///@}

/// Conversion context shared by the exporters: how long one series tick
/// lasts in real time (the bus clock period for cycle-indexed series).
struct ExportMeta {
  double tick_ns = 10.0;                  ///< duration of one tick [ns]
  std::string process_name = "ahbpower";  ///< Chrome trace process label
  /// Chrome trace thread tracks: (tid, label) pairs announced as
  /// thread_name metadata. Events carry their own tid (default 1).
  std::vector<std::pair<int, std::string>> threads = {{1, "bus instructions"}};
};

/// One completed duration event on the trace timeline (rendered as a
/// Chrome trace_event "X" slice): e.g. a run of consecutive bus cycles
/// in the same power-FSM mode.
///
/// `name` and `category` are views, not copies: they must point at
/// storage that outlives every log holding the event -- in practice
/// string literals or static interned tables (power::to_string(BusMode),
/// telemetry::txn_span_name). This keeps recording an event free of
/// allocation on the simulation hot path.
struct TraceEvent {
  std::string_view name;      ///< slice label, e.g. "READ" (static lifetime)
  std::string_view category;  ///< trace_event "cat", e.g. "bus" (static lifetime)
  std::uint64_t start_tick = 0;
  std::uint64_t dur_ticks = 0;
  int tid = 1;               ///< thread track (see ExportMeta::threads)
  /// Pre-rendered JSON object for the event's "args" field (empty =
  /// omitted). The producer owns its validity.
  std::string args_json;
};

/// Append-only log of duration events. Within one tid, events nest by
/// containment (Chrome trace "X" semantics); emit parents before
/// children that share a start tick. Names and categories follow the
/// static-lifetime contract of TraceEvent.
class TraceEventLog {
public:
  void add_complete(std::string_view name, std::string_view category,
                    std::uint64_t start_tick, std::uint64_t dur_ticks) {
    events_.push_back(TraceEvent{name, category, start_tick, dur_ticks, 1, {}});
  }
  void add_complete(std::string_view name, std::string_view category,
                    std::uint64_t start_tick, std::uint64_t dur_ticks, int tid,
                    std::string args_json) {
    events_.push_back(TraceEvent{name, category, start_tick, dur_ticks, tid,
                                 std::move(args_json)});
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

private:
  std::vector<TraceEvent> events_;
};

/// @name Chrome trace building blocks
/// Shared by the TraceEventLog writer below and the transaction-span
/// writer (txn_trace.hpp), so both lay slices out byte for byte alike.
///@{
/// The most characters append_trace_slice writes for these labels (its
/// fixed text is 73 characters).
constexpr std::size_t trace_slice_bound(std::string_view name,
                                        std::string_view category) {
  return 80 + kIntChars + 2 * kNumberChars +
         6 * (name.size() + category.size());
}
/// Appends one "X" slice from its ",\n  {" separator through its "dur"
/// field; the caller appends an optional `, "args": {...}` and the
/// closing '}'.
void append_trace_slice(std::string& out, std::string_view name,
                        std::string_view category, int tid,
                        std::uint64_t start_tick, std::uint64_t dur_ticks,
                        double tick_ns);
/// A whole Chrome trace document: the process and thread metadata of
/// `meta`, the slices `append_slices(out)` appends (at most
/// `slice_bytes` characters), then one "C" counter event per window of
/// `series` when it is non-null.
[[nodiscard]] std::string chrome_trace_text(
    std::size_t slice_bytes,
    const std::function<void(std::string&)>& append_slices,
    const WindowSeries* series, const ExportMeta& meta);
///@}

/// @name Stream writers
/// Each renders its whole output into one buffer and writes it to `os`
/// in a single call.
///@{
/// Writes a window series as CSV. Track values are treated as energies
/// in joules; columns are
///   window,start_tick,ticks,t_start_us,e_<track>_j...,e_total_j,p_total_w
/// where p_total_w divides the window's total energy by its covered
/// wall time (ticks * tick_ns).
void write_window_csv(std::ostream& os, const WindowSeries& series,
                      const ExportMeta& meta);

/// Writes a window series as a JSON document (schema
/// "ahbpower.windows.v1"): header fields (tick_ns, window_ticks,
/// tracks, total_energy_j) plus one object per window.
void write_window_json(std::ostream& os, const WindowSeries& series,
                       const ExportMeta& meta);

/// Writes a Chrome trace_event JSON file: the log's duration events as
/// "X" slices on one thread track, and (when `series` is non-null) one
/// "C" counter event per window carrying each track's average power in
/// mW -- Perfetto renders those as stacked counter tracks under the
/// process.
void write_chrome_trace(std::ostream& os, const TraceEventLog& log,
                        const WindowSeries* series, const ExportMeta& meta);

/// Writes a metrics-registry snapshot as JSON (schema
/// "ahbpower.metrics.v1"), metrics in name order.
void write_metrics_json(std::ostream& os, const MetricsRegistry& registry);

/// Writes the registry in the Prometheus text exposition format
/// (version 0.0.4): one "# TYPE" line per metric, names with '.'
/// mapped to '_' (the naming contract guarantees the result is a legal
/// Prometheus identifier), histograms as cumulative _bucket/_sum/_count
/// series. Deterministic; safe to call while other threads update the
/// metrics (this is the GET /metrics render path).
void write_prometheus_text(std::ostream& os, const MetricsRegistry& registry);
///@}

/// @name Crash-safe file variants
/// Identical output to the stream writers above, but committed through
/// AtomicFile::publish (atomic_file.hpp): a crash mid-export can never
/// leave a truncated artifact on disk. All throw std::runtime_error on
/// I/O failure.
///@{
void write_window_csv_file(const std::filesystem::path& path,
                           const WindowSeries& series, const ExportMeta& meta);
void write_window_json_file(const std::filesystem::path& path,
                            const WindowSeries& series, const ExportMeta& meta);
void write_chrome_trace_file(const std::filesystem::path& path,
                             const TraceEventLog& log,
                             const WindowSeries* series,
                             const ExportMeta& meta);
void write_metrics_json_file(const std::filesystem::path& path,
                             const MetricsRegistry& registry);
///@}

}  // namespace ahbp::telemetry
