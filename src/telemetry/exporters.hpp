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

#include <charconv>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/window.hpp"

namespace ahbp::telemetry {

/// @name Text rendering primitives (shared by every emitter)
/// Emitters build each output in one std::string through append() and
/// the append_* primitives under it; json_escape / json_number return
/// the same renderings as a fresh string.
///@{
/// Appends `s` escaped for use inside JSON double quotes.
void append_json_escaped(std::string& out, std::string_view s);
/// Appends a finite double as the shortest "%.*g" rendering that parses
/// back to the same value ("1.5", "0.1", "1e-12"); integral values
/// within the exact-double range render without a fraction. Non-finite
/// values render as 0 (JSON has no inf/nan).
void append_json_number(std::string& out, double v);
/// Appends an integer's decimal digits.
template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  const char* const end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}
/// Escapes a string for use inside JSON double quotes.
[[nodiscard]] std::string json_escape(std::string_view s);
/// append_json_number's rendering as a string.
[[nodiscard]] std::string json_number(double v);

/// A string to append as escaped JSON string content (no quotes added).
struct JsonEscaped {
  std::string_view s;
};

namespace detail {
inline void append_part(std::string& out, std::string_view s) { out += s; }
inline void append_part(std::string& out, char c) { out += c; }
inline void append_part(std::string& out, double v) {
  append_json_number(out, v);
}
inline void append_part(std::string& out, JsonEscaped e) {
  append_json_escaped(out, e.s);
}
template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
void append_part(std::string& out, T v) {
  append_int(out, v);
}
}  // namespace detail

/// Appends each part in order: text and chars as they are, integers as
/// decimal digits, doubles as append_json_number renders them and
/// JsonEscaped strings escaped. The emitters' one formatting path:
///   append(out, "{\"id\": ", r.id, ", \"energy_j\": ", r.energy_j, '}');
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  (detail::append_part(out, parts), ...);
}
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
  void reserve(std::size_t n) { events_.reserve(n); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

private:
  std::vector<TraceEvent> events_;
};

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
