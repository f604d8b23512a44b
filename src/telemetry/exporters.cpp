#include "telemetry/exporters.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "telemetry/atomic_file.hpp"

namespace ahbp::telemetry {

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the pending run of bytes kept as-is
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s, plain);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v) || v == 0.0) {
    out += '0';
    return;
  }
  // Exact integers (within double's exact range) without a fraction.
  if (std::fabs(v) < 9.007199254740992e15) {
    const auto whole = static_cast<std::int64_t>(v);
    if (static_cast<double>(whole) == v) {
      append_int(out, whole);
      return;
    }
  }
  char buf[40];
  char* const end = buf + sizeof buf;
  // The shortest round-trip form, "d[.ddd]e±XX".
  const char* const sci =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  if ((std::bit_cast<std::uint64_t>(v) & kMantissa) == 0) {
    // A power of two: its round-trip interval is lopsided (the lower
    // neighbour is twice as close), so "%.*g" at the shortest form's
    // digit count can round outside it. Step the precision up until the
    // parse matches.
    int prec = 0;
    for (const char* p = buf; p != sci && *p != 'e'; ++p) {
      if (*p >= '0' && *p <= '9') ++prec;
    }
    for (;; ++prec) {
      char* const last =
          std::to_chars(buf, end, v, std::chars_format::general, prec).ptr;
      double back = 0.0;
      std::from_chars(buf, last, back);
      if (back == v || prec >= 17) {
        out.append(buf, static_cast<std::size_t>(last - buf));
        return;
      }
    }
  }
  // Every other value has a symmetric round-trip interval, so the
  // shortest digits are exactly "%.*g"'s correctly rounded digits at
  // that precision P (the closest P-digit decimal lies in the interval
  // whenever any does). Only the layout is left: "%g" prints fixed
  // notation when -4 <= exp < P, else the scientific form as it stands.
  const char* p = buf;
  char txt[40];
  char* o = txt;
  if (*p == '-') *o++ = *p++;
  const char lead = *p++;
  const char* const frac = *p == '.' ? p + 1 : p;  // digits after the lead
  const char* const e = std::find(p, sci, 'e');
  const auto frac_len = static_cast<int>(e - frac);
  int exp = 0;
  for (const char* q = e + 2; q != sci; ++q) exp = exp * 10 + (*q - '0');
  if (e[1] == '-') exp = -exp;
  if (exp < -4 || exp > frac_len) {  // exp >= P, P = frac_len + 1
    out.append(buf, static_cast<std::size_t>(sci - buf));
    return;
  }
  if (exp < 0) {
    *o++ = '0';
    *o++ = '.';
    o = std::fill_n(o, -exp - 1, '0');
    *o++ = lead;
    o = std::copy(frac, e, o);
  } else {
    *o++ = lead;
    o = std::copy(frac, frac + exp, o);
    if (exp < frac_len) {
      *o++ = '.';
      o = std::copy(frac + exp, e, o);
    }
  }
  out.append(txt, static_cast<std::size_t>(o - txt));
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

namespace {

/// Room for one rendered number or integer plus its separator; used to
/// size output buffers up front (an estimate, not a limit).
constexpr std::size_t kNumberBytes = 26;

/// A window's covered wall time in seconds.
double window_seconds(const WindowSeries::Window& w, const ExportMeta& meta) {
  return static_cast<double>(w.ticks) * meta.tick_ns * 1e-9;
}

double window_total(const WindowSeries::Window& w) {
  double t = 0.0;
  for (const double v : w.values) t += v;
  return t;
}

double tick_to_us(std::uint64_t tick, const ExportMeta& meta) {
  return static_cast<double>(tick) * meta.tick_ns * 1e-3;
}

std::string window_csv(const WindowSeries& series, const ExportMeta& meta) {
  std::string out;
  out.reserve(64 + 16 * series.tracks().size() +
              series.windows().size() *
                  (24 + (series.tracks().size() + 3) * kNumberBytes));
  out += "window,start_tick,ticks,t_start_us";
  for (const std::string& t : series.tracks()) append(out, ",e_", t, "_j");
  out += ",e_total_j,p_total_w\n";
  std::size_t idx = 0;
  for (const auto& w : series.windows()) {
    const double total = window_total(w);
    const double secs = window_seconds(w, meta);
    append(out, idx++, ',', w.start_tick, ',', w.ticks, ',',
           tick_to_us(w.start_tick, meta));
    for (const double v : w.values) append(out, ',', v);
    append(out, ',', total, ',', secs > 0.0 ? total / secs : 0.0, '\n');
  }
  return out;
}

std::string window_json(const WindowSeries& series, const ExportMeta& meta) {
  double grand_total = 0.0;
  for (const auto& w : series.windows()) grand_total += window_total(w);

  std::string out;
  out.reserve(256 + 16 * series.tracks().size() +
              series.windows().size() *
                  (112 + (series.tracks().size() + 3) * kNumberBytes));
  append(out, "{\n  \"schema\": \"ahbpower.windows.v1\",\n  \"tick_ns\": ",
         meta.tick_ns, ",\n  \"window_ticks\": ", series.window_ticks(),
         ",\n  \"tracks\": [");
  for (std::size_t i = 0; i < series.tracks().size(); ++i) {
    if (i != 0) out += ", ";
    append(out, '"', JsonEscaped{series.tracks()[i]}, '"');
  }
  append(out, "],\n  \"total_energy_j\": ", grand_total,
         ",\n  \"windows\": [");
  for (std::size_t i = 0; i < series.windows().size(); ++i) {
    const auto& w = series.windows()[i];
    const double total = window_total(w);
    const double secs = window_seconds(w, meta);
    append(out, i == 0 ? "\n" : ",\n", "    {\"start_tick\": ", w.start_tick,
           ", \"ticks\": ", w.ticks,
           ", \"t_start_us\": ", tick_to_us(w.start_tick, meta),
           ", \"energy_j\": [");
    for (std::size_t j = 0; j < w.values.size(); ++j) {
      if (j != 0) out += ", ";
      append(out, w.values[j]);
    }
    append(out, "], \"energy_total_j\": ", total,
           ", \"power_w\": ", secs > 0.0 ? total / secs : 0.0, '}');
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string chrome_trace(const TraceEventLog& log, const WindowSeries* series,
                         const ExportMeta& meta) {
  std::size_t estimate = 256 + 96 * meta.threads.size();
  for (const TraceEvent& e : log.events()) {
    estimate += 88 + 2 * kNumberBytes + e.name.size() + e.category.size() +
                e.args_json.size();
  }
  if (series != nullptr) {
    std::size_t track_bytes = 0;
    for (const std::string& t : series->tracks()) track_bytes += t.size() + 6;
    estimate += series->windows().size() *
                (64 + track_bytes +
                 (series->tracks().size() + 1) * kNumberBytes);
  }
  std::string out;
  out.reserve(estimate);
  append(out,
         "{\"traceEvents\": [\n"
         "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"",
         JsonEscaped{meta.process_name}, "\"}}");
  for (const auto& [tid, label] : meta.threads) {
    append(out,
           ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ",
           tid, ", \"args\": {\"name\": \"", JsonEscaped{label}, "\"}}");
  }
  for (const TraceEvent& e : log.events()) {
    append(out, ",\n  {\"name\": \"", JsonEscaped{e.name}, "\", \"cat\": \"",
           JsonEscaped{e.category}, "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ",
           e.tid, ", \"ts\": ", tick_to_us(e.start_tick, meta), ", \"dur\": ",
           static_cast<double>(e.dur_ticks) * meta.tick_ns * 1e-3);
    if (!e.args_json.empty()) append(out, ", \"args\": ", e.args_json);
    out += '}';
  }
  if (series != nullptr) {
    for (const auto& w : series->windows()) {
      const double secs = window_seconds(w, meta);
      append(out, ",\n  {\"name\": \"power_mw\", \"ph\": \"C\", \"pid\": 1, "
                  "\"ts\": ",
             tick_to_us(w.start_tick, meta), ", \"args\": {");
      for (std::size_t j = 0; j < w.values.size(); ++j) {
        if (j != 0) out += ", ";
        const double watts = secs > 0.0 ? w.values[j] / secs : 0.0;
        append(out, '"', JsonEscaped{series->tracks()[j]}, "\": ",
               watts * 1e3);
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string metrics_json(const MetricsRegistry& registry) {
  std::string out;
  append(out, "{\n  \"schema\": \"ahbpower.metrics.v1\",\n  \"enabled\": ",
         registry.enabled() ? "true" : "false", ",\n  \"counters\": {");
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    append(out, first ? "\n" : ",\n", "    \"", JsonEscaped{name}, "\": ",
           c.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    append(out, first ? "\n" : ",\n", "    \"", JsonEscaped{name}, "\": ",
           g.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    // One locked snapshot per histogram: counts/count/sum/min/max stay
    // mutually consistent even while observe() runs concurrently.
    const Histogram::Snapshot snap = h.snapshot();
    append(out, first ? "\n" : ",\n", "    \"", JsonEscaped{name},
           "\": {\"bounds\": [");
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out += ", ";
      append(out, h.bounds()[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (i != 0) out += ", ";
      append(out, snap.counts[i]);
    }
    append(out, "], \"count\": ", snap.count, ", \"sum\": ", snap.sum,
           ", \"min\": ", snap.min, ", \"max\": ", snap.max, '}');
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

/// "campaign.runs_ok" -> "campaign_runs_ok". The naming contract
/// ([a-z0-9_] dot-separated segments) makes the result a legal
/// Prometheus metric name.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, c] : registry.counters()) {
    const std::string n = prometheus_name(name);
    append(out, "# TYPE ", n, " counter\n", n, ' ', c.value(), '\n');
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string n = prometheus_name(name);
    append(out, "# TYPE ", n, " gauge\n", n, ' ', g.value(), '\n');
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string n = prometheus_name(name);
    const Histogram::Snapshot snap = h.snapshot();
    append(out, "# TYPE ", n, " histogram\n");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      cumulative += snap.counts[i];
      append(out, n, "_bucket{le=\"", h.bounds()[i], "\"} ", cumulative, '\n');
    }
    append(out, n, "_bucket{le=\"+Inf\"} ", snap.count, '\n', n, "_sum ",
           snap.sum, '\n', n, "_count ", snap.count, '\n');
  }
  return out;
}

}  // namespace

void write_window_csv(std::ostream& os, const WindowSeries& series,
                      const ExportMeta& meta) {
  os << window_csv(series, meta);
}

void write_window_json(std::ostream& os, const WindowSeries& series,
                       const ExportMeta& meta) {
  os << window_json(series, meta);
}

void write_chrome_trace(std::ostream& os, const TraceEventLog& log,
                        const WindowSeries* series, const ExportMeta& meta) {
  os << chrome_trace(log, series, meta);
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  os << metrics_json(registry);
}

void write_prometheus_text(std::ostream& os, const MetricsRegistry& registry) {
  os << prometheus_text(registry);
}

void write_window_csv_file(const std::filesystem::path& path,
                           const WindowSeries& series, const ExportMeta& meta) {
  AtomicFile::publish(path, window_csv(series, meta));
}

void write_window_json_file(const std::filesystem::path& path,
                            const WindowSeries& series,
                            const ExportMeta& meta) {
  AtomicFile::publish(path, window_json(series, meta));
}

void write_chrome_trace_file(const std::filesystem::path& path,
                             const TraceEventLog& log,
                             const WindowSeries* series,
                             const ExportMeta& meta) {
  AtomicFile::publish(path, chrome_trace(log, series, meta));
}

void write_metrics_json_file(const std::filesystem::path& path,
                             const MetricsRegistry& registry) {
  AtomicFile::publish(path, metrics_json(registry));
}

}  // namespace ahbp::telemetry
