#include "telemetry/exporters.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "telemetry/atomic_file.hpp"

namespace ahbp::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == 0.0) return "0";
  char buf[40];
  char* const end = buf + sizeof buf;
  // Exact integers (within double's exact range) without a fraction.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    return {buf, std::to_chars(buf, end, v, std::chars_format::fixed, 0).ptr};
  }
  // The shortest "%.*g" that parses back to v. No precision below the
  // digit count of the shortest round-trip form can round-trip, and that
  // count almost always does; it can fall one short only where the
  // round-trip interval is lopsided (at powers of two), so step up until
  // the parse matches. Deterministic for a given value on every
  // IEEE-754 platform.
  char* const sci =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* p = buf; p != sci && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++prec;
  }
  for (;; ++prec) {
    char* const last =
        std::to_chars(buf, end, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, last, back);
    if (back == v || prec >= 17) return {buf, last};
  }
}

namespace {

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

}  // namespace

void write_window_csv(std::ostream& os, const WindowSeries& series,
                      const ExportMeta& meta) {
  os << "window,start_tick,ticks,t_start_us";
  for (const std::string& t : series.tracks()) os << ",e_" << t << "_j";
  os << ",e_total_j,p_total_w\n";
  std::size_t idx = 0;
  for (const auto& w : series.windows()) {
    const double total = window_total(w);
    const double secs = window_seconds(w, meta);
    os << idx++ << ',' << w.start_tick << ',' << w.ticks << ','
       << json_number(tick_to_us(w.start_tick, meta));
    for (const double v : w.values) os << ',' << json_number(v);
    os << ',' << json_number(total) << ','
       << json_number(secs > 0.0 ? total / secs : 0.0) << '\n';
  }
}

void write_window_json(std::ostream& os, const WindowSeries& series,
                       const ExportMeta& meta) {
  double grand_total = 0.0;
  for (const auto& w : series.windows()) grand_total += window_total(w);

  os << "{\n";
  os << "  \"schema\": \"ahbpower.windows.v1\",\n";
  os << "  \"tick_ns\": " << json_number(meta.tick_ns) << ",\n";
  os << "  \"window_ticks\": " << series.window_ticks() << ",\n";
  os << "  \"tracks\": [";
  for (std::size_t i = 0; i < series.tracks().size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << json_escape(series.tracks()[i]) << '"';
  }
  os << "],\n";
  os << "  \"total_energy_j\": " << json_number(grand_total) << ",\n";
  os << "  \"windows\": [";
  for (std::size_t i = 0; i < series.windows().size(); ++i) {
    const auto& w = series.windows()[i];
    const double total = window_total(w);
    const double secs = window_seconds(w, meta);
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"start_tick\": " << w.start_tick << ", \"ticks\": " << w.ticks
       << ", \"t_start_us\": " << json_number(tick_to_us(w.start_tick, meta))
       << ", \"energy_j\": [";
    for (std::size_t j = 0; j < w.values.size(); ++j) {
      if (j != 0) os << ", ";
      os << json_number(w.values[j]);
    }
    os << "], \"energy_total_j\": " << json_number(total)
       << ", \"power_w\": " << json_number(secs > 0.0 ? total / secs : 0.0)
       << "}";
  }
  os << "\n  ]\n}\n";
}

void write_chrome_trace(std::ostream& os, const TraceEventLog& log,
                        const WindowSeries* series, const ExportMeta& meta) {
  os << "{\"traceEvents\": [\n";
  os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \""
     << json_escape(meta.process_name) << "\"}}";
  for (const auto& [tid, label] : meta.threads) {
    os << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << tid << ", \"args\": {\"name\": \"" << json_escape(label) << "\"}}";
  }
  for (const TraceEvent& e : log.events()) {
    os << ",\n  {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
       << json_escape(e.category) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << e.tid << ", \"ts\": " << json_number(tick_to_us(e.start_tick, meta))
       << ", \"dur\": "
       << json_number(static_cast<double>(e.dur_ticks) * meta.tick_ns * 1e-3);
    if (!e.args_json.empty()) os << ", \"args\": " << e.args_json;
    os << "}";
  }
  if (series != nullptr) {
    for (const auto& w : series->windows()) {
      const double secs = window_seconds(w, meta);
      os << ",\n  {\"name\": \"power_mw\", \"ph\": \"C\", \"pid\": 1"
         << ", \"ts\": " << json_number(tick_to_us(w.start_tick, meta))
         << ", \"args\": {";
      for (std::size_t j = 0; j < w.values.size(); ++j) {
        if (j != 0) os << ", ";
        const double watts = secs > 0.0 ? w.values[j] / secs : 0.0;
        os << '"' << json_escape(series->tracks()[j])
           << "\": " << json_number(watts * 1e3);
      }
      os << "}}";
    }
  }
  os << "\n]}\n";
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  os << "{\n";
  os << "  \"schema\": \"ahbpower.metrics.v1\",\n";
  os << "  \"enabled\": " << (registry.enabled() ? "true" : "false") << ",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << c.value();
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << json_number(g.value());
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    // One locked snapshot per histogram: counts/count/sum/min/max stay
    // mutually consistent even while observe() runs concurrently.
    const Histogram::Snapshot snap = h.snapshot();
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {";
    os << "\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) os << ", ";
      os << json_number(h.bounds()[i]);
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (i != 0) os << ", ";
      os << snap.counts[i];
    }
    os << "], \"count\": " << snap.count
       << ", \"sum\": " << json_number(snap.sum)
       << ", \"min\": " << json_number(snap.min)
       << ", \"max\": " << json_number(snap.max) << "}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
}

namespace {

/// "campaign.runs_ok" -> "campaign_runs_ok". The naming contract
/// ([a-z0-9_] dot-separated segments) makes the result a legal
/// Prometheus metric name.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

}  // namespace

void write_prometheus_text(std::ostream& os, const MetricsRegistry& registry) {
  for (const auto& [name, c] : registry.counters()) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " counter\n" << n << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << json_number(g.value())
       << '\n';
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string n = prometheus_name(name);
    const Histogram::Snapshot snap = h.snapshot();
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      cumulative += snap.counts[i];
      os << n << "_bucket{le=\"" << json_number(h.bounds()[i]) << "\"} "
         << cumulative << '\n';
    }
    os << n << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    os << n << "_sum " << json_number(snap.sum) << '\n';
    os << n << "_count " << snap.count << '\n';
  }
}

void write_window_csv_file(const std::filesystem::path& path,
                           const WindowSeries& series, const ExportMeta& meta) {
  AtomicFile file(path);
  write_window_csv(file.stream(), series, meta);
  file.commit();
}

void write_window_json_file(const std::filesystem::path& path,
                            const WindowSeries& series,
                            const ExportMeta& meta) {
  AtomicFile file(path);
  write_window_json(file.stream(), series, meta);
  file.commit();
}

void write_chrome_trace_file(const std::filesystem::path& path,
                             const TraceEventLog& log,
                             const WindowSeries* series,
                             const ExportMeta& meta) {
  AtomicFile file(path);
  write_chrome_trace(file.stream(), log, series, meta);
  file.commit();
}

void write_metrics_json_file(const std::filesystem::path& path,
                             const MetricsRegistry& registry) {
  AtomicFile file(path);
  write_metrics_json(file.stream(), registry);
  file.commit();
}

}  // namespace ahbp::telemetry
