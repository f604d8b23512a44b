#include "telemetry/exporters.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "telemetry/atomic_file.hpp"

namespace ahbp::telemetry {

char* write_json_escaped(char* p, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c != '"' && c != '\\') {
      *p++ = ch;
      continue;
    }
    *p++ = '\\';
    switch (c) {
      case '"': *p++ = '"'; break;
      case '\\': *p++ = '\\'; break;
      case '\n': *p++ = 'n'; break;
      case '\r': *p++ = 'r'; break;
      case '\t': *p++ = 't'; break;
      default:
        p = std::copy_n("u00", 3, p);
        *p++ = kHex[c >> 4];
        *p++ = kHex[c & 0xf];
    }
  }
  return p;
}

std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

char* write_json_number(char* p, double v) {
  if (!std::isfinite(v) || v == 0.0) {
    *p = '0';
    return p + 1;
  }
  // Exact integers (within double's exact range) without a fraction.
  if (std::fabs(v) < 9.007199254740992e15) {
    const auto whole = static_cast<std::int64_t>(v);
    if (static_cast<double>(whole) == v) return write_int(p, whole);
  }
  char buf[kNumberChars];
  // The shortest round-trip form, "d[.ddd]e±XX".
  const char* const sci =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  if ((std::bit_cast<std::uint64_t>(v) & kMantissa) == 0) {
    // A power of two: its round-trip interval is lopsided (the lower
    // neighbour is twice as close), so "%.*g" at the shortest form's
    // digit count can round outside it. Step the precision up until the
    // parse matches.
    int prec = 0;
    for (const char* q = buf; q != sci && *q != 'e'; ++q) {
      if (*q >= '0' && *q <= '9') ++prec;
    }
    for (;; ++prec) {
      char* const last = std::to_chars(p, p + kNumberChars, v,
                                       std::chars_format::general, prec)
                             .ptr;
      double back = 0.0;
      std::from_chars(p, last, back);
      if (back == v || prec >= 17) return last;
    }
  }
  // Every other value has a symmetric round-trip interval, so the
  // shortest digits are exactly "%.*g"'s correctly rounded digits at
  // that precision P (the closest P-digit decimal lies in the interval
  // whenever any does). Only the layout is left: "%g" prints fixed
  // notation when -4 <= exp < P, else the scientific form as it stands.
  const char* q = buf;
  if (*q == '-') *p++ = *q++;
  const char lead = *q++;
  const char* const frac = *q == '.' ? q + 1 : q;  // digits after the lead
  const char* const e = std::find(q, sci, 'e');
  const auto frac_len = static_cast<int>(e - frac);
  int exp = 0;
  for (const char* d = e + 2; d != sci; ++d) exp = exp * 10 + (*d - '0');
  if (e[1] == '-') exp = -exp;
  if (exp < -4 || exp > frac_len) {  // exp >= P, P = frac_len + 1
    return std::copy(q - 1, sci, p);
  }
  if (exp < 0) {
    *p++ = '0';
    *p++ = '.';
    p = std::fill_n(p, -exp - 1, '0');
    *p++ = lead;
    return std::copy(frac, e, p);
  }
  *p++ = lead;
  p = std::copy(frac, frac + exp, p);
  if (exp < frac_len) {
    *p++ = '.';
    p = std::copy(frac + exp, e, p);
  }
  return p;
}

char* write_tick_us(char* p, std::uint64_t tick, double tick_ns) {
  const double ns = static_cast<double>(tick) * tick_ns;
  const double us = ns * 1e-3;
  // When the product is the double nearest n / 1000 for an integer
  // n < 2^40 (a whole number of nanoseconds, whenever the product rounded
  // like the exact quotient), the decimal n / 1000 has at most 13
  // significant digits, so it is that double's only shortest round-trip
  // form, and "%g" prints it in fixed notation: its digits with trailing
  // fraction zeros trimmed.
  if (ns >= 0.0 && ns < 0x1p40) {
    const auto n = static_cast<std::uint64_t>(ns);
    if (us == static_cast<double>(n) / 1000.0) {
      p = write_int(p, n / 1000);
      for (auto frac = static_cast<unsigned>(n % 1000), unit = 100u;
           frac != 0; frac %= unit, unit /= 10) {
        if (unit == 100) *p++ = '.';
        *p++ = static_cast<char>('0' + frac / unit);
      }
      return p;
    }
  }
  return write_json_number(p, us);
}

std::string json_number(double v) {
  std::string out;
  append(out, v);
  return out;
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

std::size_t name_bytes(const std::vector<std::string>& names) {
  std::size_t n = 0;
  for (const std::string& s : names) n += s.size();
  return n;
}

// Each emitter reserves the sum of its appends' bounds (append_bound),
// so no append, the last one included, reallocates the buffer.

std::string window_csv(const WindowSeries& series, const ExportMeta& meta) {
  const std::size_t tracks = series.tracks().size();
  std::string out;
  out.reserve(64 + 5 * tracks + name_bytes(series.tracks()) +
              series.windows().size() *
                  (8 + 3 * kIntChars + (tracks + 3) * (1 + kNumberChars)));
  out += "window,start_tick,ticks,t_start_us";
  for (const std::string& t : series.tracks()) append(out, ",e_", t, "_j");
  out += ",e_total_j,p_total_w\n";
  std::size_t idx = 0;
  for (const auto& w : series.windows()) {
    const double total = window_total(w);
    const double secs = window_seconds(w, meta);
    append(out, idx++, ',', w.start_tick, ',', w.ticks, ',',
           TickUs{w.start_tick, meta.tick_ns});
    for (const double v : w.values) append(out, ',', v);
    append(out, ',', total, ',', secs > 0.0 ? total / secs : 0.0, '\n');
  }
  return out;
}

std::string window_json(const WindowSeries& series, const ExportMeta& meta) {
  double grand_total = 0.0;
  for (const auto& w : series.windows()) grand_total += window_total(w);

  const std::size_t tracks = series.tracks().size();
  std::string out;
  out.reserve(192 + kIntChars + 2 * kNumberChars + 4 * tracks +
              6 * name_bytes(series.tracks()) +
              series.windows().size() *
                  (112 + 2 * kIntChars + 3 * kNumberChars +
                   tracks * (2 + kNumberChars)));
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
           ", \"t_start_us\": ", TickUs{w.start_tick, meta.tick_ns},
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
  std::size_t slice_bytes = 0;
  for (const TraceEvent& e : log.events()) {
    slice_bytes +=
        trace_slice_bound(e.name, e.category) + 11 + e.args_json.size();
  }
  return chrome_trace_text(
      slice_bytes,
      [&](std::string& out) {
        for (const TraceEvent& e : log.events()) {
          append_trace_slice(out, e.name, e.category, e.tid, e.start_tick,
                             e.dur_ticks, meta.tick_ns);
          if (!e.args_json.empty()) append(out, ", \"args\": ", e.args_json);
          out += '}';
        }
      },
      series, meta);
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

void append_trace_slice(std::string& out, std::string_view name,
                        std::string_view category, int tid,
                        std::uint64_t start_tick, std::uint64_t dur_ticks,
                        double tick_ns) {
  append(out, ",\n  {\"name\": \"", JsonEscaped{name}, "\", \"cat\": \"",
         JsonEscaped{category}, "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ",
         tid, ", \"ts\": ", TickUs{start_tick, tick_ns}, ", \"dur\": ",
         TickUs{dur_ticks, tick_ns});
}

std::string chrome_trace_text(
    std::size_t slice_bytes,
    const std::function<void(std::string&)>& append_slices,
    const WindowSeries* series, const ExportMeta& meta) {
  std::size_t bytes = 128 + 6 * meta.process_name.size() + slice_bytes;
  for (const auto& thread : meta.threads) {
    bytes += 96 + kIntChars + 6 * thread.second.size();
  }
  if (series != nullptr) {
    bytes += series->windows().size() *
             (72 + kNumberChars +
              series->tracks().size() * (6 + kNumberChars) +
              6 * name_bytes(series->tracks()));
  }
  std::string out;
  out.reserve(bytes);
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
  append_slices(out);
  if (series != nullptr) {
    for (const auto& w : series->windows()) {
      const double secs = window_seconds(w, meta);
      append(out, ",\n  {\"name\": \"power_mw\", \"ph\": \"C\", \"pid\": 1, "
                  "\"ts\": ",
             TickUs{w.start_tick, meta.tick_ns}, ", \"args\": {");
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
