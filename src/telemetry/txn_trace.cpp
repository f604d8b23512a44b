#include "telemetry/txn_trace.hpp"

#include <array>
#include <ostream>

#include "telemetry/atomic_file.hpp"

namespace ahbp::telemetry {

namespace {

/// Indexed by TxnKind.
constexpr std::array<std::string_view, 9> kKindNames = {
    "SINGLE", "INCR",   "WRAP4",  "INCR4",  "WRAP8",
    "INCR8",  "WRAP16", "INCR16", "UNKNOWN"};

/// Outer span labels, [kind][write].
constexpr std::array<std::array<std::string_view, 2>, 9> kSpanNames = {{
    {"SINGLE RD", "SINGLE WR"},
    {"INCR RD", "INCR WR"},
    {"WRAP4 RD", "WRAP4 WR"},
    {"INCR4 RD", "INCR4 WR"},
    {"WRAP8 RD", "WRAP8 WR"},
    {"INCR8 RD", "INCR8 WR"},
    {"WRAP16 RD", "WRAP16 WR"},
    {"INCR16 RD", "INCR16 WR"},
    {"UNKNOWN RD", "UNKNOWN WR"},
}};

std::size_t kind_index(TxnKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindNames.size() ? i : static_cast<std::size_t>(TxnKind::kUnknown);
}

constexpr std::string_view kTxnCategory = "txn";

/// The most characters one record renders to as a CSV row, as a JSON
/// object and as its Chrome-trace slices, from the bounds of the parts
/// (append_bound), so the reserves below are never outgrown.
constexpr std::size_t kCsvRowBytes = 32 + 14 * kIntChars + kNumberChars;
constexpr std::size_t kJsonRecordBytes = 320 + 14 * kIntChars + kNumberChars;
constexpr std::size_t kSpanRecordBytes =
    3 * (trace_slice_bound("UNKNOWN WR", kTxnCategory) + 1) + 10 + 72 +
    5 * kIntChars + kNumberChars;

/// One record as a compact JSON object (shared by write_txn_json).
void append_record(std::string& out, const TxnRecord& r) {
  append(out, "{\"id\": ", r.id, ", \"master\": ", r.master,
         ", \"slave\": ", r.slave, ", \"kind\": \"", to_string(r.kind),
         r.write ? "\", \"write\": true" : "\", \"write\": false",
         ", \"req_tick\": ", r.req_tick, ", \"start_tick\": ", r.start_tick,
         ", \"end_tick\": ", r.end_tick, ", \"arb_cycles\": ", r.arb_cycles,
         ", \"addr_cycles\": ", r.addr_cycles,
         ", \"data_beats\": ", r.data_beats,
         ", \"wait_cycles\": ", r.wait_cycles,
         ", \"busy_cycles\": ", r.busy_cycles, ", \"retries\": ", r.retries,
         ", \"splits\": ", r.splits, ", \"errors\": ", r.errors,
         ", \"energy_j\": ", r.energy_j, '}');
}

std::string txn_csv(const TxnTraceLog& log) {
  std::string out;
  out.reserve(256 + log.size() * kCsvRowBytes);
  out +=
      "txn,master,slave,kind,write,req_tick,start_tick,end_tick,"
      "arb_cycles,addr_cycles,data_beats,wait_cycles,busy_cycles,"
      "retries,splits,errors,energy_j\n";
  for (const TxnRecord& r : log.records()) {
    append(out, r.id, ',', r.master, ',', r.slave, ',', to_string(r.kind),
           r.write ? ",W," : ",R,", r.req_tick, ',', r.start_tick, ',',
           r.end_tick, ',', r.arb_cycles, ',', r.addr_cycles, ',',
           r.data_beats, ',', r.wait_cycles, ',', r.busy_cycles, ',',
           r.retries, ',', r.splits, ',', r.errors, ',', r.energy_j, '\n');
  }
  return out;
}

std::string txn_json(const TxnTraceLog& log, const TxnSummary& summary,
                     const ExportMeta& meta) {
  std::string out;
  out.reserve(256 + 3 * kNumberChars +
              summary.master_energy_j.size() *
                  (32 + kIntChars + kNumberChars) +
              summary.slave_energy_j.size() * (16 + kNumberChars) +
              log.size() * kJsonRecordBytes);
  append(out, "{\n  \"schema\": \"ahbpower.txns.v1\",\n  \"tick_ns\": ",
         meta.tick_ns, ",\n  \"total_energy_j\": ", summary.total_energy_j,
         ",\n  \"bus_energy_j\": ", summary.bus_energy_j,
         ",\n  \"masters\": [");
  for (std::size_t m = 0; m < summary.master_energy_j.size(); ++m) {
    if (m != 0) out += ", ";
    const std::uint64_t txns =
        m < summary.master_txns.size() ? summary.master_txns[m] : 0;
    append(out, "{\"energy_j\": ", summary.master_energy_j[m],
           ", \"txns\": ", txns, '}');
  }
  out += "],\n  \"slaves\": [";
  for (std::size_t s = 0; s < summary.slave_energy_j.size(); ++s) {
    if (s != 0) out += ", ";
    append(out, "{\"energy_j\": ", summary.slave_energy_j[s], '}');
  }
  out += "],\n  \"txns\": [";
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_record(out, log.records()[i]);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string txn_chrome_trace(const TxnSpanView& spans,
                             const WindowSeries* series,
                             const ExportMeta& meta) {
  const TxnTraceLog& log = spans.log();
  return chrome_trace_text(
      log.size() * kSpanRecordBytes,
      [&](std::string& out) {
        for (const TxnRecord& r : log.records()) {
          for_each_txn_slice(r, [&](const TxnSlice& s) {
            append_trace_slice(out, s.name, kTxnCategory, s.tid, s.start_tick,
                               s.dur_ticks, meta.tick_ns);
            if (s.args) {
              out += ", \"args\": ";
              append_txn_args(out, r);
            }
            out += '}';
          });
        }
      },
      series, meta);
}

}  // namespace

std::string_view to_string(TxnKind k) { return kKindNames[kind_index(k)]; }

std::string_view txn_span_name(TxnKind k, bool write) {
  return kSpanNames[kind_index(k)][write ? 1 : 0];
}

void write_txn_csv(std::ostream& os, const TxnTraceLog& log) {
  os << txn_csv(log);
}

void write_txn_json(std::ostream& os, const TxnTraceLog& log,
                    const TxnSummary& summary, const ExportMeta& meta) {
  os << txn_json(log, summary, meta);
}

void append_txn_args(std::string& out, const TxnRecord& r) {
  append(out, "{\"txn\": ", r.id, ", \"slave\": ", r.slave,
         ", \"beats\": ", r.data_beats, ", \"waits\": ", r.wait_cycles,
         ", \"retries\": ", r.retries, ", \"energy_j\": ", r.energy_j, '}');
}

void append_txn_spans(TraceEventLog& spans, const TxnRecord& r) {
  for_each_txn_slice(r, [&](const TxnSlice& s) {
    std::string args;
    if (s.args) append_txn_args(args, r);
    spans.add_complete(s.name, kTxnCategory, s.start_tick, s.dur_ticks, s.tid,
                       std::move(args));
  });
}

std::size_t TxnSpanView::size() const {
  std::size_t n = 0;
  for (const TxnRecord& r : log_->records()) {
    for_each_txn_slice(r, [&n](const TxnSlice&) { ++n; });
  }
  return n;
}

void write_chrome_trace(std::ostream& os, const TxnSpanView& spans,
                        const WindowSeries* series, const ExportMeta& meta) {
  os << txn_chrome_trace(spans, series, meta);
}

void write_txn_csv_file(const std::filesystem::path& path,
                        const TxnTraceLog& log) {
  AtomicFile::publish(path, txn_csv(log));
}

void write_txn_json_file(const std::filesystem::path& path,
                         const TxnTraceLog& log, const TxnSummary& summary,
                         const ExportMeta& meta) {
  AtomicFile::publish(path, txn_json(log, summary, meta));
}

void write_chrome_trace_file(const std::filesystem::path& path,
                             const TxnSpanView& spans,
                             const WindowSeries* series,
                             const ExportMeta& meta) {
  AtomicFile::publish(path, txn_chrome_trace(spans, series, meta));
}

}  // namespace ahbp::telemetry
