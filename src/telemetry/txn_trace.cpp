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

/// One record as a compact JSON object (shared by write_txn_json).
void write_record(std::ostream& os, const TxnRecord& r) {
  os << "{\"id\": " << r.id << ", \"master\": " << r.master
     << ", \"slave\": " << r.slave << ", \"kind\": \"" << to_string(r.kind)
     << "\", \"write\": " << (r.write ? "true" : "false")
     << ", \"req_tick\": " << r.req_tick << ", \"start_tick\": " << r.start_tick
     << ", \"end_tick\": " << r.end_tick << ", \"arb_cycles\": " << r.arb_cycles
     << ", \"addr_cycles\": " << r.addr_cycles
     << ", \"data_beats\": " << r.data_beats
     << ", \"wait_cycles\": " << r.wait_cycles
     << ", \"busy_cycles\": " << r.busy_cycles << ", \"retries\": " << r.retries
     << ", \"splits\": " << r.splits << ", \"errors\": " << r.errors
     << ", \"energy_j\": " << json_number(r.energy_j) << "}";
}

}  // namespace

std::string_view to_string(TxnKind k) { return kKindNames[kind_index(k)]; }

std::string_view txn_span_name(TxnKind k, bool write) {
  return kSpanNames[kind_index(k)][write ? 1 : 0];
}

void write_txn_csv(std::ostream& os, const TxnTraceLog& log) {
  os << "txn,master,slave,kind,write,req_tick,start_tick,end_tick,"
        "arb_cycles,addr_cycles,data_beats,wait_cycles,busy_cycles,"
        "retries,splits,errors,energy_j\n";
  for (const TxnRecord& r : log.records()) {
    os << r.id << ',' << r.master << ',' << r.slave << ','
       << to_string(r.kind) << ','
       << (r.write ? 'W' : 'R') << ',' << r.req_tick << ',' << r.start_tick
       << ',' << r.end_tick << ',' << r.arb_cycles << ',' << r.addr_cycles
       << ',' << r.data_beats << ',' << r.wait_cycles << ',' << r.busy_cycles
       << ',' << r.retries << ',' << r.splits << ',' << r.errors << ','
       << json_number(r.energy_j) << '\n';
  }
}

void write_txn_json(std::ostream& os, const TxnTraceLog& log,
                    const TxnSummary& summary, const ExportMeta& meta) {
  os << "{\n";
  os << "  \"schema\": \"ahbpower.txns.v1\",\n";
  os << "  \"tick_ns\": " << json_number(meta.tick_ns) << ",\n";
  os << "  \"total_energy_j\": " << json_number(summary.total_energy_j)
     << ",\n";
  os << "  \"bus_energy_j\": " << json_number(summary.bus_energy_j) << ",\n";
  os << "  \"masters\": [";
  for (std::size_t m = 0; m < summary.master_energy_j.size(); ++m) {
    if (m != 0) os << ", ";
    const std::uint64_t txns =
        m < summary.master_txns.size() ? summary.master_txns[m] : 0;
    os << "{\"energy_j\": " << json_number(summary.master_energy_j[m])
       << ", \"txns\": " << txns << "}";
  }
  os << "],\n";
  os << "  \"slaves\": [";
  for (std::size_t s = 0; s < summary.slave_energy_j.size(); ++s) {
    if (s != 0) os << ", ";
    os << "{\"energy_j\": " << json_number(summary.slave_energy_j[s]) << "}";
  }
  os << "],\n";
  os << "  \"txns\": [";
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_record(os, log.records()[i]);
  }
  os << "\n  ]\n}\n";
}

void append_txn_spans(TraceEventLog& spans, const TxnRecord& r) {
  const int tid = txn_track_tid(r.master);
  const std::uint64_t dur =
      r.end_tick > r.req_tick ? r.end_tick - r.req_tick : 1;
  std::string args = "{\"txn\": " + std::to_string(r.id) +
                     ", \"slave\": " + std::to_string(r.slave) +
                     ", \"beats\": " + std::to_string(r.data_beats) +
                     ", \"waits\": " + std::to_string(r.wait_cycles) +
                     ", \"retries\": " + std::to_string(r.retries) +
                     ", \"energy_j\": " + json_number(r.energy_j) + "}";
  spans.add_complete(txn_span_name(r.kind, r.write), "txn", r.req_tick, dur,
                     tid, std::move(args));
  if (r.start_tick > r.req_tick) {
    spans.add_complete("arb", "txn", r.req_tick, r.start_tick - r.req_tick,
                       tid, {});
  }
  if (r.end_tick > r.start_tick) {
    spans.add_complete("xfer", "txn", r.start_tick, r.end_tick - r.start_tick,
                       tid, {});
  }
}

void write_txn_csv_file(const std::filesystem::path& path,
                        const TxnTraceLog& log) {
  AtomicFile file(path);
  write_txn_csv(file.stream(), log);
  file.commit();
}

void write_txn_json_file(const std::filesystem::path& path,
                         const TxnTraceLog& log, const TxnSummary& summary,
                         const ExportMeta& meta) {
  AtomicFile file(path);
  write_txn_json(file.stream(), log, summary, meta);
  file.commit();
}

}  // namespace ahbp::telemetry
