#pragma once
// Transaction-scoped tracing: the record type, the append-only log, and
// the deterministic exporters for per-transaction observability.
//
// A TxnRecord is one reconstructed bus transfer -- who owned it (master),
// whom it addressed (slave), what shape it had (burst kind, direction)
// and where its cycles went (arbitration wait, address phase, data
// beats, wait states, BUSY beats, RETRY/SPLIT/ERROR rework) -- plus the
// energy attributed to it by the power layer. The telemetry layer does
// not reconstruct anything itself; producers (power::TransactionTracer)
// fill records, this layer stores and renders them. Formats are
// specified in docs/OBSERVABILITY.md and validated in CI against
// tools/telemetry_schema.json (schema "ahbpower.txns.v1").

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/exporters.hpp"

namespace ahbp::telemetry {

/// Burst kind of a transaction: the AHB HBURST[2:0] encoding, plus
/// kUnknown for an orphan data phase whose address phase was never seen
/// (a tracer attached mid-transfer).
enum class TxnKind : std::uint8_t {
  kSingle = 0,
  kIncr = 1,
  kWrap4 = 2,
  kIncr4 = 3,
  kWrap8 = 4,
  kIncr8 = 5,
  kWrap16 = 6,
  kIncr16 = 7,
  kUnknown = 8,
};

/// "SINGLE", "INCR4", ..., "UNKNOWN" (static storage).
[[nodiscard]] std::string_view to_string(TxnKind k);

/// The outer span label of a transaction, e.g. "INCR4 WR" or
/// "SINGLE RD" (static storage, so it satisfies TraceEvent's lifetime
/// contract).
[[nodiscard]] std::string_view txn_span_name(TxnKind k, bool write);

/// One completed bus transaction, as reconstructed by a tracer. Plain
/// data: closing a transaction copies it into the log and nothing else.
struct TxnRecord {
  std::uint64_t id = 0;        ///< sequence number, in start order
  unsigned master = 0;         ///< owning master index
  unsigned slave = 0xFF;       ///< addressed slave index (0xFF = none seen)
  TxnKind kind = TxnKind::kSingle;  ///< burst kind
  bool write = false;          ///< direction of the transfer
  std::uint64_t req_tick = 0;    ///< first cycle the master waited for grant
  std::uint64_t start_tick = 0;  ///< first address-phase cycle
  std::uint64_t end_tick = 0;    ///< one past the last owned cycle
  std::uint64_t arb_cycles = 0;  ///< request->first-address latency
  std::uint64_t addr_cycles = 0; ///< cycles owning the address phase
  std::uint64_t data_beats = 0;  ///< completed data-phase beats
  std::uint64_t wait_cycles = 0; ///< data-phase cycles stalled by the slave
  std::uint64_t busy_cycles = 0; ///< BUSY beats inserted by the master
  std::uint32_t retries = 0;     ///< RETRY responses received
  std::uint32_t splits = 0;      ///< SPLIT responses received
  std::uint32_t errors = 0;      ///< ERROR responses received
  double energy_j = 0.0;         ///< energy attributed to this transaction [J]
};

/// Append-only log of completed transactions, in completion order.
class TxnTraceLog {
public:
  void add(const TxnRecord& r) { records_.push_back(r); }
  [[nodiscard]] const std::vector<TxnRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

private:
  std::vector<TxnRecord> records_;
};

/// Attribution totals accompanying a transaction stream: how the run's
/// energy splits across masters, slaves and the synthetic "bus" owner
/// (idle / handover cycles nobody's transaction owns). Conservation
/// contract: sum of per-record energy_j plus bus_energy_j equals
/// total_energy_j within 1e-9 relative error (docs/OBSERVABILITY.md).
struct TxnSummary {
  double total_energy_j = 0.0;            ///< the estimator's run total
  double bus_energy_j = 0.0;              ///< idle/handover (bus-owned)
  std::vector<double> master_energy_j;    ///< per-master attributed energy
  std::vector<std::uint64_t> master_txns; ///< per-master transaction counts
  std::vector<double> slave_energy_j;     ///< per-slave attributed energy
};

/// Writes the transaction stream as CSV, one row per record:
///   txn,master,slave,kind,write,req_tick,start_tick,end_tick,
///   arb_cycles,addr_cycles,data_beats,wait_cycles,busy_cycles,
///   retries,splits,errors,energy_j
void write_txn_csv(std::ostream& os, const TxnTraceLog& log);

/// Writes the transaction stream as a JSON document (schema
/// "ahbpower.txns.v1"): header (tick_ns, per-master / per-slave
/// attribution totals, bus_energy_j, total_energy_j) plus one object
/// per transaction.
void write_txn_json(std::ostream& os, const TxnTraceLog& log,
                    const TxnSummary& summary, const ExportMeta& meta);

/// The Chrome-trace thread id carrying a master's transaction spans.
[[nodiscard]] constexpr int txn_track_tid(unsigned master) {
  return static_cast<int>(master) + 2;
}

/// One Chrome-trace slice of a transaction, category "txn".
struct TxnSlice {
  std::string_view name;  ///< static storage, like TraceEvent::name
  int tid = 0;
  std::uint64_t start_tick = 0;
  std::uint64_t dur_ticks = 0;
  bool args = false;  ///< carries the record's counters (append_txn_args)
};

/// Calls `slice(TxnSlice)` for each of a transaction's Chrome-trace
/// slices, in order: an outer slice covering [req_tick, end_tick) on the
/// master's track (tid = txn_track_tid(master), clear of the
/// bus-instruction track at tid 1) that carries the args, then nested
/// "arb" and "xfer" children when they are non-empty. The one place
/// that decides a record's spans.
template <class F>
void for_each_txn_slice(const TxnRecord& r, F&& slice) {
  const int tid = txn_track_tid(r.master);
  const std::uint64_t dur =
      r.end_tick > r.req_tick ? r.end_tick - r.req_tick : 1;
  slice(TxnSlice{txn_span_name(r.kind, r.write), tid, r.req_tick, dur, true});
  if (r.start_tick > r.req_tick) {
    slice(TxnSlice{"arb", tid, r.req_tick, r.start_tick - r.req_tick, false});
  }
  if (r.end_tick > r.start_tick) {
    slice(TxnSlice{"xfer", tid, r.start_tick, r.end_tick - r.start_tick,
                   false});
  }
}

/// Appends the outer slice's "args" object: {"txn": id, "slave": ...,
/// "beats": ..., "waits": ..., "retries": ..., "energy_j": ...}.
void append_txn_args(std::string& out, const TxnRecord& r);

/// Appends one transaction's Chrome-trace spans (for_each_txn_slice) to
/// `spans` as TraceEvents.
void append_txn_spans(TraceEventLog& spans, const TxnRecord& r);

/// The Chrome-trace spans of a transaction log, rendered straight from
/// its records when written: producers keep only the TxnTraceLog
/// (power::TransactionTracer::spans() returns this view), so nothing
/// runs per simulated transaction and nothing is materialized per span.
/// The log must outlive the view. Name the tracks via
/// ExportMeta::threads.
class TxnSpanView {
public:
  explicit TxnSpanView(const TxnTraceLog& log) : log_(&log) {}
  [[nodiscard]] const TxnTraceLog& log() const { return *log_; }
  /// Number of slices (one to three per record).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return log_->empty(); }

private:
  const TxnTraceLog* log_;
};

/// Writes the spans as a Chrome trace_event JSON file, byte-identical to
/// write_chrome_trace over a TraceEventLog filled by append_txn_spans.
void write_chrome_trace(std::ostream& os, const TxnSpanView& spans,
                        const WindowSeries* series, const ExportMeta& meta);

/// @name Crash-safe file variants
/// Identical output to the stream writers above, committed through
/// AtomicFile; throw std::runtime_error on I/O failure.
///@{
void write_txn_csv_file(const std::filesystem::path& path,
                        const TxnTraceLog& log);
void write_txn_json_file(const std::filesystem::path& path,
                         const TxnTraceLog& log, const TxnSummary& summary,
                         const ExportMeta& meta);
void write_chrome_trace_file(const std::filesystem::path& path,
                             const TxnSpanView& spans,
                             const WindowSeries* series,
                             const ExportMeta& meta);
///@}

}  // namespace ahbp::telemetry
