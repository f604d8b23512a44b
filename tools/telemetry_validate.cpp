// telemetry_validate -- check a telemetry JSON artifact against the
// checked-in schema catalogue.
//
//   telemetry_validate <schema-catalogue.json> <artifact.json>
//
// The catalogue (tools/telemetry_schema.json) maps schema identifiers
// ("ahbpower.windows.v1", ...) to JSON-Schema-style descriptions; the
// artifact names its own schema via its top-level "schema" field. The
// checker implements the subset of JSON Schema the contract needs --
// "type", "properties", "required", "items" -- over a small hand-rolled
// recursive-descent JSON parser, so validation needs no third-party
// dependency.
//
// For "ahbpower.windows.v1" artifacts it additionally enforces the
// conservation guarantee from docs/OBSERVABILITY.md: per-window energies
// must sum to total_energy_j within 1e-9 relative error. For
// "ahbpower.txns.v1" the analogous guarantee is enforced twice over:
// per-transaction energies + bus_energy_j == total_energy_j, and
// per-master attributed energies + bus_energy_j == total_energy_j. For
// "ahbpower.campaign.v2"/"v3"/"v4" every run carrying an attribution
// block must satisfy attributed master energies + bus_energy_j ==
// total_energy_j. v3/v4 artifacts additionally get their degraded block
// cross-checked: per-run "ok"/"status" consistency, the block's counts
// against the run list, and one degraded entry per non-ok run (v4 adds
// the "crashed" status and count).
//
// Binary artifacts are also understood: a file opening with the
// "ahbpower.journal.v1" header line is checked as a campaign
// write-ahead journal -- every complete [len][fnv1a64][payload] frame
// must pass its checksum and decode structurally; a torn tail (partial
// frame from a crash mid-append) is tolerated and reported.
//
// JSONL event logs (a first line naming "ahbpower.events.v1") are
// validated line by line: every event must carry the envelope (seq,
// t_mono_us, t_wall_us, type), seq must increase by exactly 1 from 1,
// t_mono_us must be non-decreasing, and when a campaign_finish event is
// present its per-status counts must equal the run_finish events
// actually observed -- the replay guarantee behind post-mortems.
//
// "ahbpower.bench_gatesim.v2" artifacts must carry an aggregate
// bitparallel_ms equal to the sum of the per-flow times (1e-9 relative).
//
// "ahbpower.status.v1" snapshots additionally get their counts
// cross-checked: done == ok+failed+crashed+timed_out+cancelled,
// in_flight == workers[].length, stalled_workers == the stalled
// entries in workers[].
//
// With a third argument,
//
//   telemetry_validate <schema-catalogue.json> <txns.json> <txn_trace.json>
//
// the transaction stream is also cross-checked against the Chrome trace
// rendered from it: every record must have exactly one outer span
// (args.txn == id) named "<kind> WR|RD" on tid master + 2 whose ts/dur
// cover [req_tick, end_tick), and the trace must hold exactly
// sum(1 + [start_tick > req_tick] + [end_tick > start_tick]) "X" spans
// -- the outer span plus its "arb" and "xfer" children.
//
// Exit 0 when valid, 1 on a contract violation, 2 on bad usage / I/O.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mini_json.hpp"

namespace {

using minijson::Parser;
using minijson::Value;

// --- schema-subset checker -------------------------------------------------

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "boolean";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

bool kind_matches(const Value& v, const std::string& type) {
  switch (v.kind) {
    case Value::Kind::kNull: return type == "null";
    case Value::Kind::kBool: return type == "boolean";
    case Value::Kind::kNumber:
      return type == "number" ||
             (type == "integer" && v.number == std::floor(v.number));
    case Value::Kind::kString: return type == "string";
    case Value::Kind::kArray: return type == "array";
    case Value::Kind::kObject: return type == "object";
  }
  return false;
}

/// Validates `v` against the supported schema subset, appending one line
/// per violation ("<path>: <reason>") to `errors`.
void validate(const Value& v, const Value& schema, const std::string& path,
              std::vector<std::string>& errors) {
  if (const Value* type = schema.find("type")) {
    bool ok = false;
    if (type->kind == Value::Kind::kString) {
      ok = kind_matches(v, type->string);
    } else if (type->kind == Value::Kind::kArray) {
      for (const Value& t : type->array) ok = ok || kind_matches(v, t.string);
    }
    if (!ok) {
      errors.push_back(path + ": expected type " +
                       (type->kind == Value::Kind::kString ? type->string
                                                           : "(union)") +
                       ", got " + kind_name(v.kind));
      return;  // structural checks below would only cascade
    }
  }
  if (const Value* required = schema.find("required")) {
    for (const Value& name : required->array) {
      if (v.kind == Value::Kind::kObject && v.find(name.string) == nullptr) {
        errors.push_back(path + ": missing required property \"" + name.string +
                         "\"");
      }
    }
  }
  if (const Value* props = schema.find("properties")) {
    if (v.kind == Value::Kind::kObject) {
      for (const auto& [name, sub] : props->object) {
        if (const Value* child = v.find(name)) {
          validate(*child, sub, path + "." + name, errors);
        }
      }
    }
  }
  if (const Value* items = schema.find("items")) {
    if (v.kind == Value::Kind::kArray) {
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        validate(v.array[i], *items, path + "[" + std::to_string(i) + "]",
                 errors);
      }
    }
  }
}

/// The conservation guarantee specific to windows artifacts.
void check_windows_conservation(const Value& doc,
                                std::vector<std::string>& errors) {
  const Value* total = doc.find("total_energy_j");
  const Value* windows = doc.find("windows");
  if (total == nullptr || windows == nullptr) return;  // schema already flagged
  double sum = 0.0;
  for (const Value& w : windows->array) {
    if (const Value* e = w.find("energy_total_j")) sum += e->number;
  }
  const double scale = std::max(std::abs(total->number), 1e-30);
  const double rel = std::abs(sum - total->number) / scale;
  if (rel > 1e-9) {
    errors.push_back("windows: per-window energies sum to " +
                     std::to_string(sum) + " J but total_energy_j is " +
                     std::to_string(total->number) + " J (rel err " +
                     std::to_string(rel) + " > 1e-9)");
  }
}

/// Relative deviation of `sum` from `total` (guarding tiny totals).
double rel_err(double sum, double total) {
  return std::abs(sum - total) / std::max(std::abs(total), 1e-30);
}

/// The conservation guarantees specific to transaction-stream artifacts.
void check_txns_conservation(const Value& doc,
                             std::vector<std::string>& errors) {
  const Value* total = doc.find("total_energy_j");
  const Value* bus = doc.find("bus_energy_j");
  if (total == nullptr || bus == nullptr) return;  // schema already flagged

  if (const Value* txns = doc.find("txns")) {
    double sum = bus->number;
    for (const Value& t : txns->array) {
      if (const Value* e = t.find("energy_j")) sum += e->number;
    }
    const double rel = rel_err(sum, total->number);
    if (rel > 1e-9) {
      errors.push_back("txns: per-transaction energies + bus_energy_j sum to " +
                       std::to_string(sum) + " J but total_energy_j is " +
                       std::to_string(total->number) + " J (rel err " +
                       std::to_string(rel) + " > 1e-9)");
    }
  }
  if (const Value* masters = doc.find("masters")) {
    double sum = bus->number;
    for (const Value& m : masters->array) {
      if (const Value* e = m.find("energy_j")) sum += e->number;
    }
    const double rel = rel_err(sum, total->number);
    if (rel > 1e-9) {
      errors.push_back("masters: attributed energies + bus_energy_j sum to " +
                       std::to_string(sum) + " J but total_energy_j is " +
                       std::to_string(total->number) + " J (rel err " +
                       std::to_string(rel) + " > 1e-9)");
    }
  }
}

/// The gate-throughput bench's aggregate characterization time must be
/// the sum of its per-flow times.
void check_gatesim_aggregate(const Value& doc, std::vector<std::string>& errors) {
  const Value* flows = doc.find("characterization");
  const Value* agg = doc.find("aggregate");
  const Value* total = agg != nullptr ? agg->find("bitparallel_ms") : nullptr;
  if (flows == nullptr || total == nullptr) return;  // schema already flagged
  double sum = 0.0;
  for (const Value& f : flows->array) {
    if (const Value* ms = f.find("bitparallel_ms")) sum += ms->number;
  }
  const double rel = rel_err(sum, total->number);
  if (rel > 1e-9) {
    errors.push_back("characterization: per-flow bitparallel_ms sum to " +
                     std::to_string(sum) + " but aggregate.bitparallel_ms is " +
                     std::to_string(total->number) + " (rel err " +
                     std::to_string(rel) + " > 1e-9)");
  }
}

/// Per-run attribution conservation for campaign.v2 artifacts.
void check_campaign_attribution(const Value& doc,
                                std::vector<std::string>& errors) {
  const Value* runs = doc.find("runs");
  if (runs == nullptr) return;
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const Value& run = runs->array[i];
    const Value* attribution = run.find("attribution");
    const Value* total = run.find("total_energy_j");
    if (attribution == nullptr || total == nullptr) continue;
    const Value* bus = attribution->find("bus_energy_j");
    const Value* masters = attribution->find("masters");
    if (bus == nullptr || masters == nullptr) continue;
    double sum = bus->number;
    for (const Value& m : masters->array) {
      if (const Value* e = m.find("energy_j")) sum += e->number;
    }
    const double rel = rel_err(sum, total->number);
    if (rel > 1e-9) {
      errors.push_back("runs[" + std::to_string(i) +
                       "].attribution: master energies + bus_energy_j sum to " +
                       std::to_string(sum) + " J but total_energy_j is " +
                       std::to_string(total->number) + " J (rel err " +
                       std::to_string(rel) + " > 1e-9)");
    }
  }
}

/// Degraded-block consistency for campaign.v3/v4 artifacts. The
/// "crashed" status (and its degraded-block count) exists from v4 on.
void check_campaign_degraded(const Value& doc, bool v4,
                             std::vector<std::string>& errors) {
  const Value* runs = doc.find("runs");
  if (runs == nullptr) return;

  std::size_t not_ok = 0;
  std::size_t n_failed = 0;
  std::size_t n_timed_out = 0;
  std::size_t n_cancelled = 0;
  std::size_t n_crashed = 0;
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const Value& run = runs->array[i];
    const Value* ok = run.find("ok");
    const Value* status = run.find("status");
    if (ok == nullptr || status == nullptr) continue;  // schema already flagged
    const std::string& s = status->string;
    if (s != "ok" && s != "failed" && s != "timed_out" && s != "cancelled" &&
        !(v4 && s == "crashed")) {
      errors.push_back("runs[" + std::to_string(i) + "].status: unknown value \"" +
                       s + "\"");
      continue;
    }
    if (ok->boolean != (s == "ok")) {
      errors.push_back("runs[" + std::to_string(i) +
                       "]: \"ok\" disagrees with status \"" + s + "\"");
    }
    if (s == "ok") continue;
    ++not_ok;
    if (s == "failed") ++n_failed;
    if (s == "timed_out") ++n_timed_out;
    if (s == "cancelled") ++n_cancelled;
    if (s == "crashed") ++n_crashed;
  }

  const Value* degraded = doc.find("degraded");
  if (degraded == nullptr) {
    if (not_ok != 0) {
      errors.push_back("degraded: block missing although " +
                       std::to_string(not_ok) + " run(s) did not complete");
    }
    return;
  }
  if (not_ok == 0) {
    errors.push_back("degraded: block present although every run completed");
    return;
  }
  auto check_count = [&](const char* key, std::size_t expected) {
    const Value* c = degraded->find(key);
    if (c != nullptr && static_cast<std::size_t>(c->number) != expected) {
      errors.push_back(std::string("degraded.") + key + ": " +
                       std::to_string(static_cast<std::size_t>(c->number)) +
                       " does not match the run list (" +
                       std::to_string(expected) + ")");
    }
  };
  check_count("count", not_ok);
  check_count("failed", n_failed);
  check_count("timed_out", n_timed_out);
  check_count("cancelled", n_cancelled);
  if (v4) check_count("crashed", n_crashed);
  if (const Value* druns = degraded->find("runs")) {
    if (druns->array.size() != not_ok) {
      errors.push_back("degraded.runs: " + std::to_string(druns->array.size()) +
                       " entries for " + std::to_string(not_ok) +
                       " non-ok run(s)");
    }
  }
}

/// Count conservation inside one live status snapshot.
void check_status_consistency(const Value& doc,
                              std::vector<std::string>& errors) {
  const auto count = [&doc](const char* key) -> double {
    const Value* v = doc.find(key);
    return v == nullptr ? 0.0 : v->number;
  };
  const double terminal = count("ok") + count("failed") + count("crashed") +
                          count("timed_out") + count("cancelled");
  if (doc.find("done") != nullptr && count("done") != terminal) {
    errors.push_back("status: done (" +
                     std::to_string(static_cast<long long>(count("done"))) +
                     ") != ok+failed+crashed+timed_out+cancelled (" +
                     std::to_string(static_cast<long long>(terminal)) + ")");
  }
  const Value* workers = doc.find("workers");
  if (workers == nullptr) return;  // schema already flagged
  if (doc.find("in_flight") != nullptr &&
      static_cast<std::size_t>(count("in_flight")) != workers->array.size()) {
    errors.push_back("status: in_flight (" +
                     std::to_string(static_cast<long long>(count("in_flight"))) +
                     ") != workers[] length (" +
                     std::to_string(workers->array.size()) + ")");
  }
  std::size_t stalled = 0;
  for (const Value& w : workers->array) {
    const Value* s = w.find("stalled");
    if (s != nullptr && s->boolean) ++stalled;
  }
  if (doc.find("stalled_workers") != nullptr &&
      static_cast<std::size_t>(count("stalled_workers")) != stalled) {
    errors.push_back(
        "status: stalled_workers (" +
        std::to_string(static_cast<long long>(count("stalled_workers"))) +
        ") != stalled entries in workers[] (" + std::to_string(stalled) + ")");
  }
}

// --- structured event log (JSONL) validation --------------------------------

constexpr const char kEventsSchemaId[] = "ahbpower.events.v1";

/// True when `text` is a JSONL event log: the first line is a JSON
/// object whose "schema" field names the events schema. Cheap substring
/// probe first so arbitrary binaries are not parsed.
bool looks_like_event_log(const std::string& text) {
  const std::size_t eol = text.find('\n');
  const std::string first = text.substr(0, eol);
  if (first.find(kEventsSchemaId) == std::string::npos) return false;
  try {
    const Value header = Parser(first).parse();
    const Value* schema = header.find("schema");
    return schema != nullptr && schema->string == kEventsSchemaId;
  } catch (const std::exception&) {
    return false;
  }
}

/// Validates a JSONL event log: per-line schema checks plus the stream
/// invariants (seq contiguity, monotonic timestamps) and the replay
/// guarantee (campaign_finish counts == observed run_finish events).
int validate_events(const char* path, const Value& catalogue,
                    const std::string& text) {
  const Value* line_schema = catalogue.find(kEventsSchemaId);
  std::vector<std::string> errors;

  std::uint64_t expected_seq = 1;
  double last_mono = -1.0;
  std::map<std::string, std::uint64_t> finish_by_status;
  std::uint64_t restored_seen = 0;
  const Value* campaign_finish = nullptr;
  Value campaign_finish_storage;

  std::size_t line_no = 1;  // the header line
  std::size_t pos = text.find('\n');
  pos = pos == std::string::npos ? text.size() : pos + 1;
  std::size_t n_events = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    Value ev;
    try {
      ev = Parser(line).parse();
    } catch (const std::exception& e) {
      errors.push_back("line " + std::to_string(line_no) + ": " + e.what());
      break;  // a torn line ends the stream; anything after is noise
    }
    ++n_events;
    if (line_schema != nullptr) {
      validate(ev, *line_schema, "line " + std::to_string(line_no), errors);
    }
    const Value* seq = ev.find("seq");
    if (seq != nullptr && static_cast<std::uint64_t>(seq->number) !=
                              expected_seq) {
      errors.push_back("line " + std::to_string(line_no) + ": seq " +
                       std::to_string(static_cast<std::uint64_t>(seq->number)) +
                       " breaks the contiguous sequence (expected " +
                       std::to_string(expected_seq) + ")");
    }
    ++expected_seq;
    if (const Value* mono = ev.find("t_mono_us")) {
      if (mono->number < last_mono) {
        errors.push_back("line " + std::to_string(line_no) +
                         ": t_mono_us went backwards");
      }
      last_mono = mono->number;
    }
    const Value* type = ev.find("type");
    if (type == nullptr) continue;  // schema check already flagged it
    if (type->string == "run_finish") {
      if (const Value* status = ev.find("status")) {
        ++finish_by_status[status->string];
      }
    } else if (type->string == "run_restored") {
      ++restored_seen;
    } else if (type->string == "campaign_finish") {
      campaign_finish_storage = ev;
      campaign_finish = &campaign_finish_storage;
    }
  }

  if (campaign_finish != nullptr) {
    const auto check = [&](const char* key, std::uint64_t observed) {
      const Value* v = campaign_finish->find(key);
      if (v != nullptr && static_cast<std::uint64_t>(v->number) != observed) {
        errors.push_back(std::string("campaign_finish.") + key + " (" +
                         std::to_string(static_cast<std::uint64_t>(v->number)) +
                         ") does not replay from the event stream (" +
                         std::to_string(observed) + " observed)");
      }
    };
    check("ok", finish_by_status["ok"]);
    check("failed", finish_by_status["failed"]);
    check("crashed", finish_by_status["crashed"]);
    check("timed_out", finish_by_status["timed_out"]);
    check("cancelled", finish_by_status["cancelled"]);
    check("restored", restored_seen);
  }

  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "%s: %s\n", path, e.c_str());
    }
    return 1;
  }
  std::printf("%s: valid (%s, %zu event(s)%s)\n", path, kEventsSchemaId,
              n_events,
              campaign_finish != nullptr ? ", replay counts match" : "");
  return 0;
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string("cannot read ") + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- campaign write-ahead journal (binary) validation -----------------------
//
// Mirrors the framing in src/campaign/journal.cpp: an ASCII schema line,
// a "config=<16 hex digits>" campaign-fingerprint line, then
// [u32 len LE][u64 fnv1a64 LE][payload] frames, each payload one
// serialized run outcome.

constexpr const char kJournalHeader[] = "ahbpower.journal.v1\n";
constexpr const char kJournalConfigPrefix[] = "config=";

std::uint64_t fnv1a64(const std::string& data, std::size_t pos,
                      std::size_t len) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[pos + i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Bounds-checked little-endian reader over one frame payload.
class ByteReader {
 public:
  ByteReader(const std::string& data, std::size_t pos, std::size_t len)
      : data_(data), pos_(pos), end_(pos + len) {}

  bool u8(std::uint64_t& v) { return fixed(1, v); }
  bool u32(std::uint64_t& v) { return fixed(4, v); }
  bool u64(std::uint64_t& v) { return fixed(8, v); }
  bool f64() {
    std::uint64_t bits;
    return u64(bits);
  }
  bool str() {
    std::uint64_t n = 0;
    if (!u32(n)) return false;
    if (end_ - pos_ < n) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == end_; }

 private:
  bool fixed(std::size_t n, std::uint64_t& v) {
    if (end_ - pos_ < n) return false;
    v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return true;
  }

  const std::string& data_;
  std::size_t pos_;
  std::size_t end_;
};

/// Structural decode of one journaled outcome (field layout mirrors
/// campaign::encode_outcome). Returns false when the payload is not a
/// well-formed outcome record.
bool journal_outcome_decodes(const std::string& data, std::size_t pos,
                             std::size_t len, std::string& why) {
  ByteReader rd(data, pos, len);
  std::uint64_t status = 0;
  std::uint64_t scratch = 0;
  if (!rd.u64(scratch) || !rd.str() || !rd.u8(status) || !rd.u32(scratch) ||
      !rd.str() || !rd.f64() || !rd.u32(scratch)) {
    why = "truncated outcome header";
    return false;
  }
  if (status > 4) {  // ok..crashed
    why = "unknown status byte " + std::to_string(status);
    return false;
  }
  std::uint64_t n = 0;
  if (!rd.f64() || !rd.f64() || !rd.f64() || !rd.f64() || !rd.f64() ||
      !rd.u64(scratch) || !rd.u64(scratch) || !rd.u32(n)) {
    why = "truncated power report";
    return false;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!rd.str() || !rd.f64()) {
      why = "truncated metrics map";
      return false;
    }
  }
  if (!rd.u32(n)) {
    why = "truncated attribution count";
    return false;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!rd.f64() || !rd.u64(scratch)) {
      why = "truncated attribution entry";
      return false;
    }
  }
  if (!rd.f64()) {
    why = "missing bus energy";
    return false;
  }
  if (!rd.done()) {
    why = "trailing bytes after outcome";
    return false;
  }
  return true;
}

/// Validates a binary campaign journal: header, per-frame checksums and
/// structural decodability. A torn tail (partial final frame) is the
/// expected shape of a crash mid-append and passes; a checksum mismatch
/// on a *complete* frame is corruption and fails.
int validate_journal(const char* path, const std::string& data) {
  std::size_t pos = std::strlen(kJournalHeader);
  // The mandatory config line: "config=" + 16 lowercase hex + "\n".
  const std::size_t cfg_prefix = std::strlen(kJournalConfigPrefix);
  std::uint64_t fingerprint = 0;
  bool cfg_ok = data.size() >= pos + cfg_prefix + 17 &&
                data.compare(pos, cfg_prefix, kJournalConfigPrefix) == 0 &&
                data[pos + cfg_prefix + 16] == '\n';
  for (std::size_t i = 0; cfg_ok && i < 16; ++i) {
    const char c = data[pos + cfg_prefix + i];
    if (c >= '0' && c <= '9') {
      fingerprint = (fingerprint << 4) | static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      fingerprint = (fingerprint << 4) |
                    static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      cfg_ok = false;
    }
  }
  if (!cfg_ok) {
    std::fprintf(stderr, "%s: missing or malformed config fingerprint line\n",
                 path);
    return 1;
  }
  pos += cfg_prefix + 17;
  std::size_t frames = 0;
  bool torn = false;
  while (pos < data.size()) {
    if (data.size() - pos < 12) {
      torn = true;
      break;
    }
    std::uint64_t len = 0;
    std::uint64_t checksum = 0;
    ByteReader prefix(data, pos, 12);
    prefix.u32(len);
    prefix.u64(checksum);
    if (len > (1u << 28)) {
      std::fprintf(stderr, "%s: frame at offset %zu has absurd length %llu\n",
                   path, pos, static_cast<unsigned long long>(len));
      return 1;
    }
    if (data.size() - pos - 12 < len) {
      torn = true;
      break;
    }
    if (fnv1a64(data, pos + 12, len) != checksum) {
      std::fprintf(stderr, "%s: checksum mismatch in frame at offset %zu\n",
                   path, pos);
      return 1;
    }
    std::string why;
    if (!journal_outcome_decodes(data, pos + 12, len, why)) {
      std::fprintf(stderr, "%s: undecodable outcome at offset %zu: %s\n", path,
                   pos, why.c_str());
      return 1;
    }
    ++frames;
    pos += 12 + len;
  }
  std::printf("%s: valid (ahbpower.journal.v1, config %016llx, "
              "%zu frame(s)%s)\n",
              path, static_cast<unsigned long long>(fingerprint), frames,
              torn ? ", torn tail tolerated" : "");
  return 0;
}

/// Cross-checks a transaction stream (ahbpower.txns.v1) against the
/// Chrome trace of its spans (see the header comment).
void check_txn_trace(const Value& txns_doc, const Value& trace,
                     std::vector<std::string>& errors) {
  const Value* tick_ns = txns_doc.find("tick_ns");
  const Value* txns = txns_doc.find("txns");
  const Value* events = trace.find("traceEvents");
  if (tick_ns == nullptr || txns == nullptr) return;  // schema already flagged
  if (events == nullptr || events->kind != Value::Kind::kArray) {
    errors.push_back("txn trace: no traceEvents array");
    return;
  }
  const auto field = [](const Value& v, const char* key) {
    const Value* f = v.find(key);
    return f != nullptr && f->kind == Value::Kind::kNumber ? f->number : -1.0;
  };
  const auto us = [&](double ticks) { return ticks * tick_ns->number * 1e-3; };
  const auto same = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(b), 1.0);
  };

  // Outer spans by transaction id; children are counted.
  std::map<double, std::vector<const Value*>> outer;
  std::size_t spans = 0;
  for (const Value& e : events->array) {
    const Value* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    ++spans;
    if (const Value* args = e.find("args")) {
      const double id = field(*args, "txn");
      if (id >= 0) outer[id].push_back(&e);
    }
  }

  std::size_t expected_spans = 0;
  for (const Value& t : txns->array) {
    const double id = field(t, "id");
    const double req = field(t, "req_tick");
    const double start = field(t, "start_tick");
    const double end = field(t, "end_tick");
    expected_spans += 1 + (start > req ? 1 : 0) + (end > start ? 1 : 0);
    const std::string where = "txn " + std::to_string(static_cast<long long>(id));
    const auto it = outer.find(id);
    if (it == outer.end() || it->second.size() != 1) {
      errors.push_back(where + ": expected one outer span, found " +
                       std::to_string(it == outer.end() ? 0 : it->second.size()));
      continue;
    }
    const Value& span = *it->second.front();
    const Value* kind = t.find("kind");
    const Value* write = t.find("write");
    const Value* name = span.find("name");
    if (kind != nullptr && write != nullptr &&
        (name == nullptr ||
         name->string != kind->string + (write->boolean ? " WR" : " RD"))) {
      errors.push_back(where + ": outer span name \"" +
                       (name != nullptr ? name->string : "") +
                       "\" does not match kind/direction");
    }
    if (field(span, "tid") != field(t, "master") + 2) {
      errors.push_back(where + ": outer span not on tid master + 2");
    }
    const double dur_ticks = end > req ? end - req : 1;
    if (!same(field(span, "ts"), us(req)) ||
        !same(field(span, "dur"), us(dur_ticks))) {
      errors.push_back(where + ": outer span ts/dur do not cover "
                               "[req_tick, end_tick)");
    }
  }
  if (spans != expected_spans) {
    errors.push_back("txn trace: " + std::to_string(spans) +
                     " X spans, but the transaction stream implies " +
                     std::to_string(expected_spans));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <schema-catalogue.json> <artifact.json> "
                 "[<txn_trace.json>]\n",
                 argv[0]);
    return 2;
  }
  try {
    const std::string artifact = read_file(argv[2]);
    if (artifact.compare(0, std::strlen(kJournalHeader), kJournalHeader) == 0) {
      return validate_journal(argv[2], artifact);
    }

    const Value catalogue = Parser(read_file(argv[1])).parse();
    if (looks_like_event_log(artifact)) {
      return validate_events(argv[2], catalogue, artifact);
    }
    const Value doc = Parser(artifact).parse();

    const Value* id = doc.find("schema");
    if (id == nullptr || id->kind != Value::Kind::kString) {
      std::fprintf(stderr, "%s: no top-level \"schema\" string\n", argv[2]);
      return 1;
    }
    const Value* schema = catalogue.find(id->string);
    if (schema == nullptr) {
      std::fprintf(stderr, "%s: unknown schema \"%s\"\n", argv[2],
                   id->string.c_str());
      return 1;
    }

    std::vector<std::string> errors;
    validate(doc, *schema, "$", errors);
    if (id->string == "ahbpower.windows.v1") {
      check_windows_conservation(doc, errors);
    }
    if (id->string == "ahbpower.txns.v1") {
      check_txns_conservation(doc, errors);
    }
    if (argc == 4) {
      if (id->string != "ahbpower.txns.v1") {
        std::fprintf(stderr, "%s: a trace cross-check needs an "
                             "ahbpower.txns.v1 artifact\n", argv[2]);
        return 2;
      }
      check_txn_trace(doc, Parser(read_file(argv[3])).parse(), errors);
    }
    if (id->string == "ahbpower.campaign.v2" ||
        id->string == "ahbpower.campaign.v3" ||
        id->string == "ahbpower.campaign.v4") {
      check_campaign_attribution(doc, errors);
    }
    if (id->string == "ahbpower.campaign.v3" ||
        id->string == "ahbpower.campaign.v4") {
      check_campaign_degraded(doc, id->string == "ahbpower.campaign.v4",
                              errors);
    }
    if (id->string == "ahbpower.status.v1") {
      check_status_consistency(doc, errors);
    }
    if (id->string == "ahbpower.bench_gatesim.v2") {
      check_gatesim_aggregate(doc, errors);
    }
    if (!errors.empty()) {
      for (const std::string& e : errors) {
        std::fprintf(stderr, "%s: %s\n", argv[2], e.c_str());
      }
      return 1;
    }
    std::printf("%s: valid (%s%s%s)\n", argv[2], id->string.c_str(),
                argc == 4 ? ", spans match " : "", argc == 4 ? argv[3] : "");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
