// Unit tests for the transaction-stream telemetry layer: record log,
// deterministic CSV/JSON exporters, and Chrome-trace span generation.

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/txn_trace.hpp"

namespace ahbp::telemetry {
namespace {

TxnRecord sample_record() {
  TxnRecord r;
  r.id = 7;
  r.master = 1;
  r.slave = 2;
  r.kind = TxnKind::kIncr4;
  r.write = true;
  r.req_tick = 10;
  r.start_tick = 12;
  r.end_tick = 18;
  r.arb_cycles = 2;
  r.addr_cycles = 4;
  r.data_beats = 4;
  r.wait_cycles = 1;
  r.busy_cycles = 0;
  r.retries = 0;
  r.splits = 0;
  r.errors = 0;
  r.energy_j = 1.5;
  return r;
}

TEST(TxnTraceLog, AppendsInOrder) {
  TxnTraceLog log;
  EXPECT_TRUE(log.empty());
  log.add(sample_record());
  TxnRecord r2 = sample_record();
  r2.id = 8;
  log.add(r2);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].id, 7u);
  EXPECT_EQ(log.records()[1].id, 8u);
}

TEST(TxnTraceCsv, GoldenOutput) {
  TxnTraceLog log;
  log.add(sample_record());
  std::ostringstream os;
  write_txn_csv(os, log);
  EXPECT_EQ(os.str(),
            "txn,master,slave,kind,write,req_tick,start_tick,end_tick,"
            "arb_cycles,addr_cycles,data_beats,wait_cycles,busy_cycles,"
            "retries,splits,errors,energy_j\n"
            "7,1,2,INCR4,W,10,12,18,2,4,4,1,0,0,0,0,1.5\n");
}

TEST(TxnTraceCsv, EmptyLogEmitsHeaderOnly) {
  TxnTraceLog log;
  std::ostringstream os;
  write_txn_csv(os, log);
  EXPECT_EQ(os.str(),
            "txn,master,slave,kind,write,req_tick,start_tick,end_tick,"
            "arb_cycles,addr_cycles,data_beats,wait_cycles,busy_cycles,"
            "retries,splits,errors,energy_j\n");
}

TEST(TxnTraceJson, GoldenOutput) {
  TxnTraceLog log;
  log.add(sample_record());
  TxnSummary summary;
  summary.total_energy_j = 2.0;
  summary.bus_energy_j = 0.5;
  summary.master_energy_j = {0.0, 1.5};
  summary.master_txns = {0, 1};
  summary.slave_energy_j = {0.0, 0.0, 1.5};
  const ExportMeta meta{.tick_ns = 10.0};
  std::ostringstream os;
  write_txn_json(os, log, summary, meta);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"ahbpower.txns.v1\",\n"
            "  \"tick_ns\": 10,\n"
            "  \"total_energy_j\": 2,\n"
            "  \"bus_energy_j\": 0.5,\n"
            "  \"masters\": [{\"energy_j\": 0, \"txns\": 0}, "
            "{\"energy_j\": 1.5, \"txns\": 1}],\n"
            "  \"slaves\": [{\"energy_j\": 0}, {\"energy_j\": 0}, "
            "{\"energy_j\": 1.5}],\n"
            "  \"txns\": [\n"
            "    {\"id\": 7, \"master\": 1, \"slave\": 2, \"kind\": \"INCR4\", "
            "\"write\": true, \"req_tick\": 10, \"start_tick\": 12, "
            "\"end_tick\": 18, \"arb_cycles\": 2, \"addr_cycles\": 4, "
            "\"data_beats\": 4, \"wait_cycles\": 1, \"busy_cycles\": 0, "
            "\"retries\": 0, \"splits\": 0, \"errors\": 0, \"energy_j\": 1.5}\n"
            "  ]\n"
            "}\n");
}

TEST(TxnTraceJson, DeterministicAcrossCalls) {
  TxnTraceLog log;
  log.add(sample_record());
  TxnSummary summary;
  summary.total_energy_j = 2.0;
  summary.bus_energy_j = 0.5;
  summary.master_energy_j = {0.0, 1.5};
  summary.master_txns = {0, 1};
  summary.slave_energy_j = {1.5};
  const ExportMeta meta{};
  std::ostringstream a;
  std::ostringstream b;
  write_txn_json(a, log, summary, meta);
  write_txn_json(b, log, summary, meta);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TxnSpans, PerMasterTrackWithNestedChildren) {
  EXPECT_EQ(txn_track_tid(0), 2);
  EXPECT_EQ(txn_track_tid(5), 7);

  TraceEventLog spans;
  append_txn_spans(spans, sample_record());
  ASSERT_EQ(spans.size(), 3u);
  const auto& events = spans.events();

  // Outer slice covers [req_tick, end_tick) on the master's track.
  EXPECT_EQ(events[0].name, "INCR4 WR");
  EXPECT_EQ(events[0].category, "txn");
  EXPECT_EQ(events[0].tid, txn_track_tid(1));
  EXPECT_EQ(events[0].start_tick, 10u);
  EXPECT_EQ(events[0].dur_ticks, 8u);
  EXPECT_NE(events[0].args_json.find("\"txn\": 7"), std::string::npos);
  EXPECT_NE(events[0].args_json.find("\"slave\": 2"), std::string::npos);
  EXPECT_NE(events[0].args_json.find("\"energy_j\": 1.5"), std::string::npos);

  // Children nest by containment on the same tid.
  EXPECT_EQ(events[1].name, "arb");
  EXPECT_EQ(events[1].start_tick, 10u);
  EXPECT_EQ(events[1].dur_ticks, 2u);
  EXPECT_EQ(events[1].tid, events[0].tid);
  EXPECT_EQ(events[2].name, "xfer");
  EXPECT_EQ(events[2].start_tick, 12u);
  EXPECT_EQ(events[2].dur_ticks, 6u);
  EXPECT_EQ(events[2].tid, events[0].tid);
}

TEST(TxnSpans, NoArbChildWhenGrantWasImmediate) {
  TxnRecord r = sample_record();
  r.req_tick = r.start_tick;  // no arbitration wait
  r.arb_cycles = 0;
  TraceEventLog spans;
  append_txn_spans(spans, r);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.events()[0].name, "INCR4 WR");
  EXPECT_EQ(spans.events()[1].name, "xfer");
}

TEST(TxnSpans, ReadDirectionInSliceName) {
  TxnRecord r = sample_record();
  r.write = false;
  r.kind = TxnKind::kSingle;
  TraceEventLog spans;
  append_txn_spans(spans, r);
  EXPECT_EQ(spans.events()[0].name, "SINGLE RD");
}

TEST(TxnSpans, ViewRendersLikeTheEventLog) {
  // The view's writer renders slices from the records; it must match
  // write_chrome_trace over the TraceEvents append_txn_spans builds,
  // including records without an arb or xfer child.
  TxnTraceLog log;
  log.add(sample_record());
  TxnRecord immediate = sample_record();
  immediate.id = 8;
  immediate.req_tick = immediate.start_tick;
  log.add(immediate);
  TxnRecord orphan = sample_record();
  orphan.id = 9;
  orphan.kind = TxnKind::kUnknown;
  orphan.req_tick = orphan.start_tick = orphan.end_tick = 30;
  orphan.energy_j = 2.5e-13;
  log.add(orphan);
  TraceEventLog spans;
  for (const TxnRecord& r : log.records()) append_txn_spans(spans, r);
  const TxnSpanView view(log);
  EXPECT_EQ(view.size(), spans.size());
  EXPECT_FALSE(view.empty());

  ExportMeta meta{.tick_ns = 2.5};
  meta.threads.emplace_back(txn_track_tid(1), "m1");
  std::ostringstream from_view;
  std::ostringstream from_log;
  write_chrome_trace(from_view, view, nullptr, meta);
  write_chrome_trace(from_log, spans, nullptr, meta);
  EXPECT_EQ(from_view.str(), from_log.str());
}

}  // namespace
}  // namespace ahbp::telemetry
