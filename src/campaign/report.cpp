#include "campaign/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "telemetry/atomic_file.hpp"
#include "telemetry/exporters.hpp"

namespace ahbp::campaign {

using telemetry::json_escape;
using telemetry::json_number;

void write_campaign_json(std::ostream& os,
                         const std::vector<RunOutcome>& outcomes,
                         const CampaignReportMeta& meta) {
  std::size_t failed = 0;
  double sum = 0.0;
  double min_e = 0.0;
  double max_e = 0.0;
  bool any_ok = false;
  for (const RunOutcome& o : outcomes) {
    if (o.status != RunStatus::kOk) {
      ++failed;
      continue;
    }
    const double e = o.report.total_energy;
    if (!any_ok) {
      min_e = max_e = e;
      any_ok = true;
    } else {
      min_e = std::min(min_e, e);
      max_e = std::max(max_e, e);
    }
    sum += e;
  }

  os << "{\n";
  os << "  \"schema\": \"ahbpower.campaign.v4\",\n";
  os << "  \"name\": \"" << json_escape(meta.name) << "\",\n";
  os << "  \"cycles\": " << meta.cycles << ",\n";
  os << "  \"threads\": " << meta.threads << ",\n";
  os << "  \"runs\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"index\": " << o.index << ", \"name\": \""
       << json_escape(o.name) << "\", \"ok\": " << (o.status == RunStatus::kOk ? "true" : "false")
       << ", \"status\": \"" << to_string(o.status) << '"';
    if (o.status != RunStatus::kOk) {
      os << ", \"error\": \"" << json_escape(o.error) << "\"}";
      continue;
    }
    const PowerReport& r = o.report;
    os << ", \"cycles\": " << r.cycles << ", \"transfers\": " << r.transfers
       << ", \"total_energy_j\": " << json_number(r.total_energy)
       << ", \"blocks_j\": {\"arb\": " << json_number(r.blocks.arb)
       << ", \"dec\": " << json_number(r.blocks.dec)
       << ", \"m2s\": " << json_number(r.blocks.m2s)
       << ", \"s2m\": " << json_number(r.blocks.s2m) << "}";
    if (!r.attribution.empty()) {
      // v2 addition: per-master transaction attribution. v1 consumers
      // that ignore unknown keys keep working; all v1 fields remain.
      os << ", \"attribution\": {\"bus_energy_j\": "
         << json_number(r.bus_energy_j) << ", \"masters\": [";
      for (std::size_t m = 0; m < r.attribution.size(); ++m) {
        if (m != 0) os << ", ";
        os << "{\"energy_j\": " << json_number(r.attribution[m].energy_j)
           << ", \"txns\": " << r.attribution[m].txns << "}";
      }
      os << "]}";
    }
    os << ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : r.metrics) {
      if (!first) os << ", ";
      os << '"' << json_escape(key) << "\": " << json_number(value);
      first = false;
    }
    os << "}}";
  }
  os << "\n  ],\n";
  if (failed != 0) {
    // Degraded block: only present when something went wrong, so a
    // fully successful campaign report stays byte-identical across
    // reruns (wall times below are inherently non-deterministic) --
    // and, by the same token, byte-identical after a journal resume.
    // That is why the "resumed" provenance count lives here and not at
    // the top level (docs/ROBUSTNESS.md).
    std::size_t n_failed = 0;
    std::size_t n_timed_out = 0;
    std::size_t n_cancelled = 0;
    std::size_t n_crashed = 0;
    std::size_t n_resumed = 0;
    for (const RunOutcome& o : outcomes) {
      if (o.resumed) ++n_resumed;
      if (o.status == RunStatus::kOk) continue;
      switch (o.status) {
        case RunStatus::kTimedOut: ++n_timed_out; break;
        case RunStatus::kCancelled: ++n_cancelled; break;
        case RunStatus::kCrashed: ++n_crashed; break;
        default: ++n_failed; break;
      }
    }
    os << "  \"degraded\": {\"count\": " << failed
       << ", \"failed\": " << n_failed
       << ", \"timed_out\": " << n_timed_out
       << ", \"cancelled\": " << n_cancelled
       << ", \"crashed\": " << n_crashed
       << ", \"resumed\": " << n_resumed << ", \"runs\": [";
    bool first = true;
    for (const RunOutcome& o : outcomes) {
      if (o.status == RunStatus::kOk) continue;
      os << (first ? "\n" : ",\n");
      first = false;
      os << "    {\"index\": " << o.index << ", \"name\": \""
         << json_escape(o.name) << "\", \"status\": \"" << to_string(o.status)
         << "\", \"signal\": " << o.term_signal
         << ", \"wall_seconds\": " << json_number(o.wall_seconds)
         << ", \"attempts\": " << o.attempts << ", \"error\": \""
         << json_escape(o.error) << "\"}";
    }
    os << "\n  ]},\n";
  }
  os << "  \"aggregate\": {\"runs\": " << outcomes.size()
     << ", \"failed\": " << failed
     << ", \"total_energy_j\": " << json_number(sum)
     << ", \"min_energy_j\": " << json_number(min_e)
     << ", \"max_energy_j\": " << json_number(max_e) << "}\n";
  os << "}\n";
}

void write_campaign_json_file(const std::filesystem::path& path,
                              const std::vector<RunOutcome>& outcomes,
                              const CampaignReportMeta& meta) {
  telemetry::AtomicFile file(path);
  write_campaign_json(file.stream(), outcomes, meta);
  file.commit();
}

}  // namespace ahbp::campaign
