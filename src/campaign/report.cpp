#include "campaign/report.hpp"

#include <algorithm>
#include <ostream>

#include "telemetry/atomic_file.hpp"
#include "telemetry/exporters.hpp"

namespace ahbp::campaign {

using telemetry::append;
using telemetry::JsonEscaped;

namespace {

std::string campaign_json(const std::vector<RunOutcome>& outcomes,
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

  std::string out;
  out.reserve(512 + outcomes.size() * 512);
  append(out, "{\n  \"schema\": \"ahbpower.campaign.v4\",\n  \"name\": \"",
         JsonEscaped{meta.name}, "\",\n  \"cycles\": ", meta.cycles,
         ",\n  \"threads\": ", meta.threads, ",\n  \"runs\": [");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    append(out, i == 0 ? "\n" : ",\n", "    {\"index\": ", o.index,
           ", \"name\": \"", JsonEscaped{o.name}, "\", \"ok\": ",
           o.status == RunStatus::kOk ? "true" : "false", ", \"status\": \"",
           to_string(o.status), '"');
    if (o.status != RunStatus::kOk) {
      append(out, ", \"error\": \"", JsonEscaped{o.error}, "\"}");
      continue;
    }
    const PowerReport& r = o.report;
    append(out, ", \"cycles\": ", r.cycles, ", \"transfers\": ", r.transfers,
           ", \"total_energy_j\": ", r.total_energy,
           ", \"blocks_j\": {\"arb\": ", r.blocks.arb,
           ", \"dec\": ", r.blocks.dec, ", \"m2s\": ", r.blocks.m2s,
           ", \"s2m\": ", r.blocks.s2m, '}');
    if (!r.attribution.empty()) {
      // v2 addition: per-master transaction attribution. v1 consumers
      // that ignore unknown keys keep working; all v1 fields remain.
      append(out, ", \"attribution\": {\"bus_energy_j\": ", r.bus_energy_j,
             ", \"masters\": [");
      for (std::size_t m = 0; m < r.attribution.size(); ++m) {
        if (m != 0) out += ", ";
        append(out, "{\"energy_j\": ", r.attribution[m].energy_j,
               ", \"txns\": ", r.attribution[m].txns, '}');
      }
      out += "]}";
    }
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : r.metrics) {
      if (!first) out += ", ";
      append(out, '"', JsonEscaped{key}, "\": ", value);
      first = false;
    }
    out += "}}";
  }
  out += "\n  ],\n";
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
    append(out, "  \"degraded\": {\"count\": ", failed,
           ", \"failed\": ", n_failed, ", \"timed_out\": ", n_timed_out,
           ", \"cancelled\": ", n_cancelled, ", \"crashed\": ", n_crashed,
           ", \"resumed\": ", n_resumed, ", \"runs\": [");
    bool first = true;
    for (const RunOutcome& o : outcomes) {
      if (o.status == RunStatus::kOk) continue;
      append(out, first ? "\n" : ",\n", "    {\"index\": ", o.index,
             ", \"name\": \"", JsonEscaped{o.name}, "\", \"status\": \"",
             to_string(o.status), "\", \"signal\": ", o.term_signal,
             ", \"wall_seconds\": ", o.wall_seconds,
             ", \"attempts\": ", o.attempts, ", \"error\": \"",
             JsonEscaped{o.error}, "\"}");
      first = false;
    }
    out += "\n  ]},\n";
  }
  append(out, "  \"aggregate\": {\"runs\": ", outcomes.size(),
         ", \"failed\": ", failed, ", \"total_energy_j\": ", sum,
         ", \"min_energy_j\": ", min_e, ", \"max_energy_j\": ", max_e,
         "}\n}\n");
  return out;
}

}  // namespace

void write_campaign_json(std::ostream& os,
                         const std::vector<RunOutcome>& outcomes,
                         const CampaignReportMeta& meta) {
  os << campaign_json(outcomes, meta);
}

void write_campaign_json_file(const std::filesystem::path& path,
                              const std::vector<RunOutcome>& outcomes,
                              const CampaignReportMeta& meta) {
  telemetry::AtomicFile::publish(path, campaign_json(outcomes, meta));
}

}  // namespace ahbp::campaign
