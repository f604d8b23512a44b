#include "power/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <sstream>

#include "sim/report.hpp"

namespace ahbp::power {

namespace {

/// Simulated time after `ticks` ticks of `period`.
sim::SimTime tick_time(std::uint64_t ticks, sim::SimTime period) {
  return period * static_cast<std::int64_t>(ticks);
}

std::string fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

bool touches_idle_ho(const std::string& instruction) {
  return instruction.find("IDLE_HO") != std::string::npos;
}

bool is_data_transfer_no_handover(const std::string& instruction) {
  if (touches_idle_ho(instruction)) return false;
  // Transitions whose destination is a transfer mode: READ_WRITE,
  // WRITE_READ, WRITE_WRITE, READ_READ, IDLE_WRITE, IDLE_READ.
  return instruction.ends_with("_READ") || instruction.ends_with("_WRITE");
}

}  // namespace

std::string format_energy(double joules) {
  const double a = std::fabs(joules);
  if (a >= 1e-3) return fixed(joules * 1e3, 3) + " mJ";
  if (a >= 1e-6) return fixed(joules * 1e6, 3) + " uJ";
  if (a >= 1e-9) return fixed(joules * 1e9, 3) + " nJ";
  if (a >= 1e-12) return fixed(joules * 1e12, 2) + " pJ";
  if (a == 0.0) return "0 J";
  return fixed(joules * 1e15, 2) + " fJ";
}

std::string format_power(double watts) {
  const double a = std::fabs(watts);
  if (a >= 1.0) return fixed(watts, 3) + " W";
  if (a >= 1e-3) return fixed(watts * 1e3, 3) + " mW";
  if (a >= 1e-6) return fixed(watts * 1e6, 3) + " uW";
  if (a == 0.0) return "0 W";
  return fixed(watts * 1e9, 3) + " nW";
}

std::vector<InstructionRow> instruction_table(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  std::vector<InstructionRow> rows;
  for (const auto& [name, st] : fsm.instructions()) {
    InstructionRow r;
    r.instruction = name;
    r.count = st.count;
    r.average_j = st.average();
    r.total_j = st.energy;
    r.percent = total > 0 ? 100.0 * st.energy / total : 0.0;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const InstructionRow& a, const InstructionRow& b) {
              return a.total_j > b.total_j;
            });
  return rows;
}

std::string format_instruction_table(const PowerFsm& fsm) {
  std::ostringstream os;
  os << "Instruction            Count      Avg energy    Total energy   Share\n";
  os << "-------------------------------------------------------------------\n";
  for (const InstructionRow& r : instruction_table(fsm)) {
    char line[160];
    std::snprintf(line, sizeof line, "%-20s %9llu %13s %15s %6.2f %%\n",
                  r.instruction.c_str(), static_cast<unsigned long long>(r.count),
                  format_energy(r.average_j).c_str(),
                  format_energy(r.total_j).c_str(), r.percent);
    os << line;
  }
  os << "-------------------------------------------------------------------\n";
  os << "Total simulation energy: " << format_energy(fsm.total_energy()) << " over "
     << fsm.cycles() << " cycles\n";
  return os.str();
}

double data_transfer_share(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  if (total <= 0) return 0.0;
  double e = 0.0;
  for (const auto& [name, st] : fsm.instructions()) {
    if (is_data_transfer_no_handover(name)) e += st.energy;
  }
  return e / total;
}

double arbitration_share(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  if (total <= 0) return 0.0;
  double e = 0.0;
  for (const auto& [name, st] : fsm.instructions()) {
    if (touches_idle_ho(name)) e += st.energy;
  }
  return e / total;
}

std::string format_block_breakdown(const BlockEnergy& blocks) {
  const double total = blocks.total();
  auto pct = [&](double v) { return total > 0 ? 100.0 * v / total : 0.0; };
  std::ostringstream os;
  os << "AHB sub-block energy contribution (paper Fig. 6):\n";
  char line[128];
  std::snprintf(line, sizeof line, "  M2S  %10s  %6.2f %%\n",
                format_energy(blocks.m2s).c_str(), pct(blocks.m2s));
  os << line;
  std::snprintf(line, sizeof line, "  DEC  %10s  %6.2f %%\n",
                format_energy(blocks.dec).c_str(), pct(blocks.dec));
  os << line;
  std::snprintf(line, sizeof line, "  ARB  %10s  %6.2f %%\n",
                format_energy(blocks.arb).c_str(), pct(blocks.arb));
  os << line;
  std::snprintf(line, sizeof line, "  S2M  %10s  %6.2f %%\n",
                format_energy(blocks.s2m).c_str(), pct(blocks.s2m));
  os << line;
  return os.str();
}

std::string format_master_attribution(const PowerFsm& fsm,
                                      const std::vector<std::string>& names) {
  const auto& per = fsm.per_master_energy();
  double total = 0.0;
  for (double e : per) total += e;
  std::ostringstream os;
  os << "Per-master bus energy attribution:\n";
  for (std::size_t m = 0; m < per.size(); ++m) {
    const std::string label =
        m < names.size() ? names[m] : "master " + std::to_string(m);
    char line[128];
    std::snprintf(line, sizeof line, "  %-16s %10s  %6.2f %%\n", label.c_str(),
                  format_energy(per[m]).c_str(),
                  total > 0 ? 100.0 * per[m] / total : 0.0);
    os << line;
  }
  return os.str();
}

std::vector<double> window_energy(const telemetry::WindowSeries& series,
                                  const std::string& block) {
  const std::vector<std::string>& tracks = series.tracks();
  const auto track = std::find(tracks.begin(), tracks.end(), block);
  if (block != "total" && track == tracks.end()) {
    throw sim::SimError("unknown power-trace block '" + block + "'");
  }
  std::vector<double> out;
  out.reserve(series.windows().size());
  for (const auto& w : series.windows()) {
    if (track != tracks.end()) {
      out.push_back(w.values[static_cast<std::size_t>(track - tracks.begin())]);
    } else {
      double total = 0.0;
      for (const double v : w.values) total += v;
      out.push_back(total);
    }
  }
  return out;
}

std::vector<double> window_power(const telemetry::WindowSeries& series,
                                 const std::string& block, sim::SimTime period) {
  if (period <= sim::SimTime::zero()) {
    throw sim::SimError("window_power: the tick period must be positive");
  }
  std::vector<double> power = window_energy(series, block);
  for (std::size_t i = 0; i < power.size(); ++i) {
    power[i] /= tick_time(series.windows()[i].ticks, period).to_seconds();
  }
  return power;
}

void write_trace_csv(std::ostream& os, const telemetry::WindowSeries& series,
                     sim::SimTime period) {
  const std::vector<double> columns[] = {
      window_power(series, "total", period), window_power(series, "arb", period),
      window_power(series, "dec", period), window_power(series, "m2s", period),
      window_power(series, "s2m", period)};
  os << "time_us,p_total_mw,p_arb_mw,p_dec_mw,p_m2s_mw,p_s2m_mw\n";
  for (std::size_t i = 0; i < series.windows().size(); ++i) {
    const sim::SimTime start = tick_time(series.windows()[i].start_tick, period);
    os << static_cast<double>(start.picoseconds()) * 1e-6;
    for (const std::vector<double>& p : columns) os << ',' << p[i] * 1e3;
    os << '\n';
  }
}

void write_instruction_csv(std::ostream& os, const PowerFsm& fsm) {
  os << "instruction,count,avg_pj,total_pj,percent\n";
  for (const InstructionRow& r : instruction_table(fsm)) {
    os << r.instruction << ',' << r.count << ',' << r.average_j * 1e12 << ','
       << r.total_j * 1e12 << ',' << r.percent << '\n';
  }
}

std::string format_activity_report(const Activity& activity) {
  std::ostringstream os;
  os << "Signal switching activity (instrumentation summary):\n";
  os << "  channel        samples     bit changes   mean HD   P(change)\n";
  // Channels are listed by name, not store order, so the report reads
  // the same whichever monitor filled it.
  std::vector<std::size_t> order(activity.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return activity.name(a) < activity.name(b);
  });
  const std::uint64_t samples = activity.sample_count();
  for (const std::size_t i : order) {
    const double p_change =
        samples > 1 ? static_cast<double>(activity.nonzero_count(i)) /
                          static_cast<double>(samples - 1)
                    : 0.0;
    char line[128];
    std::snprintf(line, sizeof line, "  %-12s %9llu %15llu %9.3f %10.3f\n",
                  activity.name(i).c_str(),
                  static_cast<unsigned long long>(samples),
                  static_cast<unsigned long long>(activity.bit_change_count(i)),
                  activity.mean_hd(i), p_change);
    os << line;
  }
  return os.str();
}

std::string format_trace(const telemetry::WindowSeries& series,
                         const std::string& block, sim::SimTime period,
                         sim::SimTime until) {
  const std::vector<double> power = window_power(series, block, period);
  std::ostringstream os;
  os << "time         P_" << block << '\n';
  for (std::size_t i = 0; i < power.size(); ++i) {
    const sim::SimTime start = tick_time(series.windows()[i].start_tick, period);
    if (until > sim::SimTime::zero() && start >= until) break;
    char line[96];
    std::snprintf(line, sizeof line, "%-12s %s\n", start.to_string().c_str(),
                  format_power(power[i]).c_str());
    os << line;
  }
  return os.str();
}

}  // namespace ahbp::power
