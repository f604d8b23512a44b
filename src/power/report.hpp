#pragma once
// Result rendering: the paper's Table 1 (per-instruction energy), the
// Fig. 6 sub-block breakdown, windowed power traces as CSV/series, and the
// data-path-vs-arbitration energy split the paper's conclusion rests on.

#include <iosfwd>
#include <string>
#include <vector>

#include "power/power_fsm.hpp"
#include "sim/time.hpp"
#include "telemetry/window.hpp"

namespace ahbp::power {

/// One row of the Table-1-style report.
struct InstructionRow {
  std::string instruction;
  std::uint64_t count = 0;
  double average_j = 0.0;  ///< average energy per execution [J]
  double total_j = 0.0;    ///< total energy [J]
  double percent = 0.0;    ///< of the whole simulation energy
};

/// Builds the instruction table, sorted by descending total energy.
[[nodiscard]] std::vector<InstructionRow> instruction_table(const PowerFsm& fsm);

/// Renders the table in the paper's format (average / total / percent).
[[nodiscard]] std::string format_instruction_table(const PowerFsm& fsm);

/// Fraction of total energy spent in data-transfer instructions with no
/// bus handover (transitions between READ/WRITE modes, plus entering a
/// transfer from plain IDLE). The paper reports ~87% for its testbench.
[[nodiscard]] double data_transfer_share(const PowerFsm& fsm);

/// Fraction of total energy in arbitration-related instructions (any
/// instruction touching the IDLE_HO mode). The paper reports ~13%.
[[nodiscard]] double arbitration_share(const PowerFsm& fsm);

/// Renders the Fig. 6 sub-block contribution breakdown (M2S / DEC /
/// ARB / S2M percentages).
[[nodiscard]] std::string format_block_breakdown(const BlockEnergy& blocks);

/// Renders the per-master energy attribution (who owns the bus when the
/// energy is burned) -- the per-IP budget view. `names[i]` labels master
/// i; missing names fall back to "master <i>".
[[nodiscard]] std::string format_master_attribution(
    const PowerFsm& fsm, const std::vector<std::string>& names = {});

/// One block's energy per window of `series` [J]. `block` is "total"
/// (the sum of all tracks) or a track name; any other name throws
/// sim::SimError.
[[nodiscard]] std::vector<double> window_energy(
    const telemetry::WindowSeries& series, const std::string& block);

/// One block's average power per window [W]: its energy divided by the
/// window's duration, w.ticks x `period` (one tick per bus cycle of
/// `period`; the flushed final window may cover fewer ticks). Same rule
/// as the p_total_w column of telemetry::write_window_csv.
[[nodiscard]] std::vector<double> window_power(
    const telemetry::WindowSeries& series, const std::string& block,
    sim::SimTime period);

/// Writes the estimator's window series (tracks arb/dec/m2s/s2m, ticked
/// in bus cycles of `period`) as a power trace CSV: time_us, p_total_mw,
/// p_arb_mw, p_dec_mw, p_m2s_mw, p_s2m_mw.
void write_trace_csv(std::ostream& os, const telemetry::WindowSeries& series,
                     sim::SimTime period);

/// Writes the instruction table as CSV: instruction, count, avg_pj,
/// total_pj, percent.
void write_instruction_csv(std::ostream& os, const PowerFsm& fsm);

/// Renders the per-signal switching-activity summary gathered by the
/// instrumentation (mean HD, total bit changes, change probability per
/// monitored channel).
[[nodiscard]] std::string format_activity_report(const Activity& activity);

/// Renders one block's power series as a compact fixed-width listing
/// (used by the figure benches). `block` selects "total" or a track of
/// `series` (window_energy() rules); `period` is the simulated time per
/// tick; `until` truncates the series (zero = everything).
[[nodiscard]] std::string format_trace(const telemetry::WindowSeries& series,
                                       const std::string& block,
                                       sim::SimTime period,
                                       sim::SimTime until = sim::SimTime::zero());

/// Pretty-prints an energy in engineering units (pJ/nJ/uJ).
[[nodiscard]] std::string format_energy(double joules);
/// Pretty-prints a power in engineering units (uW/mW).
[[nodiscard]] std::string format_power(double watts);

}  // namespace ahbp::power
