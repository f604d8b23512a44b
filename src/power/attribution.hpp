#pragma once
// Transaction-scoped power attribution.
//
// TransactionTracer observes the same settled per-cycle bus view the
// power FSM consumes and reconstructs every transfer as a span: which
// master owned it, which slave it addressed, how long it waited for the
// grant, how many beats / wait states / BUSY cycles it took, and what
// RETRY / SPLIT / ERROR rework it suffered. EnergyAttributor splits the
// FSM's per-cycle block energies across the live transaction(s) owning
// that cycle -- each block is assigned wholly to exactly one owner, so
// the attributed per-master totals plus the synthetic "bus" owner's
// idle/handover share reproduce PowerFsm::total_energy() within
// floating-point reassociation (checked to 1e-9 by the tests and by
// tools/telemetry_validate on the exported stream).
//
// Ownership rules per cycle (documented in docs/OBSERVABILITY.md):
//   dec, m2s -> address-phase transaction, else data-phase transaction,
//               else bus
//   arb      -> address-phase transaction, else bus
//   s2m      -> data-phase transaction, else bus
// A re-issued transfer after RETRY appears as a new transaction; the
// RETRY response is counted on the transaction that received it.

#include <array>
#include <cstdint>
#include <vector>

#include "power/power_fsm.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/txn_trace.hpp"

namespace ahbp::power {

/// Accumulates attributed energy per master, per slave, and for the
/// synthetic bus owner. Conservation: masters_total() + bus_energy()
/// equals the sum of everything credited.
class EnergyAttributor {
public:
  EnergyAttributor(unsigned n_masters, unsigned n_slaves);

  void credit_master(unsigned m, double e);
  void credit_slave(unsigned s, double e);
  void credit_bus(double e) { bus_energy_ += e; }

  [[nodiscard]] const std::vector<double>& master_energy() const {
    return master_energy_;
  }
  [[nodiscard]] const std::vector<double>& slave_energy() const {
    return slave_energy_;
  }
  [[nodiscard]] double bus_energy() const { return bus_energy_; }
  [[nodiscard]] double masters_total() const;

  void reset();

private:
  std::vector<double> master_energy_;
  std::vector<double> slave_energy_;
  double bus_energy_ = 0.0;
};

/// Reconstructs transactions from per-cycle bus views and attributes
/// per-cycle block energies to them. Feed on_cycle() once per sampled
/// cycle (AhbPowerEstimator does this when Config::txn_trace is set);
/// call flush() after the run to close in-flight transactions.
class TransactionTracer {
public:
  struct Config {
    unsigned n_masters = 0;
    unsigned n_slaves = 0;
    /// Optional metrics sink (not owned; must outlive the tracer).
    /// flush() publishes per-master/per-slave totals; completed
    /// transactions feed the latency histograms live.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  explicit TransactionTracer(Config cfg);

  /// Observes one settled cycle and its per-block energies.
  void on_cycle(const ahb::CycleView& v, const BlockEnergy& e);

  /// Closes in-flight transactions (end = last seen cycle + 1) and
  /// publishes summary metrics (once). Idempotent per run.
  void flush();

  /// Runtime bypass: when disabled, on_cycle returns immediately (the
  /// bench_overhead --txn-guard contract: < 3% overhead).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// @name Results
  ///@{
  [[nodiscard]] const telemetry::TxnTraceLog& log() const { return log_; }
  [[nodiscard]] const EnergyAttributor& attribution() const { return attr_; }
  /// Per-master transaction counts (index = master).
  [[nodiscard]] const std::vector<std::uint64_t>& master_txns() const {
    return master_txns_;
  }
  /// Chrome-trace spans on per-master tracks (telemetry::txn_track_tid):
  /// a view over log() that the writers render straight from the
  /// records, so spans cost nothing per transaction. Valid while the
  /// tracer lives.
  [[nodiscard]] telemetry::TxnSpanView spans() const {
    return telemetry::TxnSpanView(log_);
  }
  /// Attribution totals + per-transaction stream header for the JSON
  /// exporter; total_energy_j is the caller's FSM total.
  [[nodiscard]] telemetry::TxnSummary summary(double total_energy_j) const;
  [[nodiscard]] std::uint64_t cycles() const { return cycle_; }
  ///@}

  [[nodiscard]] const Config& config() const { return cfg_; }

private:
  static constexpr int kNone = -1;
  static constexpr std::int64_t kNoTick = -1;

  struct OpenTxn {
    telemetry::TxnRecord rec;
    bool live = false;
  };

  [[nodiscard]] int start_txn(const ahb::CycleView& v, std::uint64_t cycle);
  void close_txn(int slot, std::uint64_t end_tick);
  /// Credits `e` joules to the open transaction in `slot`, or to the
  /// synthetic bus owner when slot is kNone.
  void assign(double e, int slot);

  Config cfg_;
  bool enabled_ = true;
  bool flushed_ = false;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_id_ = 0;
  bool prev_hready_ = true;

  /// First cycle each master has been continuously requesting while not
  /// owning the address phase (kNoTick = not waiting).
  std::vector<std::int64_t> req_since_;

  /// Open-transaction slots: at most two are live at once (one in the
  /// address phase, one draining its data phase).
  std::array<OpenTxn, 2> open_{};
  int addr_open_ = kNone;
  int data_open_ = kNone;

  telemetry::TxnTraceLog log_;
  EnergyAttributor attr_;
  std::vector<std::uint64_t> master_txns_;

  telemetry::Histogram* h_arb_ = nullptr;
  telemetry::Histogram* h_wait_ = nullptr;
  telemetry::Counter* c_txns_ = nullptr;
};

}  // namespace ahbp::power
