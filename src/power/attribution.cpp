#include "power/attribution.hpp"

#include <algorithm>

#include "ahb/types.hpp"

namespace ahbp::power {

// ---------------------------------------------------------------------------
// EnergyAttributor

EnergyAttributor::EnergyAttributor(unsigned n_masters, unsigned n_slaves)
    : master_energy_(n_masters, 0.0), slave_energy_(n_slaves, 0.0) {}

void EnergyAttributor::credit_master(unsigned m, double e) {
  if (m < master_energy_.size()) {
    master_energy_[m] += e;
  } else {
    bus_energy_ += e;  // out-of-range owner: keep the sum conserved
  }
}

void EnergyAttributor::credit_slave(unsigned s, double e) {
  // Slave credit is a secondary view (the same joules already credited
  // to a master); out-of-range simply drops out of the per-slave table.
  if (s < slave_energy_.size()) slave_energy_[s] += e;
}

double EnergyAttributor::masters_total() const {
  double t = 0.0;
  for (const double e : master_energy_) t += e;
  return t;
}

void EnergyAttributor::reset() {
  std::fill(master_energy_.begin(), master_energy_.end(), 0.0);
  std::fill(slave_energy_.begin(), slave_energy_.end(), 0.0);
  bus_energy_ = 0.0;
}

// ---------------------------------------------------------------------------
// TransactionTracer

TransactionTracer::TransactionTracer(Config cfg)
    : cfg_(cfg),
      req_since_(cfg.n_masters, kNoTick),
      attr_(cfg.n_masters, cfg.n_slaves),
      master_txns_(cfg.n_masters, 0) {
  if (cfg_.metrics != nullptr) {
    h_arb_ = &cfg_.metrics->histogram("ahb.txn.arb_latency_cycles",
                                      {0, 1, 2, 5, 10, 20, 50, 100});
    h_wait_ = &cfg_.metrics->histogram("ahb.txn.wait_cycles",
                                       {0, 1, 2, 5, 10, 20, 50, 100});
    c_txns_ = &cfg_.metrics->counter("ahb.txn.count");
  }
}

int TransactionTracer::start_txn(const ahb::CycleView& v, std::uint64_t cycle) {
  int slot = kNone;
  for (int i = 0; i < 2; ++i) {
    if (!open_[static_cast<std::size_t>(i)].live) {
      slot = i;
      break;
    }
  }
  if (slot == kNone) {
    // Both slots live: the non-data one is a stale address-phase
    // transaction that never reached its data phase -- close it.
    slot = (data_open_ == 0) ? 1 : 0;
    if (addr_open_ == slot) addr_open_ = kNone;
    close_txn(slot, cycle);
  }

  OpenTxn& o = open_[static_cast<std::size_t>(slot)];
  o.rec = telemetry::TxnRecord{};
  o.rec.id = next_id_++;
  o.rec.master = v.hmaster;
  o.rec.slave = 0xFF;
  o.rec.kind = static_cast<telemetry::TxnKind>(v.hburst & 7);
  o.rec.write = v.hwrite;
  o.rec.start_tick = cycle;
  if (v.hmaster < req_since_.size() &&
      req_since_[v.hmaster] != kNoTick &&
      static_cast<std::uint64_t>(req_since_[v.hmaster]) <= cycle) {
    o.rec.req_tick = static_cast<std::uint64_t>(req_since_[v.hmaster]);
    o.rec.arb_cycles = cycle - o.rec.req_tick;
    req_since_[v.hmaster] = kNoTick;
  } else {
    o.rec.req_tick = cycle;
    o.rec.arb_cycles = 0;
  }
  o.live = true;
  return slot;
}

void TransactionTracer::close_txn(int slot, std::uint64_t end_tick) {
  OpenTxn& o = open_[static_cast<std::size_t>(slot)];
  if (!o.live) return;
  o.rec.end_tick = std::max(end_tick, o.rec.start_tick + 1);
  if (o.rec.slave != 0xFF) attr_.credit_slave(o.rec.slave, o.rec.energy_j);
  if (o.rec.master < master_txns_.size()) ++master_txns_[o.rec.master];
  if (c_txns_ != nullptr) c_txns_->increment();
  if (h_arb_ != nullptr) {
    h_arb_->observe(static_cast<double>(o.rec.arb_cycles));
  }
  if (h_wait_ != nullptr) {
    h_wait_->observe(static_cast<double>(o.rec.wait_cycles));
  }
  log_.add(o.rec);
  o.live = false;
}

void TransactionTracer::assign(double e, int slot) {
  if (slot != kNone) {
    OpenTxn& o = open_[static_cast<std::size_t>(slot)];
    o.rec.energy_j += e;
    attr_.credit_master(o.rec.master, e);
  } else {
    attr_.credit_bus(e);
  }
}

void TransactionTracer::on_cycle(const ahb::CycleView& v, const BlockEnergy& e) {
  if (!enabled_) return;
  const std::uint64_t cycle = cycle_++;
  const auto t = static_cast<ahb::Trans>(v.htrans & 3);

  // --- arbitration wait tracking ----------------------------------------
  // First cycle each non-owner has been continuously requesting; cleared
  // when the request drops, consumed when its transfer starts.
  for (unsigned m = 0; m < cfg_.n_masters; ++m) {
    const bool requesting = ((v.req_vector >> m) & 1u) != 0;
    if (!requesting) {
      req_since_[m] = kNoTick;
    } else if (m != v.hmaster && req_since_[m] == kNoTick) {
      req_since_[m] = static_cast<std::int64_t>(cycle);
    }
  }

  // --- transaction start / burst continuation ---------------------------
  const bool held = !prev_hready_;  // addr phase did not advance into here
  if (t == ahb::Trans::kNonSeq) {
    // A NONSEQ held across wait states is the same beat; anything else
    // opens a new transaction (including a RETRY/SPLIT re-issue).
    const bool same_held_beat =
        held && addr_open_ != kNone &&
        open_[static_cast<std::size_t>(addr_open_)].rec.master == v.hmaster;
    if (!same_held_beat) addr_open_ = start_txn(v, cycle);
  } else if ((t == ahb::Trans::kSeq || t == ahb::Trans::kBusy) &&
             addr_open_ == kNone && data_open_ != kNone &&
             open_[static_cast<std::size_t>(data_open_)].rec.master ==
                 v.hmaster) {
    // Burst continuation re-entering the address phase.
    addr_open_ = data_open_;
  }

  // --- phase ownership this cycle ---------------------------------------
  const int a_slot = (addr_open_ != kNone && t != ahb::Trans::kIdle)
                         ? addr_open_
                         : kNone;
  int d_slot = kNone;
  if (v.data_active) {
    if (data_open_ == kNone) {
      // Orphan data phase (tracer attached mid-transfer): synthesize a
      // record from the data-phase owner so the beat is still attributed.
      data_open_ = start_txn(v, cycle);
      OpenTxn& o = open_[static_cast<std::size_t>(data_open_)];
      o.rec.master = v.hmaster_data;
      o.rec.kind = telemetry::TxnKind::kUnknown;
      o.rec.write = v.data_write;
    }
    d_slot = data_open_;
  }

  // --- per-transaction cycle accounting ---------------------------------
  if (a_slot != kNone) {
    OpenTxn& a = open_[static_cast<std::size_t>(a_slot)];
    ++a.rec.addr_cycles;
    if (t == ahb::Trans::kBusy) ++a.rec.busy_cycles;
  }
  if (d_slot != kNone) {
    OpenTxn& d = open_[static_cast<std::size_t>(d_slot)];
    if (d.rec.slave == 0xFF && v.data_slave != 0xFF) d.rec.slave = v.data_slave;
    if (v.hready) {
      switch (static_cast<ahb::Resp>(v.hresp & 3)) {
        case ahb::Resp::kOkay: ++d.rec.data_beats; break;
        case ahb::Resp::kError: ++d.rec.errors; break;
        case ahb::Resp::kRetry: ++d.rec.retries; break;
        case ahb::Resp::kSplit: ++d.rec.splits; break;
      }
    } else {
      ++d.rec.wait_cycles;
    }
  }

  // --- block-wise energy attribution ------------------------------------
  // Each block's joules go wholly to one owner, so the per-cycle sum --
  // and therefore the run total -- is conserved exactly.
  assign(e.dec, a_slot != kNone ? a_slot : d_slot);
  assign(e.m2s, a_slot != kNone ? a_slot : d_slot);
  assign(e.arb, a_slot);
  assign(e.s2m, d_slot);

  // --- pipeline advance --------------------------------------------------
  if (v.hready) {
    const int next_data =
        (addr_open_ != kNone && ahb::is_active(t)) ? addr_open_ : kNone;
    if (data_open_ != kNone && data_open_ != next_data) {
      // BUSY inserts an empty data beat but the burst continues; any
      // other mismatch means the data-phase transaction just finished.
      const bool busy_hold =
          t == ahb::Trans::kBusy && addr_open_ == data_open_;
      if (!busy_hold) {
        if (addr_open_ == data_open_) addr_open_ = kNone;
        close_txn(data_open_, cycle + 1);
        data_open_ = kNone;
      }
    }
    if (next_data != kNone) data_open_ = next_data;
  }
  prev_hready_ = v.hready;
}

void TransactionTracer::flush() {
  if (flushed_) return;
  // Close in start order for a deterministic tail.
  std::array<int, 2> live{};
  int n = 0;
  for (int i = 0; i < 2; ++i) {
    if (open_[static_cast<std::size_t>(i)].live) live[static_cast<std::size_t>(n++)] = i;
  }
  if (n == 2 && open_[static_cast<std::size_t>(live[0])].rec.id >
                    open_[static_cast<std::size_t>(live[1])].rec.id) {
    std::swap(live[0], live[1]);
  }
  for (int i = 0; i < n; ++i) close_txn(live[static_cast<std::size_t>(i)], cycle_);
  addr_open_ = data_open_ = kNone;

  if (cfg_.metrics != nullptr) {
    telemetry::MetricsRegistry& reg = *cfg_.metrics;
    reg.gauge("ahb.txn.bus_energy_j").set(attr_.bus_energy());
    for (unsigned m = 0; m < cfg_.n_masters; ++m) {
      const std::string base = "ahb.txn.master." + std::to_string(m);
      reg.counter(base + ".count").add(master_txns_[m]);
      reg.gauge(base + ".energy_j").set(attr_.master_energy()[m]);
    }
    for (unsigned s = 0; s < cfg_.n_slaves; ++s) {
      reg.gauge("ahb.txn.slave." + std::to_string(s) + ".energy_j")
          .set(attr_.slave_energy()[s]);
    }
  }
  flushed_ = true;
}

telemetry::TxnSummary TransactionTracer::summary(double total_energy_j) const {
  telemetry::TxnSummary s;
  s.total_energy_j = total_energy_j;
  s.bus_energy_j = attr_.bus_energy();
  s.master_energy_j = attr_.master_energy();
  s.master_txns = master_txns_;
  s.slave_energy_j = attr_.slave_energy();
  return s;
}

}  // namespace ahbp::power
