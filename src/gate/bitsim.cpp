#include "gate/bitsim.hpp"

#include <bit>
#include <numeric>

#include "power/activity.hpp"
#include "sim/report.hpp"

namespace ahbp::gate {

using sim::SimError;

BitSim::BitSim(const Netlist& nl, Technology tech, Accounting mode)
    : nl_(nl),
      tech_(tech),
      mode_(mode),
      values_(nl.net_count(), 0),
      scratch_(nl.net_count(), 0),
      input_next_(nl.net_count(), 0),
      toggle_counts_(nl.net_count(), 0),
      net_cap_(nl.net_count(), 0.0),
      toggle_energy_(nl.net_count(), 0.0) {
  if (!nl.finalized()) throw SimError("BitSim: netlist not finalized");

  // Same load model as GateSim: intrinsic node cap + one input cap per
  // driven pin + extra load on primary outputs.
  for (NetId n = 0; n < nl.net_count(); ++n) net_cap_[n] = tech_.c_node;
  for (const GateInst& g : nl.gates()) {
    net_cap_[g.in0] += tech_.c_in;
    if (g.in1 != kInvalidNet) net_cap_[g.in1] += tech_.c_in;
  }
  for (NetId n : nl.outputs()) net_cap_[n] += tech_.c_out;
  for (NetId n = 0; n < nl.net_count(); ++n) {
    toggle_energy_[n] = tech_.toggle_energy(net_cap_[n]);
  }

  // Flatten the evaluation order once: the hot loop walks a dense gate
  // array instead of indirecting topo index -> gates() element.
  program_.reserve(nl.topo_order().size());
  for (std::size_t gi : nl.topo_order()) program_.push_back(nl.gates()[gi]);

  if (mode_ == Accounting::kPerLaneToggles) {
    lane_toggle_counts_.assign(nl.net_count() * kLanes, 0);
  }

  // Consistent all-zero-input initial state, free of charge -- mirrors
  // GateSim's constructor settle.
  settle(scratch_);
  account_and_commit(/*account=*/false);
}

void BitSim::fail_not_input() const {
  throw SimError("set_input: net is not a primary input");
}

void BitSim::fail_lane_energy(unsigned lane) const {
  if (lane >= kLanes) throw SimError("lane_energy: lane out of range");
  throw SimError("lane_energy: requires per-lane accounting");
}

void BitSim::set_input_lane(NetId n, unsigned lane, bool v) {
  if (!nl_.is_input(n)) fail_not_input();
  if (lane >= kLanes) throw SimError("set_input_lane: lane out of range");
  const std::uint64_t bit = 1ull << lane;
  if (v) {
    input_next_[n] |= bit;
  } else {
    input_next_[n] &= ~bit;
  }
}

std::uint64_t BitSim::total_toggles() const {
  return std::accumulate(toggle_counts_.begin(), toggle_counts_.end(),
                         std::uint64_t{0});
}

std::uint64_t BitSim::lane_toggles(NetId n, unsigned lane) const {
  if (mode_ != Accounting::kPerLaneToggles) {
    throw SimError("lane_toggles: requires Accounting::kPerLaneToggles");
  }
  if (lane >= kLanes) throw SimError("lane_toggles: lane out of range");
  return lane_toggle_counts_[static_cast<std::size_t>(n) * kLanes + lane];
}

void BitSim::reset_accounting() {
  std::fill(toggle_counts_.begin(), toggle_counts_.end(), 0);
  energy_ = 0.0;
  lane_energy_.fill(0.0);
  std::fill(lane_toggle_counts_.begin(), lane_toggle_counts_.end(), 0);
}

void BitSim::settle(std::vector<std::uint64_t>& next) {
  for (NetId n : nl_.inputs()) next[n] = input_next_[n];
  for (const GateInst& g : program_) {
    const std::uint64_t a = next[g.in0];
    const std::uint64_t b = g.in1 != kInvalidNet ? next[g.in1] : 0;
    std::uint64_t r = 0;
    switch (g.type) {
      case GateType::kNot: r = ~a; break;
      case GateType::kBuf: r = a; break;
      case GateType::kAnd: r = a & b; break;
      case GateType::kOr: r = a | b; break;
      case GateType::kNand: r = ~(a & b); break;
      case GateType::kNor: r = ~(a | b); break;
      case GateType::kXor: r = a ^ b; break;
      case GateType::kXnor: r = ~(a ^ b); break;
      case GateType::kDff: break;  // sequential; excluded from topo order
    }
    next[g.out] = r;
  }
}

// One popcount per toggling net: compiled with and without POPCNT (see
// AHBP_POPCNT_CLONES in power/activity.hpp).
AHBP_POPCNT_CLONES
void BitSim::account_and_commit(bool account) {
  if (account) {
    const NetId n_nets = static_cast<NetId>(nl_.net_count());
    const bool per_lane = mode_ != Accounting::kAggregate;
    const bool track_toggles = mode_ == Accounting::kPerLaneToggles;
    for (NetId n = 0; n < n_nets; ++n) {
      const std::uint64_t mask = scratch_[n] ^ values_[n];
      if (mask == 0) continue;
      const unsigned pc = power::popcount64(mask);
      toggle_counts_[n] += static_cast<std::uint64_t>(pc);
      const double w = toggle_energy_[n];
      energy_ += static_cast<double>(pc) * w;
      if (per_lane) {
        // Per-lane accumulation in net-ascending order reproduces
        // GateSim's accounting scan exactly, so per-lane energy sums
        // round identically to the scalar path.
        std::uint64_t m = mask;
        while (m != 0) {
          const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
          m &= m - 1;
          lane_energy_[lane] += w;
        }
      }
      if (track_toggles) {
        std::uint64_t m = mask;
        std::uint64_t* lt =
            &lane_toggle_counts_[static_cast<std::size_t>(n) * kLanes];
        while (m != 0) {
          ++lt[std::countr_zero(m)];
          m &= m - 1;
        }
      }
    }
  }
  values_.swap(scratch_);
}

void BitSim::eval() {
  scratch_ = values_;
  settle(scratch_);
  account_and_commit(true);
}

void BitSim::eval_unaccounted() {
  scratch_ = values_;
  settle(scratch_);
  account_and_commit(false);
}

void BitSim::tick() {
  // Setup wave: pending inputs propagate to the DFF D pins.
  eval();

  // Clock edge: every DFF output takes its D value, then the new state
  // ripples through the combinational logic.
  scratch_ = values_;
  for (const GateInst& g : nl_.gates()) {
    if (g.type == GateType::kDff) scratch_[g.out] = values_[g.in0];
  }
  settle(scratch_);
  account_and_commit(true);
}

}  // namespace ahbp::gate
