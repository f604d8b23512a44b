#include "power/cosim.hpp"

#include <cmath>

#include "power/activity.hpp"

namespace ahbp::power {

// ---------------------------------------------------------------------------
// CosimSeries

double CosimSeries::model_total() const {
  double s = 0.0;
  for (double v : model) s += v;
  return s;
}

double CosimSeries::gate_total() const {
  double s = 0.0;
  for (double v : gate) s += v;
  return s;
}

double CosimSeries::correlation() const {
  const std::size_t n = model.size();
  if (n < 2 || gate.size() != n) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += model[i];
    my += gate[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = model[i] - mx;
    const double dy = gate[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double CosimSeries::totals_ratio() const {
  const double g = gate_total();
  return g > 0 ? model_total() / g : 0.0;
}

// ---------------------------------------------------------------------------
// GateLevelCrossCheck

namespace {

/// Gathers one lane-major stimulus bundle (`get(j)` = recorded cycle j's
/// value) into pin-major words: afterwards bit j of tmp[b] is bit b of
/// cycle j's value. Lanes past `lanes` replicate the last recorded value
/// so a partial batch settles quietly: under the lane-shift trick their
/// "previous" assignment equals their current one, so they toggle no
/// nets and contribute no energy to any read-out lane.
template <class Get>
void gather_pins(unsigned lanes, Get&& get,
                 std::uint64_t tmp[gate::BitSim::kLanes]) {
  const std::uint64_t last =
      lanes != 0 ? static_cast<std::uint64_t>(get(lanes - 1)) : 0;
  for (unsigned j = 0; j < gate::BitSim::kLanes; ++j) {
    tmp[j] = j < lanes ? static_cast<std::uint64_t>(get(j)) : last;
  }
  gate::bit_transpose_64x64(tmp);
}

}  // namespace

GateLevelCrossCheck::GateLevelCrossCheck(sim::Module* parent, std::string name,
                                         ahb::AhbBus& bus)
    : GateLevelCrossCheck(parent, std::move(name), bus,
                          gate::Technology::default_2003()) {}

GateLevelCrossCheck::GateLevelCrossCheck(sim::Module* parent, std::string name,
                                         ahb::AhbBus& bus, gate::Technology tech)
    : Module(parent, std::move(name)),
      bus_(bus),
      mux_nl_(gate::build_mux(32, std::max(2u, bus.n_masters()))),
      mux_sim_(mux_nl_.nl, tech, gate::BitSim::Accounting::kPerLane),
      mux_model_(32, std::max(2u, bus.n_masters()), tech),
      prev_master_addr_(bus.n_masters(), 0),
      arb_nl_(gate::build_priority_arbiter(std::max(2u, bus.n_masters()))),
      arb_sim_(arb_nl_.nl, tech, gate::BitSim::Accounting::kPerLane),
      arb_model_(std::max(2u, bus.n_masters()), tech),
      lane_prev_addr_(bus.n_masters(), 0) {
  bus.subscribe(*this);
  pend_addr_.reserve(static_cast<std::size_t>(gate::BitSim::kLanes) *
                     bus.n_masters());
  pend_sel_.reserve(gate::BitSim::kLanes);
  pend_req_.reserve(gate::BitSim::kLanes);
}

const CosimSeries& GateLevelCrossCheck::mux_series() const {
  // Logically const: draining the lane buffer only completes entries the
  // recorded cycles already determine.
  const_cast<GateLevelCrossCheck*>(this)->flush();
  return mux_series_;
}

const CosimSeries& GateLevelCrossCheck::arbiter_series() const {
  const_cast<GateLevelCrossCheck*>(this)->flush();
  return arb_series_;
}

void GateLevelCrossCheck::flush() {
  const unsigned lanes = static_cast<unsigned>(pend_sel_.size());
  if (lanes == 0) return;
  const unsigned n_masters = bus_.n_masters();
  std::uint64_t tmp[gate::BitSim::kLanes];

  // --- address-path mux: 64 cycles as 64 lanes --------------------------
  // Wave 1 (unaccounted) establishes every lane's previous assignment:
  // lane j's predecessor is cycle base+j-1, i.e. lane j-1's current
  // words, so the shifted pin words with the carry bit in lane 0 are
  // exactly the predecessor assignment. Wave 2 accounts the transition.
  pin_words_.clear();
  for (unsigned m = 0; m < n_masters; ++m) {
    gather_pins(lanes, [&](unsigned j) { return pend_addr_[j * n_masters + m]; },
                tmp);
    pin_words_.insert(pin_words_.end(), tmp, tmp + 32);
  }
  const unsigned n_sel = static_cast<unsigned>(mux_nl_.sel.size());
  gather_pins(lanes, [&](unsigned j) { return pend_sel_[j]; }, tmp);
  pin_words_.insert(pin_words_.end(), tmp, tmp + n_sel);

  const auto drive_mux = [&](bool shifted) {
    std::size_t w = 0;
    const auto word = [shifted](std::uint64_t cur, std::uint32_t carry_bit) {
      return shifted ? cur << 1 | carry_bit : cur;
    };
    for (unsigned m = 0; m < n_masters; ++m) {
      for (unsigned bit = 0; bit < 32; ++bit, ++w) {
        mux_sim_.set_input(mux_nl_.data[m][bit],
                           word(pin_words_[w], lane_prev_addr_[m] >> bit & 1u));
      }
    }
    for (unsigned bit = 0; bit < n_sel; ++bit, ++w) {
      mux_sim_.set_input(
          mux_nl_.sel[bit],
          word(pin_words_[w], static_cast<std::uint32_t>(lane_prev_sel_) >> bit & 1u));
    }
  };
  drive_mux(/*shifted=*/true);
  mux_sim_.eval_unaccounted();
  drive_mux(/*shifted=*/false);
  mux_sim_.reset_accounting();
  mux_sim_.eval();
  for (unsigned j = 0; j < lanes; ++j) {
    mux_series_.gate.push_back(mux_sim_.lane_energy(j));
  }
  for (unsigned m = 0; m < n_masters; ++m) {
    lane_prev_addr_[m] = pend_addr_[(lanes - 1) * n_masters + m];
  }
  lane_prev_sel_ = pend_sel_[lanes - 1];

  // --- arbiter ----------------------------------------------------------
  // Sequential, but its post-tick state is a function of the last
  // request vector alone (see characterize_arbiter), so one warm-up tick
  // with the shifted request words puts every lane into its
  // predecessor's post-tick state; the accounted tick then reproduces
  // the per-cycle single-pattern energies exactly.
  gather_pins(lanes, [&](unsigned j) { return pend_req_[j]; }, tmp);
  const auto drive_arb = [&](bool shifted) {
    for (unsigned m = 0; m < n_masters; ++m) {
      arb_sim_.set_input(arb_nl_.req[m],
                         shifted ? tmp[m] << 1 | (lane_prev_req_ >> m & 1u) : tmp[m]);
    }
  };
  drive_arb(/*shifted=*/true);
  arb_sim_.tick();
  drive_arb(/*shifted=*/false);
  arb_sim_.reset_accounting();
  arb_sim_.tick();
  for (unsigned j = 0; j < lanes; ++j) {
    arb_series_.gate.push_back(arb_sim_.lane_energy(j));
  }
  lane_prev_req_ = pend_req_[lanes - 1];

  pend_addr_.clear();
  pend_sel_.clear();
  pend_req_.clear();
}

void GateLevelCrossCheck::post_cycle(const ahb::CycleView& v) {
  ++cycles_;
  const unsigned n_masters = bus_.n_masters();

  // --- address-path mux ---------------------------------------------------
  // Buffer every master's live HADDR and the arbiter's HMASTER as select
  // for the gate mux (its output equals the bus address); the model is
  // charged at once, the gate level when the batch flushes. The view
  // carries only the muxed HADDR; the per-master inputs come from the bus.
  unsigned hd_in = 0;
  const std::uint8_t hm = v.hmaster;
  for (unsigned m = 0; m < n_masters; ++m) {
    const std::uint32_t a = bus_.m2s().input(m).haddr.read();
    if (m == hm) hd_in = hamming(prev_master_addr_[m], a);
    prev_master_addr_[m] = a;
    pend_addr_.push_back(a);
  }

  const std::uint32_t addr_out = v.haddr;
  const unsigned hd_out = hamming(prev_addr_out_, addr_out);
  const unsigned hd_sel = hm != prev_hmaster_ ? 2u : 0u;
  prev_addr_out_ = addr_out;
  prev_hmaster_ = hm;
  mux_series_.model.push_back(mux_model_.energy(hd_in, hd_sel, hd_out));

  // --- arbiter -------------------------------------------------------------
  const std::uint32_t req = v.req_vector;
  const bool handover = hd_sel != 0;
  arb_series_.model.push_back(arb_model_.energy(hamming(prev_req_, req), handover));
  prev_req_ = req;

  pend_sel_.push_back(hm);
  pend_req_.push_back(req);
  if (pend_sel_.size() == gate::BitSim::kLanes) flush();
}

}  // namespace ahbp::power
