#include "power/analytic.hpp"

#include <cmath>

#include "gate/synth.hpp"

namespace ahbp::power {

AnalyticPowerModel::AnalyticPowerModel(PowerFsm::Config cfg)
    : cfg_(cfg),
      dec_(cfg.n_slaves, cfg.tech),
      m2s_(cfg.addr_width + cfg.control_width + cfg.data_width, cfg.n_masters,
           cfg.tech),
      s2m_(cfg.data_width + 3, cfg.n_slaves, cfg.tech),
      arb_(cfg.n_masters, cfg.tech) {}

BlockEnergy AnalyticPowerModel::blocks_per_cycle(const WorkloadStats& s) const {
  BlockEnergy e;
  // Decoder: E = vdd^2/4 * (nO nI Cpd * HD + 2 Cout * [HD >= 1]); both
  // terms separate under expectation. dec_.energy(1) - dec_.energy(0)
  // isolates the per-HD slope plus the indicator; reconstruct explicitly:
  const double slope = dec_.energy(2) - dec_.energy(1);        // per extra HD bit
  const double indicator = dec_.energy(1) - slope;             // the 2*C_O term
  e.dec = slope * s.hd_addr + indicator * s.p_addr_change;

  // Muxes: fully linear in their features.
  const double m2s_unit_in = m2s_.energy(1, 0, 0);
  const double m2s_unit_sel = m2s_.energy(0, 1, 0);
  const double m2s_unit_out = m2s_.energy(0, 0, 1);
  const double m2s_in = s.hd_addr + s.hd_ctl + s.hd_wdata;
  e.m2s = m2s_unit_in * m2s_in + m2s_unit_sel * s.hd_grant + m2s_unit_out * m2s_in;

  const double s2m_unit_in = s2m_.energy(1, 0, 0);
  const double s2m_unit_sel = s2m_.energy(0, 1, 0);
  const double s2m_unit_out = s2m_.energy(0, 0, 1);
  const double s2m_in = s.hd_rdata + s.hd_resp;
  e.s2m = s2m_unit_in * s2m_in + s2m_unit_sel * s.hd_dslave + s2m_unit_out * s2m_in;

  // Arbiter: e_idle + e_req * HD_req + e_grant * P[handover].
  e.arb = arb_.idle_energy() + arb_.request_energy() * s.hd_req +
          arb_.handover_energy() * s.p_handover;
  return e;
}

double AnalyticPowerModel::energy_per_cycle(const WorkloadStats& s) const {
  return blocks_per_cycle(s).total();
}

namespace {
double mean_of(const Activity& a, const char* name, std::uint64_t cycles) {
  const auto ch = a.find(name);
  if (!ch || cycles == 0) return 0.0;
  return static_cast<double>(a.bit_change_count(*ch)) / static_cast<double>(cycles);
}
double p_nonzero(const Activity& a, const char* name, std::uint64_t cycles) {
  const auto ch = a.find(name);
  if (!ch || cycles == 0) return 0.0;
  return static_cast<double>(a.nonzero_count(*ch)) / static_cast<double>(cycles);
}
}  // namespace

WorkloadStats AnalyticPowerModel::from_activity(const Activity& a,
                                                std::uint64_t cycles,
                                                double p_handover) {
  WorkloadStats s;
  s.hd_addr = mean_of(a, "haddr", cycles);
  s.hd_ctl = mean_of(a, "hcontrol", cycles);
  s.hd_wdata = mean_of(a, "hwdata", cycles);
  s.hd_rdata = mean_of(a, "hrdata", cycles);
  s.hd_resp = mean_of(a, "hresp", cycles);
  s.hd_req = mean_of(a, "hbusreq", cycles);
  s.hd_grant = mean_of(a, "hgrant", cycles);
  // One-hot select: 2 toggling lines per selection change (matches the
  // FSM's indicator treatment of the data-slave channel).
  s.hd_dslave = 2.0 * p_nonzero(a, "data_slave", cycles);
  s.p_addr_change = p_nonzero(a, "haddr", cycles);
  s.p_handover = p_handover;
  return s;
}

WorkloadStats AnalyticPowerModel::assume_random_traffic(double transfer_fraction,
                                                        double write_fraction,
                                                        std::uint32_t addr_window,
                                                        unsigned data_width) {
  // Uniform random word in a 2^k window: expected HD between consecutive
  // addresses is k/2 over the varying bits; payloads flip width/2 bits.
  WorkloadStats s;
  const double addr_bits = std::log2(std::max<std::uint32_t>(addr_window / 4, 2));
  s.hd_addr = transfer_fraction * addr_bits / 2.0;
  s.p_addr_change = transfer_fraction;
  s.hd_ctl = transfer_fraction * 1.0;  // NONSEQ/IDLE + hwrite toggling
  s.hd_wdata = transfer_fraction * write_fraction * data_width / 2.0;
  s.hd_rdata = transfer_fraction * (1.0 - write_fraction) * data_width / 2.0;
  s.hd_resp = transfer_fraction * 0.1;
  s.hd_req = 0.02;
  s.hd_grant = 0.02;
  s.hd_dslave = transfer_fraction * 0.5;
  s.p_handover = 0.01;
  return s;
}

}  // namespace ahbp::power
