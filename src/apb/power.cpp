#include "apb/power.hpp"

#include "sim/report.hpp"

namespace ahbp::apb {

namespace {
std::vector<std::string> channel_names(unsigned n_peripherals) {
  std::vector<std::string> names{"paddr", "pwdata"};
  for (unsigned s = 0; s < n_peripherals; ++s) {
    names.push_back("prdata" + std::to_string(s));
  }
  names.emplace_back("strobes");
  return names;
}
}  // namespace

ApbPowerModel::ApbPowerModel(unsigned n_peripherals, gate::Technology tech)
    : tech_(tech) {
  if (n_peripherals == 0) {
    throw sim::SimError("ApbPowerModel: need at least one peripheral");
  }
  // Each data/address wire drives one input pin per peripheral plus the
  // route itself (modeled as c_out-class load).
  c_wire_ = tech.c_out + n_peripherals * tech.c_in;
  // Strobes fan out the same way.
  c_strobe_ = tech.c_out + n_peripherals * tech.c_in;
}

double ApbPowerModel::energy(unsigned hd_data, unsigned hd_strobes) const {
  const double vdd2_2 = tech_.vdd * tech_.vdd / 2.0;
  return vdd2_2 * (c_wire_ * hd_data + c_strobe_ * hd_strobes);
}

ApbPowerMonitor::ApbPowerMonitor(sim::Module* parent, std::string name,
                                 AhbToApbBridge& bridge)
    : ApbPowerMonitor(parent, std::move(name), bridge,
                      gate::Technology::default_2003()) {}

ApbPowerMonitor::ApbPowerMonitor(sim::Module* parent, std::string name,
                                 AhbToApbBridge& bridge, gate::Technology tech)
    : Module(parent, std::move(name)),
      bridge_(bridge),
      model_(bridge.n_peripherals() == 0 ? 1 : bridge.n_peripherals(), tech),
      activity_(channel_names(bridge.n_peripherals())),
      vals_(activity_.size(), 0),
      hd_(activity_.size(), 0),
      proc_(this, "sample", [this] { on_cycle(); }) {
  proc_.sensitive(bridge.clock().negedge_event()).dont_initialize();
}

void ApbPowerMonitor::on_cycle() {
  ++cycles_;
  const ApbMasterSignals& m = bridge_.apb();
  const unsigned n = static_cast<unsigned>(activity_.size()) - 3;  // prdata<s>
  vals_[0] = m.paddr.read();
  vals_[1] = m.pwdata.read();
  // PRDATA switching, per peripheral driver.
  for (unsigned s = 0; s < n; ++s) {
    vals_[2 + s] = bridge_.peripheral(s).prdata.read();
  }
  // Strobe bundle: PENABLE, PWRITE and the PSEL lines.
  std::uint64_t strobes = m.penable.read() ? 1u : 0u;
  strobes |= m.pwrite.read() ? 2u : 0u;
  for (unsigned s = 0; s < n; ++s) {
    strobes |= (bridge_.psel(s).read() ? 1ull : 0ull) << (2 + s);
  }
  vals_[2 + n] = strobes;
  activity_.store_all(vals_.data(), hd_.data());

  unsigned hd_data = 0;
  for (unsigned i = 0; i < 2 + n; ++i) hd_data += hd_[i];
  energy_ += model_.energy(hd_data, hd_[2 + n]);
}

}  // namespace ahbp::apb
