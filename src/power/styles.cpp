#include "power/styles.hpp"

#include "power/activity.hpp"
#include "sim/report.hpp"

namespace ahbp::power {

using sim::SimError;

// ---------------------------------------------------------------------------
// PrivatePowerModel

PrivatePowerModel::PrivatePowerModel(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus)
    : PrivatePowerModel(parent, std::move(name), bus,
                        gate::Technology::default_2003()) {}

PrivatePowerModel::PrivatePowerModel(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus, gate::Technology tech)
    : Module(parent, std::move(name)),
      bus_(bus),
      dec_model_(bus.n_slaves(), tech),
      m2s_model_(72, bus.n_masters(), tech),
      s2m_model_(35, bus.n_slaves(), tech),
      arb_model_(bus.n_masters(), tech),
      dec_proc_(this, "dec", [this] { on_decoder_event(); }),
      m2s_proc_(this, "m2s", [this] { on_m2s_event(); }),
      s2m_proc_(this, "s2m", [this] { on_s2m_event(); }) {
  if (!bus.finalized()) {
    throw SimError("PrivatePowerModel: bus must be finalized first");
  }
  ahb::BusSignals& b = bus.bus();
  dec_proc_.sensitive(b.haddr.value_changed_event()).dont_initialize();
  m2s_proc_.sensitive(b.haddr.value_changed_event())
      .sensitive(b.htrans.value_changed_event())
      .sensitive(b.hwrite.value_changed_event())
      .sensitive(b.hwdata.value_changed_event())
      .sensitive(b.hmaster.value_changed_event());
  m2s_proc_.dont_initialize();
  s2m_proc_.sensitive(b.hrdata.value_changed_event())
      .sensitive(b.hready.value_changed_event())
      .sensitive(b.hresp.value_changed_event());
  s2m_proc_.dont_initialize();

  arb_proc_ = std::make_unique<sim::Method>(this, "arb", [this] { on_arbiter_event(); });
  arb_proc_->sensitive(b.hmaster.value_changed_event()).dont_initialize();
  // Request-line changes also wake the arbiter probe.
  // (HBUSREQ lines are master outputs; the arbiter sees them directly.)
  arb_proc_->sensitive(b.hready.value_changed_event());
}

namespace {
/// Address + write data packed with disjoint bit fields (exact HD).
std::uint64_t m2s_data_bundle(const ahb::BusSignals& b) {
  return static_cast<std::uint64_t>(b.haddr.read()) |
         (static_cast<std::uint64_t>(b.hwdata.read()) << 32);
}
std::uint64_t m2s_ctl_bundle(const ahb::BusSignals& b) {
  return static_cast<std::uint64_t>(b.htrans.read()) |
         (static_cast<std::uint64_t>(b.hwrite.read()) << 2);
}
std::uint64_t s2m_bundle(const ahb::BusSignals& b) {
  return static_cast<std::uint64_t>(b.hrdata.read()) |
         (static_cast<std::uint64_t>(b.hresp.read()) << 32) |
         (static_cast<std::uint64_t>(b.hready.read()) << 34);
}
}  // namespace

void PrivatePowerModel::on_decoder_event() {
  ++events_;
  const std::uint32_t addr = bus_.bus().haddr.read();
  blocks_.dec += dec_model_.energy(prev_haddr_, addr);
  prev_haddr_ = addr;
}

void PrivatePowerModel::on_m2s_event() {
  ++events_;
  const ahb::BusSignals& b = bus_.bus();
  const std::uint64_t cur = m2s_data_bundle(b);
  const std::uint64_t ctl = m2s_ctl_bundle(b);
  const std::uint8_t hm = b.hmaster.read();
  const unsigned hd = hamming(prev_m2s_, cur) + hamming(prev_m2s_ctl_, ctl);
  const unsigned hd_sel = hm != prev_hmaster_ ? 2u : 0u;
  blocks_.m2s += m2s_model_.energy(hd, hd_sel, hd);
  prev_m2s_ = cur;
  prev_m2s_ctl_ = ctl;
  prev_hmaster_ = hm;
}

void PrivatePowerModel::on_s2m_event() {
  ++events_;
  const ahb::BusSignals& b = bus_.bus();
  const std::uint64_t cur = s2m_bundle(b);
  const std::uint8_t ds = bus_.pipeline().data_phase_slave().read();
  const unsigned hd = hamming(prev_s2m_, cur);
  const unsigned hd_sel = ds != prev_dslave_ ? 2u : 0u;
  blocks_.s2m += s2m_model_.energy(hd, hd_sel, hd);
  prev_s2m_ = cur;
  prev_dslave_ = ds;
}

void PrivatePowerModel::on_arbiter_event() {
  ++events_;
  const std::uint32_t req = bus_.arbiter().request_vector();
  const bool handover = bus_.bus().hmaster.read() != prev_hmaster_;
  blocks_.arb += arb_model_.energy(hamming(prev_req_, req), handover);
  prev_req_ = req;
}

// ---------------------------------------------------------------------------
// GlobalPowerAnalyzer

GlobalPowerAnalyzer::GlobalPowerAnalyzer(sim::Module* parent, std::string name,
                                         PowerFsm::Config cfg)
    : Module(parent, std::move(name)), fsm_(cfg) {}

void GlobalPowerAnalyzer::post_cycle(const ahb::CycleView& view) { fsm_.step(view); }

}  // namespace ahbp::power
