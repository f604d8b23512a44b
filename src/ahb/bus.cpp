#include "ahb/bus.hpp"

#include "ahb/slave.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

AhbBus::AhbBus(sim::Module* parent, std::string name, sim::Clock& clk)
    : AhbBus(parent, std::move(name), clk, Config{}) {}

AhbBus::AhbBus(sim::Module* parent, std::string name, sim::Clock& clk, Config cfg)
    : Module(parent, std::move(name)),
      clk_(clk),
      cfg_(cfg),
      sig_(this, "sig"),
      arbiter_(this, "arbiter", clk, sig_, cfg.policy, cfg.default_master),
      decoder_(this, "decoder", sig_),
      m2s_(this, "m2s", sig_),
      pipeline_(this, "pipeline", clk, sig_, decoder_),
      s2m_(this, "s2m", sig_, pipeline_.data_phase_slave()) {}

AhbBus::~AhbBus() {
  for (CycleSubscriber* s : subscribers_) s->bus_ = nullptr;
}

unsigned AhbBus::attach_master(MasterSignals& m) {
  if (finalized_) throw SimError("AhbBus: attach_master after finalize");
  const unsigned idx = arbiter_.attach(m.hbusreq);
  m2s_.attach(m);
  return idx;
}

unsigned AhbBus::attach_slave(SlaveSignals& s, AddressRange range) {
  if (finalized_) throw SimError("AhbBus: attach_slave after finalize");
  const unsigned idx = decoder_.attach(range);
  s2m_.attach(s);
  return idx;
}

void AhbBus::finalize() {
  if (finalized_) throw SimError("AhbBus: finalize called twice");
  if (m2s_.n_inputs() == 0) throw SimError("AhbBus: no masters attached");
  // The built-in default slave catches unmapped addresses; constructing
  // it self-attaches as the last slave index.
  default_slave_ = std::make_unique<DefaultSlave>(this, "default_slave", *this);
  decoder_.set_fallback(default_slave_->index());
  arbiter_.finalize();
  decoder_.finalize();
  m2s_.finalize();
  s2m_.finalize();
  finalized_ = true;
}

void AhbBus::subscribe(CycleSubscriber& s) {
  if (!finalized_) throw SimError("AhbBus: subscribe before finalize");
  if (s.bus_ != nullptr) throw SimError("AhbBus: subscriber already subscribed");
  s.bus_ = this;
  subscribers_.push_back(&s);
  if (tap_) return;
  tap_ = std::make_unique<sim::Method>(this, "tap", [this] {
    const CycleView v = sample();
    for (CycleSubscriber* sub : subscribers_) sub->post_cycle(v);
  });
  tap_->sensitive(clk_.negedge_event()).dont_initialize();
}

void AhbBus::unsubscribe(CycleSubscriber& s) {
  std::erase(subscribers_, &s);
  s.bus_ = nullptr;
}

CycleView AhbBus::sample() {
  CycleView v;
  v.haddr = sig_.haddr.read();
  v.htrans = sig_.htrans.read();
  v.hwrite = sig_.hwrite.read();
  v.hsize = sig_.hsize.read();
  v.hburst = sig_.hburst.read();
  v.hwdata = sig_.hwdata.read();
  v.hrdata = sig_.hrdata.read();
  v.hready = sig_.hready.read();
  v.hresp = sig_.hresp.read();
  v.hmaster = sig_.hmaster.read();
  v.hmaster_data = sig_.hmaster_data.read();
  v.data_slave = pipeline_.data_phase_slave().read();
  v.data_active = pipeline_.data_phase_active().read();
  v.data_write = pipeline_.data_phase_write().read();
  // Request and grant vectors, assembled from the arbiter's attachments.
  for (unsigned m = 0; m < n_masters(); ++m) {
    if (arbiter_.hgrant(m).read()) v.grant_vector |= 1u << m;
  }
  v.req_vector = arbiter_.request_vector();
  v.split_vector = arbiter_.split_mask();
  return v;
}

CycleSubscriber::~CycleSubscriber() {
  if (bus_ != nullptr) bus_->unsubscribe(*this);
}

}  // namespace ahbp::ahb
