#include "ahb/decoder.hpp"

#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

Decoder::Decoder(sim::Module* parent, std::string name, BusSignals& bus)
    : Module(parent, std::move(name)), bus_(bus), selected_(this, "selected", kNoSlave) {}

unsigned Decoder::attach(AddressRange range) {
  if (proc_) throw SimError("decoder: attach after finalize");
  // size == 0 is allowed: such a slave is reachable only as the fallback
  // (the bus's built-in default slave uses this), and overlaps nothing.
  for (const AddressRange& r : ranges_) {
    if (r.overlaps(range)) {
      throw SimError("decoder: overlapping address ranges");
    }
  }
  ranges_.push_back(range);
  return static_cast<unsigned>(ranges_.size() - 1);
}

void Decoder::set_fallback(unsigned slave_index) {
  if (slave_index >= ranges_.size()) throw SimError("decoder: bad fallback index");
  fallback_ = slave_index;
}

void Decoder::finalize() {
  if (proc_) throw SimError("decoder: finalize called twice");
  if (ranges_.empty()) throw SimError("decoder: no slaves attached");
  if (fallback_ == kNoSlave) throw SimError("decoder: fallback slave not set");
  for (unsigned s = 0; s < ranges_.size(); ++s) {
    hsel_.push_back(
        std::make_unique<sim::Signal<bool>>(this, "hsel" + std::to_string(s), false));
  }
  proc_ = std::make_unique<sim::Method>(this, "decode", [this] { decode(); });
  proc_->sensitive(bus_.haddr.value_changed_event());
  // Runs once at initialization too, establishing the reset decode.
}

void Decoder::decode() {
  const std::uint32_t addr = bus_.haddr.read();
  unsigned sel = fallback_;
  for (unsigned s = 0; s < ranges_.size(); ++s) {
    if (ranges_[s].size != 0 && ranges_[s].contains(addr)) {
      sel = s;
      break;
    }
  }
  for (unsigned s = 0; s < ranges_.size(); ++s) {
    hsel_[s]->write(s == sel);
  }
  selected_.write(static_cast<std::uint8_t>(sel));
}

}  // namespace ahbp::ahb
