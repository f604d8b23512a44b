#include "tlm/multilayer.hpp"

#include <algorithm>

#include "sim/report.hpp"

namespace ahbp::tlm {

using sim::SimError;

MultilayerBus::MultilayerBus(Config cfg) {
  if (cfg.n_masters < 1) throw SimError("MultilayerBus: need >= 1 master");
  for (unsigned m = 0; m < cfg.n_masters; ++m) {
    // Each layer carries one master; the power FSM wants >= 2 mux
    // inputs, so model the layer's input stage as a 2-input structure
    // (master + the slave-side arbitration path).
    layers_.push_back(
        std::make_unique<TlmBus>(TlmBus::Config{.n_masters = 2, .tech = cfg.tech}));
  }
}

void MultilayerBus::map(TlmSlave& slave, std::uint32_t base, std::uint32_t size) {
  for (const auto& layer : layers_) layer->map(slave, base, size);
  busy_until_.push_back(0);
}

template <typename Access>
bool MultilayerBus::transfer(unsigned master, std::uint32_t addr, Access access) {
  TlmBus& layer = *layers_.at(master);
  const std::optional<std::size_t> slave = layer.slave_index(addr);
  if (!slave) return access(layer);  // the layer's unmapped-address ERROR

  // Same-slave contention: wait until the slave's input stage frees up.
  std::uint64_t& busy_until = busy_until_[*slave];
  if (busy_until > layer.cycles()) {
    const std::uint64_t stall = busy_until - layer.cycles();
    contention_ += stall;
    layer.idle(stall);
  }
  access(layer);
  busy_until = layer.cycles();  // slave occupied until this completes
  return true;
}

bool MultilayerBus::read(unsigned master, std::uint32_t addr, std::uint32_t& data) {
  return transfer(master, addr,
                  [&](TlmBus& layer) { return layer.read(0, addr, data); });
}

bool MultilayerBus::write(unsigned master, std::uint32_t addr, std::uint32_t data) {
  return transfer(master, addr,
                  [&](TlmBus& layer) { return layer.write(0, addr, data); });
}

std::uint64_t MultilayerBus::cycles() const {
  std::uint64_t max = 0;
  for (const auto& layer : layers_) max = std::max(max, layer->cycles());
  return max;
}

double MultilayerBus::total_energy() const {
  double e = 0.0;
  for (const auto& layer : layers_) e += layer->total_energy();
  return e;
}

std::uint64_t MultilayerBus::transfers() const {
  std::uint64_t n = 0;
  for (const auto& layer : layers_) n += layer->transfers();
  return n;
}

}  // namespace ahbp::tlm
