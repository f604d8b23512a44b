#include "tlm/multilayer.hpp"

#include <algorithm>

#include "sim/report.hpp"

namespace ahbp::tlm {

using sim::SimError;

MultilayerBus::MultilayerBus(Config cfg) : cfg_(cfg) {
  if (cfg.n_masters < 1) throw SimError("MultilayerBus: need >= 1 master");
  layers_.resize(cfg.n_masters);
  for (Layer& l : layers_) {
    // Each layer is a 1-master fabric; the power FSM wants >= 2 mux
    // inputs, so model the layer's input stage as a 2-input structure
    // (master + the slave-side arbitration path).
    l.fsm = std::make_unique<power::PowerFsm>(
        power::PowerFsm::Config{.n_masters = 2, .n_slaves = 4, .tech = cfg.tech});
  }
}

void MultilayerBus::map(TlmSlave& slave, std::uint32_t base, std::uint32_t size) {
  if (size == 0) throw SimError("MultilayerBus: empty slave range");
  for (const Mapping& m : map_) {
    if (base < m.base + m.size && m.base < base + size) {
      throw SimError("MultilayerBus: overlapping slave ranges");
    }
  }
  map_.push_back(Mapping{base, size, &slave});
}

MultilayerBus::Mapping* MultilayerBus::decode(std::uint32_t addr) {
  for (Mapping& m : map_) {
    if (addr >= m.base && addr - m.base < m.size) return &m;
  }
  return nullptr;
}

bool MultilayerBus::transfer(unsigned master, std::uint32_t addr, bool write,
                             std::uint32_t& data) {
  Layer& layer = layers_.at(master);
  Mapping* m = decode(addr);
  if (m == nullptr) {
    ++errors_;
    layer.cycles += 2;
    return false;
  }

  // Same-slave contention: wait until the slave's input stage frees up.
  if (m->busy_until > layer.cycles) {
    const std::uint64_t stall = m->busy_until - layer.cycles;
    contention_ += stall;
    ahb::CycleView idle_v;
    idle_v.grant_vector = 1;
    layer.fsm->step_repeated(idle_v, stall);
    layer.cycles += stall;
  }

  const unsigned waits =
      write ? m->slave->write(addr - m->base, data) : m->slave->read(addr - m->base, data);

  // Account on this layer's fabric.
  ahb::CycleView v;
  v.haddr = addr;
  v.htrans = 2;
  v.hwrite = write;
  v.data_active = true;
  v.data_write = write;
  v.data_slave = static_cast<std::uint8_t>(m - map_.data());
  v.grant_vector = 1;
  v.req_vector = 1;
  if (write) {
    v.hwdata = data;
  } else {
    v.hrdata = data;
  }
  for (unsigned w = 0; w < waits; ++w) {
    ahb::CycleView stall = v;
    stall.hready = false;
    layer.fsm->step(stall);
    ++layer.cycles;
  }
  layer.fsm->step(v);
  ++layer.cycles;
  m->busy_until = layer.cycles;  // slave occupied until this completes
  ++transfers_;
  return true;
}

bool MultilayerBus::read(unsigned master, std::uint32_t addr, std::uint32_t& data) {
  return transfer(master, addr, false, data);
}

bool MultilayerBus::write(unsigned master, std::uint32_t addr, std::uint32_t data) {
  return transfer(master, addr, true, data);
}

void MultilayerBus::idle(unsigned master, unsigned n) {
  Layer& layer = layers_.at(master);
  ahb::CycleView v;
  v.grant_vector = 1;
  layer.fsm->step_repeated(v, n);
  layer.cycles += n;
}

std::uint64_t MultilayerBus::cycles() const {
  std::uint64_t max = 0;
  for (const Layer& l : layers_) max = std::max(max, l.cycles);
  return max;
}

double MultilayerBus::total_energy() const {
  double e = 0.0;
  for (const Layer& l : layers_) e += l.fsm->total_energy();
  return e;
}

}  // namespace ahbp::tlm
