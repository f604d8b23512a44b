#include "tlm/tlm.hpp"

#include "ahb/types.hpp"
#include "sim/report.hpp"

namespace ahbp::tlm {

using sim::SimError;

// ---------------------------------------------------------------------------
// TlmBus

TlmBus::TlmBus(Config cfg)
    : cfg_(cfg),
      fsm_(power::PowerFsm::Config{.n_masters = cfg.n_masters,
                                   .n_slaves = 4,
                                   .tech = cfg.tech}) {}

void TlmBus::map(TlmSlave& slave, std::uint32_t base, std::uint32_t size) {
  if (size == 0) throw SimError("TlmBus: empty slave range");
  for (const Mapping& m : map_) {
    if (ahb::AddressRange{base, size}.overlaps({m.base, m.size})) {
      throw SimError("TlmBus: overlapping slave ranges");
    }
  }
  map_.push_back(Mapping{base, size, &slave});
}

const TlmBus::Mapping* TlmBus::decode(std::uint32_t addr) const {
  for (const Mapping& m : map_) {
    if (addr >= m.base && addr - m.base < m.size) return &m;
  }
  return nullptr;
}

void TlmBus::account_transfer(unsigned master, std::uint32_t addr, bool write,
                              std::uint32_t data, unsigned wait_cycles,
                              std::uint8_t slave_index) {
  // Synthesize the cycle views the cycle-accurate monitor would have
  // sampled: wait cycles repeat the same data phase, then one completing
  // cycle carries the payload.
  ahb::CycleView v;
  v.haddr = addr;
  v.htrans = 2;  // NONSEQ
  v.hwrite = write;
  v.data_active = true;
  v.data_write = write;
  v.data_slave = slave_index;
  v.hmaster = static_cast<std::uint8_t>(master);
  v.grant_vector = 1u << master;
  v.req_vector = 1u << master;
  if (write) {
    v.hwdata = data;
  } else {
    v.hrdata = data;
  }
  for (unsigned w = 0; w < wait_cycles; ++w) {
    ahb::CycleView stall = v;
    stall.hready = false;
    fsm_.step(stall);
    ++cycles_;
  }
  v.hready = true;
  fsm_.step(v);
  ++cycles_;
  ++transfers_;
  last_master_ = static_cast<std::uint8_t>(master);
}

bool TlmBus::read(unsigned master, std::uint32_t addr, std::uint32_t& data) {
  const Mapping* m = decode(addr);
  if (m == nullptr) {
    ++errors_;
    cycles_ += 2;
    return false;
  }
  const unsigned waits = m->slave->read(addr - m->base, data);
  account_transfer(master, addr, false, data, waits,
                   static_cast<std::uint8_t>(m - map_.data()));
  return true;
}

bool TlmBus::write(unsigned master, std::uint32_t addr, std::uint32_t data) {
  const Mapping* m = decode(addr);
  if (m == nullptr) {
    ++errors_;
    cycles_ += 2;
    return false;
  }
  const unsigned waits = m->slave->write(addr - m->base, data);
  account_transfer(master, addr, true, data, waits,
                   static_cast<std::uint8_t>(m - map_.data()));
  return true;
}

void TlmBus::idle(std::uint64_t n, std::uint32_t pending_requests) {
  ahb::CycleView v;
  v.hmaster = last_master_;
  v.grant_vector = 1u << last_master_;
  v.req_vector = pending_requests;
  fsm_.step_repeated(v, n);
  cycles_ += n;
}

// ---------------------------------------------------------------------------
// TlmTrafficRunner

TlmTrafficRunner::TlmTrafficRunner(TlmBus& bus, unsigned master_index, Config cfg)
    : bus_(bus), master_(master_index), cfg_(cfg), rng_(cfg.seed) {}

void TlmTrafficRunner::run_until(std::uint64_t until_cycle) {
  auto rand_between = [this](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng_() % (hi - lo + 1));
  };
  while (bus_.cycles() < until_cycle) {
    bus_.idle(rand_between(cfg_.min_idle_cycles, cfg_.max_idle_cycles));
    // Arbitration approximation: one handover-ish idle cycle with this
    // master requesting before the tenure starts.
    bus_.idle(1, 1u << master_);
    const unsigned pairs = rand_between(cfg_.min_pairs, cfg_.max_pairs);
    for (unsigned p = 0; p < pairs; ++p) {
      const std::uint32_t words = cfg_.addr_range / 4;
      const std::uint32_t addr =
          cfg_.addr_base + 4 * static_cast<std::uint32_t>(rng_() % words);
      const auto value = static_cast<std::uint32_t>(rng_());
      bus_.write(master_, addr, value);
      ++writes_;
      std::uint32_t back = 0;
      bus_.read(master_, addr, back);
      ++reads_;
      if (back != value) ++mismatches_;
    }
  }
}

}  // namespace ahbp::tlm
