#include "cpu/ahb_cpu.hpp"

#include "ahb/slave.hpp"

namespace ahbp::cpu {

using sim::Task;
using sim::wait;

CpuMaster::CpuMaster(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                     Config cfg)
    : AhbMaster(parent, std::move(name), bus),
      cfg_(cfg),
      core_(cfg.reset_pc),
      thread_(this, "proc", [this] { return body(); }) {}

void load_program(ahb::MemorySlave& mem, std::uint32_t base,
                  const std::vector<std::uint32_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    mem.poke(base + 4 * static_cast<std::uint32_t>(i), words[i]);
  }
}

Task CpuMaster::body() {
  std::uint64_t since_yield = 0;

  request();
  co_await owned_edge();

  // Each access is serialized: its address phase, then its data phase
  // with nothing pipelined behind it. The bus stays requested between
  // accesses.
  while (!core_.halted()) {
    // ---- instruction fetch ---------------------------------------------
    issue({.addr = core_.fetch_addr()});
    co_await ready_edge();
    settle();
    idle();
    co_await ready_edge();
    const Completion fetch = *settle();
    if (fetch.resp != ahb::Resp::kOkay) ++stats_.error_responses;
    ++stats_.fetches;

    const MemOp mem = core_.execute(fetch.rdata);
    std::uint32_t rdata = fetch.rdata;

    if (mem.kind == MemOp::Kind::kLoad ||
        (mem.kind == MemOp::Kind::kStore && mem.bytes != 4)) {
      // ---- data read (load, or the read half of a sub-word store) -------
      issue({.addr = mem.addr & ~3u});
      co_await ready_edge();
      settle();
      idle();
      co_await ready_edge();
      const Completion load = *settle();
      if (load.resp != ahb::Resp::kOkay) ++stats_.error_responses;
      rdata = load.rdata;
      if (mem.kind == MemOp::Kind::kLoad) {
        core_.complete_load(mem, rdata);
        ++stats_.loads;
      }
    }

    if (mem.kind == MemOp::Kind::kStore) {
      // ---- data write (whole word; sub-word stores merge into rdata) ----
      const std::uint32_t word =
          mem.bytes == 4 ? mem.wdata : (rdata & ~mem.wmask) | mem.wdata;
      issue({.addr = mem.addr & ~3u, .write = true, .data = word});
      co_await ready_edge();
      settle();
      idle();
      co_await ready_edge();
      if (settle()->resp != ahb::Resp::kOkay) ++stats_.error_responses;
      ++stats_.stores;
      if (mem.bytes != 4) ++stats_.rmw_stores;
    }

    // ---- cooperative yield ----------------------------------------------
    if (cfg_.yield_every != 0 && ++since_yield >= cfg_.yield_every) {
      since_yield = 0;
      release();
      for (unsigned i = 0; i < cfg_.yield_cycles; ++i) co_await wait(edge_);
      request();
      co_await owned_edge();
    }
  }

  // Halted: park the bus.
  release();
}

}  // namespace ahbp::cpu
