#include "ahb/burst.hpp"

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;
using sim::Task;
using sim::wait;

std::uint32_t next_burst_addr(std::uint32_t addr, Burst burst, Size size) {
  const std::uint32_t step = size_bytes(size);
  const std::uint32_t next = addr + step;
  if (!is_wrapping(burst)) return next;
  const std::uint32_t block = burst_beats(burst) * step;
  return (addr & ~(block - 1)) | (next & (block - 1));
}

std::uint32_t wrap_boundary(std::uint32_t addr, Burst burst, Size size) {
  const std::uint32_t block = burst_beats(burst) * size_bytes(size);
  if (block == 0) return addr;  // INCR: no boundary
  return addr & ~(block - 1);
}

BurstMaster::BurstMaster(sim::Module* parent, std::string name, AhbBus& bus,
                         Config cfg)
    : AhbMaster(parent, std::move(name), bus),
      cfg_(cfg),
      rng_(cfg.seed),
      beats_(cfg.burst == Burst::kIncr ? cfg.incr_beats : burst_beats(cfg.burst)),
      thread_(this, "proc", [this] { return body(); }) {
  if (cfg_.burst == Burst::kSingle) {
    throw SimError("BurstMaster: use TrafficMaster for SINGLE transfers");
  }
  if (cfg_.burst == Burst::kIncr && cfg_.incr_beats < 2) {
    throw SimError("BurstMaster: INCR bursts need >= 2 beats");
  }
  if (cfg_.busy_percent > 100) throw SimError("BurstMaster: busy_percent > 100");
  if (cfg_.addr_range < beats_ * 4) {
    throw SimError("BurstMaster: address window smaller than one burst");
  }
  if (cfg_.max_idle_cycles < cfg_.min_idle_cycles || cfg_.min_idle_cycles == 0) {
    throw SimError("BurstMaster: bad idle-cycle bounds");
  }
  if (is_wrapping(cfg_.burst) && cfg_.addr_base % (beats_ * 4) != 0) {
    throw SimError("BurstMaster: addr_base must be wrap-block aligned");
  }
}

void BurstMaster::count(const Completion& c) {
  if (c.resp != Resp::kOkay) ++stats_.error_responses;
  if (c.transfer.write) {
    ++stats_.write_beats;
  } else {
    ++stats_.read_beats;
    if (c.mismatch()) ++stats_.read_mismatches;
  }
}

Task BurstMaster::body() {
  auto rand_between = [this](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng_() % (hi - lo + 1));
  };

  for (;;) {
    // IDLE window (handover opportunity).
    release();
    const unsigned idle_n = rand_between(cfg_.min_idle_cycles, cfg_.max_idle_cycles);
    for (unsigned i = 0; i < idle_n; ++i) co_await wait(edge_);

    // Own the bus.
    request();
    co_await owned_edge();

    // Pick a legal start address: word-aligned; for wrapping bursts any
    // aligned address inside the window works (the sequence wraps).
    const std::uint32_t words = cfg_.addr_range / 4;
    std::uint32_t start = cfg_.addr_base + 4 * static_cast<std::uint32_t>(
                                                   rng_() % (words - beats_ + 1));
    if (is_wrapping(cfg_.burst)) {
      // Keep the whole wrap block inside the window (addr_base is
      // block-aligned, checked at construction).
      start = wrap_boundary(start, cfg_.burst, Size::kWord);
    }

    // One burst's beats, each with a random data word: written by the
    // write burst, expected back by the read burst over the same addresses.
    plan_.clear();
    std::uint32_t a = start;
    for (unsigned b = 0; b < beats_; ++b) {
      plan_.push_back({.trans = b == 0 ? Trans::kNonSeq : Trans::kSeq,
                       .addr = a,
                       .data = static_cast<std::uint32_t>(rng_()),
                       .burst = cfg_.burst});
      a = next_burst_addr(a, cfg_.burst, Size::kWord);
    }

    for (const bool write : {true, false}) {
      for (Transfer t : plan_) {
        t.write = write;
        if (t.trans == Trans::kSeq && cfg_.busy_percent != 0 &&
            rng_() % 100 < cfg_.busy_percent) {
          // BUSY beat: address/control show the upcoming transfer, no
          // data phase is created; exactly one cycle (zero-wait by protocol).
          issue({Trans::kBusy, t.addr, t.write, t.data, t.burst});
          co_await ready_edge();
          ++stats_.busy_beats;
          if (const auto c = settle()) count(*c);
        }
        issue(t);
        co_await ready_edge();
        if (const auto c = settle()) count(*c);
      }
    }

    // Drain the last beat.
    release();
    co_await ready_edge();
    count(*settle());
    stats_.bursts += 2;  // one write burst + one read burst
  }
}

}  // namespace ahbp::ahb
