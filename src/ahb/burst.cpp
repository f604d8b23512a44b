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

namespace {

unsigned beats_of(const BurstMaster::Config& cfg) {
  return cfg.burst == Burst::kIncr ? cfg.incr_beats : burst_beats(cfg.burst);
}

/// Throws on a bad config; returns `bus`, so a rejected master never attaches.
AhbBus& checked(const BurstMaster::Config& cfg, AhbBus& bus) {
  if (cfg.burst == Burst::kSingle) {
    throw SimError("BurstMaster: use TrafficMaster for SINGLE transfers");
  }
  if (cfg.burst == Burst::kIncr && cfg.incr_beats < 2) {
    throw SimError("BurstMaster: INCR bursts need >= 2 beats");
  }
  if (cfg.busy_percent > 100) throw SimError("BurstMaster: busy_percent > 100");
  if (cfg.addr_range < beats_of(cfg) * 4) {
    throw SimError("BurstMaster: address window smaller than one burst");
  }
  if (cfg.max_idle_cycles < cfg.min_idle_cycles || cfg.min_idle_cycles == 0) {
    throw SimError("BurstMaster: bad idle-cycle bounds");
  }
  if (is_wrapping(cfg.burst) && cfg.addr_base % (beats_of(cfg) * 4) != 0) {
    throw SimError("BurstMaster: addr_base must be wrap-block aligned");
  }
  return bus;
}

}  // namespace

BurstMaster::BurstMaster(sim::Module* parent, std::string name, AhbBus& bus,
                         Config cfg)
    : AhbMaster(parent, std::move(name), checked(cfg, bus)),
      cfg_(cfg),
      rng_(cfg.seed),
      beats_(beats_of(cfg)),
      thread_(this, "proc", [this] { return body(); }) {}

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
