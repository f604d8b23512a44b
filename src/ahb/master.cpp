#include "ahb/master.hpp"

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;
using sim::Task;
using sim::wait;

// ---------------------------------------------------------------------------
// AhbMaster

AhbMaster::AhbMaster(sim::Module* parent, std::string name, AhbBus& bus)
    : Module(parent, std::move(name)),
      bus_(bus),
      sig_(this, "out"),
      edge_(bus.clock().posedge_event()),
      hready_(bus.bus().hready) {
  index_ = bus_.attach_master(sig_);
}

bool AhbMaster::granted() const { return bus_.hgrant(index_).read(); }

void AhbMaster::issue(const Transfer& t) {
  sig_.htrans.write(raw(t.trans));
  sig_.haddr.write(t.addr);
  sig_.hwrite.write(t.write);
  sig_.hburst.write(raw(t.burst));
  sig_.hsize.write(raw(Size::kWord));
  if (data_phase_ && data_phase_->write) sig_.hwdata.write(data_phase_->data);
  addr_phase_ = t;
}

void AhbMaster::idle() {
  sig_.htrans.write(raw(Trans::kIdle));
  if (data_phase_ && data_phase_->write) sig_.hwdata.write(data_phase_->data);
  addr_phase_.reset();
}

void AhbMaster::release() {
  idle();
  sig_.hbusreq.write(false);
}

std::optional<AhbMaster::Completion> AhbMaster::settle() {
  const BusSignals& bus = bus_.bus();
  std::optional<Completion> done;
  if (data_phase_) {
    done = {*data_phase_, static_cast<Resp>(bus.hresp.read()), bus.hrdata.read()};
  }
  // A BUSY beat holds the address phase but creates no data phase.
  data_phase_ = addr_phase_ && is_active(addr_phase_->trans) ? addr_phase_ : std::nullopt;
  addr_phase_.reset();
  return done;
}

// ---------------------------------------------------------------------------
// TrafficMaster

namespace {

/// Throws on a bad config; returns `bus`, so a rejected master never attaches.
AhbBus& checked(const TrafficMaster::Config& cfg, AhbBus& bus) {
  if (cfg.max_idle_cycles < cfg.min_idle_cycles || cfg.min_idle_cycles == 0) {
    throw SimError("TrafficMaster: bad idle-cycle bounds");
  }
  if (cfg.max_pairs < cfg.min_pairs || cfg.min_pairs == 0) {
    throw SimError("TrafficMaster: bad pair bounds");
  }
  if (cfg.addr_range < 4) throw SimError("TrafficMaster: address window too small");
  return bus;
}

}  // namespace

TrafficMaster::TrafficMaster(sim::Module* parent, std::string name, AhbBus& bus,
                             Config cfg)
    : AhbMaster(parent, std::move(name), checked(cfg, bus)),
      cfg_(cfg),
      rng_(cfg.seed),
      thread_(this, "proc", [this] { return body(); }) {}

void TrafficMaster::count(const Completion& c) {
  if (c.resp != Resp::kOkay) ++stats_.error_responses;
  if (c.transfer.write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
    if (c.mismatch()) ++stats_.read_mismatches;
  }
}

Task TrafficMaster::body() {
  auto rand_between = [this](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng_() % (hi - lo + 1));
  };
  auto rand_addr = [this] {
    const std::uint32_t words = cfg_.addr_range / 4;
    return cfg_.addr_base + 4 * static_cast<std::uint32_t>(rng_() % words);
  };

  for (;;) {
    // --- IDLE phase: the only window in which handover can happen -------
    release();
    const unsigned idle_n = rand_between(cfg_.min_idle_cycles, cfg_.max_idle_cycles);
    for (unsigned i = 0; i < idle_n; ++i) co_await wait(edge_);

    // Cooperative DPM: hold off the next tenure while throttled.
    while (throttle_ != nullptr && throttle_->read()) {
      ++stats_.throttled_cycles;
      co_await wait(edge_);
    }

    // --- request the bus and wait until granted and ready ---------------
    request();
    co_await owned_edge();

    // --- non-interruptible WRITE-READ pairs, pipelined -----------------
    const unsigned pairs = rand_between(cfg_.min_pairs, cfg_.max_pairs);
    for (unsigned p = 0; p < pairs; ++p) {
      Transfer t{.addr = rand_addr(), .data = static_cast<std::uint32_t>(rng_())};
      for (const bool write : {true, false}) {  // write the word, read it back
        t.write = write;
        issue(t);
        co_await ready_edge();
        if (const auto c = settle()) count(*c);
      }
    }

    // Drain the final data phase while already releasing the bus.
    release();
    co_await ready_edge();
    count(*settle());
    ++stats_.sequences;
  }
}

// ---------------------------------------------------------------------------
// ScriptedMaster

ScriptedMaster::ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                               std::vector<Op> script)
    : ScriptedMaster(parent, std::move(name), bus, std::move(script), Options{}) {}

ScriptedMaster::ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                               std::vector<Op> script, Options opts)
    : AhbMaster(parent, std::move(name), bus),
      script_(std::move(script)),
      opts_(opts),
      thread_(this, "proc", [this] { return body(); }) {}

void ScriptedMaster::record(const Completion& c) {
  const Transfer& t = c.transfer;
  results_.push_back({t.addr, t.write, t.write ? t.data : c.rdata, c.resp});
}

Task ScriptedMaster::body() {
  // The script ends the way an idle op of no cycles does.
  for (std::size_t i = 0; i <= script_.size(); ++i) {
    const Op op = i < script_.size() ? script_[i] : Op{.idle_cycles = 0};
    if (op.kind == Op::Kind::kIdle) {
      // Finish any in-flight data phase, then idle with the bus released.
      release();
      if (in_flight()) {
        co_await ready_edge();
        record(*settle());
      }
      for (unsigned n = 0; n < op.idle_cycles; ++n) co_await wait(edge_);
      continue;
    }

    // Transfer op: own the bus first.
    if (!granted() || !sig_.hbusreq.read()) {
      request();
      if (!owns_bus()) co_await owned_edge();
    }

    const Transfer t{.addr = op.addr, .write = op.kind == Op::Kind::kWrite,
                     .data = op.data};
    if (!opts_.retry) {
      issue(t);
      co_await ready_edge();
      if (const auto c = settle()) record(*c);
      continue;
    }

    // Serialized transfer: address phase, then a clean data phase with
    // nothing pipelined behind it, so a RETRY response can simply
    // re-issue the same transfer.
    for (unsigned attempts = 0;; ++attempts) {
      issue(t);
      co_await ready_edge();
      settle();
      idle();
      co_await ready_edge();
      const Completion c = *settle();
      if ((c.resp != Resp::kRetry && c.resp != Resp::kSplit) ||
          attempts == opts_.max_retries) {
        record(c);
        break;
      }
      ++retries_;
      if (c.resp == Resp::kSplit) {
        ++splits_;
        // The arbiter has masked this master: the grant signal still
        // reads its stale pre-handover value at this edge, so wait at
        // least one edge, then hold until the HSPLITx resume re-grants
        // the bus.
        co_await owned_edge();
      }
    }
  }
}

}  // namespace ahbp::ahb
