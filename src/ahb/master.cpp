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
    : Module(parent, std::move(name)), bus_(bus), sig_(this, "out") {
  index_ = bus_.attach_master(sig_);
}

bool AhbMaster::granted() const { return bus_.hgrant(index_).read(); }

BusSignals& AhbMaster::bus_signals() const { return bus_.bus(); }

sim::Clock& AhbMaster::clock() const { return bus_.clock(); }

// ---------------------------------------------------------------------------
// TrafficMaster

TrafficMaster::TrafficMaster(sim::Module* parent, std::string name, AhbBus& bus,
                             Config cfg)
    : AhbMaster(parent, std::move(name), bus),
      cfg_(cfg),
      rng_(cfg.seed),
      thread_(this, "proc", [this] { return body(); }) {
  if (cfg_.max_idle_cycles < cfg_.min_idle_cycles || cfg_.min_idle_cycles == 0) {
    throw SimError("TrafficMaster: bad idle-cycle bounds");
  }
  if (cfg_.max_pairs < cfg_.min_pairs || cfg_.min_pairs == 0) {
    throw SimError("TrafficMaster: bad pair bounds");
  }
  if (cfg_.addr_range < 4) throw SimError("TrafficMaster: address window too small");
}

Task TrafficMaster::body() {
  BusSignals& bus = bus_signals();
  sim::Event& edge = clock().posedge_event();

  auto rand_between = [this](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng_() % (hi - lo + 1));
  };
  auto rand_addr = [this] {
    const std::uint32_t words = cfg_.addr_range / 4;
    return cfg_.addr_base + 4 * static_cast<std::uint32_t>(rng_() % words);
  };

  for (;;) {
    // --- IDLE phase: the only window in which handover can happen -------
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
    const unsigned idle_n = rand_between(cfg_.min_idle_cycles, cfg_.max_idle_cycles);
    for (unsigned i = 0; i < idle_n; ++i) co_await wait(edge);

    // Cooperative DPM: hold off the next tenure while throttled.
    while (cfg_.throttle != nullptr && cfg_.throttle->read()) {
      ++stats_.throttled_cycles;
      co_await wait(edge);
    }

    // --- request the bus and wait until granted and ready ---------------
    sig_.hbusreq.write(true);
    do {
      co_await wait(edge);
    } while (!(granted() && bus.hready.read()));

    // --- non-interruptible WRITE-READ pairs -----------------------------
    const unsigned pairs = rand_between(cfg_.min_pairs, cfg_.max_pairs);

    // Pipelined beat engine: while beat N's data phase runs, beat N+1's
    // address phase is on the bus.
    beats_.clear();
    for (unsigned p = 0; p < pairs; ++p) {
      const std::uint32_t a = rand_addr();
      const std::uint32_t d = static_cast<std::uint32_t>(rng_());
      beats_.push_back(Beat{true, a, d});
      beats_.push_back(Beat{false, a, d});
    }

    bool have_pending = false;
    Beat pending{};
    for (const Beat& b : beats_) {
      // Address phase for beat b; write-data phase for the pending beat.
      sig_.htrans.write(raw(Trans::kNonSeq));
      sig_.haddr.write(b.addr);
      sig_.hwrite.write(b.write);
      sig_.hburst.write(raw(Burst::kSingle));
      sig_.hsize.write(raw(Size::kWord));
      if (have_pending && pending.write) sig_.hwdata.write(pending.data);

      do {
        co_await wait(edge);
      } while (!bus.hready.read());

      // The pending beat's data phase completed at this edge.
      if (have_pending) {
        if (static_cast<Resp>(bus.hresp.read()) != Resp::kOkay) ++stats_.error_responses;
        if (pending.write) {
          ++stats_.writes;
        } else {
          ++stats_.reads;
          if (bus.hrdata.read() != pending.data) ++stats_.read_mismatches;
        }
      }
      pending = b;
      have_pending = true;
    }

    // Drain the final data phase while already releasing the bus.
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
    if (pending.write) sig_.hwdata.write(pending.data);
    do {
      co_await wait(edge);
    } while (!bus.hready.read());
    if (static_cast<Resp>(bus.hresp.read()) != Resp::kOkay) ++stats_.error_responses;
    if (pending.write) {
      ++stats_.writes;
    } else {
      ++stats_.reads;
      if (bus.hrdata.read() != pending.data) ++stats_.read_mismatches;
    }
    ++stats_.sequences;
  }
}

// ---------------------------------------------------------------------------
// DefaultMaster

DefaultMaster::DefaultMaster(sim::Module* parent, std::string name, AhbBus& bus)
    : AhbMaster(parent, std::move(name), bus) {}

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

Task ScriptedMaster::body() {
  BusSignals& bus = bus_signals();
  sim::Event& edge = clock().posedge_event();

  bool have_pending = false;
  Op pending{};

  // Completes the pending data phase bookkeeping at a ready edge.
  auto record_pending = [&] {
    if (!have_pending) return;
    Result r;
    r.addr = pending.addr;
    r.write = pending.kind == Op::Kind::kWrite;
    r.data = r.write ? pending.data : bus.hrdata.read();
    r.resp = static_cast<Resp>(bus.hresp.read());
    results_.push_back(r);
    have_pending = false;
  };

  for (const Op& op : script_) {
    if (op.kind == Op::Kind::kIdle) {
      // Finish any in-flight data phase, then idle with the bus released.
      sig_.htrans.write(raw(Trans::kIdle));
      sig_.hbusreq.write(false);
      if (have_pending && pending.kind == Op::Kind::kWrite) {
        sig_.hwdata.write(pending.data);
      }
      if (have_pending) {
        do {
          co_await wait(edge);
        } while (!bus.hready.read());
        record_pending();
      }
      for (unsigned i = 0; i < op.idle_cycles; ++i) co_await wait(edge);
      continue;
    }

    // Transfer op: own the bus first.
    if (!granted() || !sig_.hbusreq.read()) {
      sig_.hbusreq.write(true);
      while (!(granted() && bus.hready.read())) co_await wait(edge);
    }

    if (opts_.retry) {
      // Serialized transfer: address phase, then a clean data phase with
      // nothing pipelined behind it, so a RETRY response can simply
      // re-issue the same transfer.
      unsigned attempts = 0;
      Resp resp = Resp::kOkay;
      std::uint32_t rdata = 0;
      for (;;) {
        sig_.htrans.write(raw(Trans::kNonSeq));
        sig_.haddr.write(op.addr);
        sig_.hwrite.write(op.kind == Op::Kind::kWrite);
        sig_.hburst.write(raw(Burst::kSingle));
        sig_.hsize.write(raw(Size::kWord));
        do {
          co_await wait(edge);
        } while (!bus.hready.read());
        sig_.htrans.write(raw(Trans::kIdle));
        if (op.kind == Op::Kind::kWrite) sig_.hwdata.write(op.data);
        do {
          co_await wait(edge);
        } while (!bus.hready.read());
        resp = static_cast<Resp>(bus.hresp.read());
        rdata = bus.hrdata.read();
        if ((resp == Resp::kRetry || resp == Resp::kSplit) &&
            attempts < opts_.max_retries) {
          ++attempts;
          ++retries_;
          if (resp == Resp::kSplit) {
            ++splits_;
            // The arbiter has masked this master: the grant signal still
            // reads its stale pre-handover value at this edge, so wait at
            // least one edge, then hold until the HSPLITx resume
            // re-grants the bus.
            do {
              co_await wait(edge);
            } while (!(granted() && bus.hready.read()));
          }
          continue;
        }
        break;
      }
      Result r;
      r.addr = op.addr;
      r.write = op.kind == Op::Kind::kWrite;
      r.data = r.write ? op.data : rdata;
      r.resp = resp;
      results_.push_back(r);
      continue;
    }

    sig_.htrans.write(raw(Trans::kNonSeq));
    sig_.haddr.write(op.addr);
    sig_.hwrite.write(op.kind == Op::Kind::kWrite);
    sig_.hburst.write(raw(Burst::kSingle));
    sig_.hsize.write(raw(Size::kWord));
    if (have_pending && pending.kind == Op::Kind::kWrite) {
      sig_.hwdata.write(pending.data);
    }
    do {
      co_await wait(edge);
    } while (!bus.hready.read());
    record_pending();
    pending = op;
    have_pending = true;
  }

  // Drain the last transfer and release the bus.
  sig_.htrans.write(raw(Trans::kIdle));
  sig_.hbusreq.write(false);
  if (have_pending) {
    if (pending.kind == Op::Kind::kWrite) sig_.hwdata.write(pending.data);
    do {
      co_await wait(edge);
    } while (!bus.hready.read());
    record_pending();
  }
}

}  // namespace ahbp::ahb
