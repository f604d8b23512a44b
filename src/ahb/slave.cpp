#include "ahb/slave.hpp"

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

namespace {

/// Counts down outstanding HSPLITx resumes, unmasking each master at the
/// arbiter when its countdown expires. Order within a cycle is
/// irrelevant: resumes only toggle independent mask bits.
void tick_resumes(std::vector<std::pair<unsigned, unsigned>>& pending,
                  Arbiter& arb) {
  for (std::size_t i = 0; i < pending.size();) {
    if (--pending[i].second == 0) {
      arb.resume(pending[i].first);
      pending[i] = pending.back();
      pending.pop_back();
    } else {
      ++i;
    }
  }
}

/// Throws on a bad config; returns `bus`, so a rejected slave never attaches.
AhbBus& checked(const MemorySlave::Config& cfg, AhbBus& bus) {
  if (cfg.size == 0 || cfg.size % 4 != 0) {
    throw SimError("MemorySlave: size must be a positive multiple of 4");
  }
  return bus;
}

}  // namespace

// ---------------------------------------------------------------------------
// AhbSlave

AhbSlave::AhbSlave(sim::Module* parent, std::string name, AhbBus& bus,
                   std::uint32_t base, std::uint32_t size)
    : Module(parent, std::move(name)), bus_(bus), sig_(this, "out") {
  index_ = bus_.attach_slave(sig_, AddressRange{base, size});
}

bool AhbSlave::selected() const { return bus_.hsel(index_).read(); }

BusSignals& AhbSlave::bus_signals() const { return bus_.bus(); }

sim::Clock& AhbSlave::clock() const { return bus_.clock(); }

// ---------------------------------------------------------------------------
// MemorySlave

MemorySlave::MemorySlave(sim::Module* parent, std::string name, AhbBus& bus,
                         Config cfg)
    : AhbSlave(parent, std::move(name), checked(cfg, bus), cfg.base, cfg.size),
      cfg_(cfg),
      mem_(cfg.size / 4),
      proc_(this, "clocked", [this] { on_clock(); }) {
  proc_.sensitive(clock().posedge_event()).dont_initialize();
}

std::uint32_t MemorySlave::peek(std::uint32_t addr) const {
  return mem_.at(addr / 4);
}

void MemorySlave::poke(std::uint32_t addr, std::uint32_t value) {
  mem_.at(addr / 4) = value;
}

void MemorySlave::on_clock() {
  BusSignals& bus = bus_signals();

  // 0. Progress outstanding SPLIT resumes and a two-cycle fault response.
  if (!pending_resumes_.empty()) tick_resumes(pending_resumes_, bus_.arbiter());
  if (resp_phase_ == RespPhase::kFail1) {
    // First failure cycle (HREADY low, HRESP set) done: raise HREADY.
    sig_.hreadyout.write(true);
    resp_phase_ = RespPhase::kFail2;
    return;  // cannot accept a new address phase mid-response
  }
  if (resp_phase_ == RespPhase::kFail2) {
    // Second failure cycle done: back to OKAY, ready for a new transfer.
    sig_.hresp.write(raw(Resp::kOkay));
    resp_phase_ = RespPhase::kNone;
  }

  // 1. Complete a data phase that we signalled ready for: a write
  //    captures HWDATA, which the master drove during the cycle that just
  //    ended.
  if (busy_ && completing_) {
    if (op_write_) {
      mem_[(op_addr_ - cfg_.base) / 4] = bus.hwdata.read();
      ++stats_.writes;
    } else {
      ++stats_.reads;
    }
    busy_ = false;
    completing_ = false;
  }

  // 2. Progress wait states of an in-flight data phase.
  if (busy_ && !completing_) {
    ++stats_.wait_cycles;
    if (--waits_left_ == 0) {
      if (!op_write_) sig_.hrdata.write(mem_[(op_addr_ - cfg_.base) / 4]);
      sig_.hreadyout.write(true);
      completing_ = true;
    }
    return;  // cannot accept a new address phase while stalled
  }

  // 3. Accept the address phase that was on the bus during the cycle
  //    that just ended (only valid if the bus was ready).
  const bool accept = selected() &&
                      is_active(static_cast<Trans>(bus.htrans.read())) &&
                      bus.hready.read();
  if (!accept) return;

  op_write_ = bus.hwrite.read();
  op_addr_ = bus.haddr.read();

  // 3a. Consult the fault hook: a non-OKAY verdict turns this transfer
  //     into a two-cycle protocol response instead of a data phase.
  FaultDecision fault;
  if (cfg_.fault_hook) {
    FaultQuery q;
    q.transfer_index = transfer_index_;
    q.write = op_write_;
    q.addr = op_addr_;
    q.htrans = static_cast<Trans>(bus.htrans.read());
    // HMASTER still carries the owner that issued this address phase
    // (settled value from the cycle that just ended).
    q.master = bus.hmaster.read();
    fault = cfg_.fault_hook(q);
  }
  ++transfer_index_;
  if (fault.resp != Resp::kOkay) {
    switch (fault.resp) {
      case Resp::kRetry:
        ++stats_.retries;
        break;
      case Resp::kError:
        ++stats_.errors;
        break;
      case Resp::kSplit: {
        const unsigned m = bus.hmaster.read();
        bus_.arbiter().split(m);
        const unsigned resume = fault.split_resume_cycles == 0
                                    ? 1u
                                    : fault.split_resume_cycles;
        pending_resumes_.emplace_back(m, resume);
        ++stats_.splits;
        break;
      }
      case Resp::kOkay:
        break;
    }
    sig_.hresp.write(raw(fault.resp));
    sig_.hreadyout.write(false);
    resp_phase_ = RespPhase::kFail1;
    return;
  }

  busy_ = true;
  const unsigned waits = cfg_.wait_states + fault.extra_waits;
  stats_.jitter_cycles += fault.extra_waits;
  if (waits == 0) {
    if (!op_write_) sig_.hrdata.write(mem_[(op_addr_ - cfg_.base) / 4]);
    sig_.hreadyout.write(true);  // already true, but keep the intent clear
    completing_ = true;
  } else {
    waits_left_ = waits;
    sig_.hreadyout.write(false);
    completing_ = false;
  }
}

// ---------------------------------------------------------------------------
// DefaultSlave

DefaultSlave::DefaultSlave(sim::Module* parent, std::string name, AhbBus& bus)
    : AhbSlave(parent, std::move(name), bus, 0, 0),
      proc_(this, "clocked", [this] { on_clock(); }) {
  proc_.sensitive(clock().posedge_event()).dont_initialize();
}

void DefaultSlave::on_clock() {
  BusSignals& bus = bus_signals();

  if (completing_) {
    // Second ERROR cycle done; back to the reset response.
    sig_.hresp.write(raw(Resp::kOkay));
    completing_ = false;
    return;
  }
  if (erroring_) {
    // First ERROR cycle (HREADY low) done; raise HREADY, keep ERROR.
    sig_.hreadyout.write(true);
    erroring_ = false;
    completing_ = true;
    return;
  }

  // An active transfer decoded into unmapped space: two-cycle ERROR.
  const bool hit = selected() && is_active(static_cast<Trans>(bus.htrans.read())) &&
                   bus.hready.read();
  if (hit) {
    ++errors_;
    sig_.hresp.write(raw(Resp::kError));
    sig_.hreadyout.write(false);
    erroring_ = true;
  }
}

}  // namespace ahbp::ahb
