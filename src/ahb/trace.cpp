#include "ahb/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;
using sim::Task;
using sim::wait;

// ---------------------------------------------------------------------------
// TransactionTrace

TransactionTrace TransactionTrace::filter_master(std::uint8_t master) const {
  TransactionTrace out;
  for (const TransferRecord& r : records_) {
    if (r.master == master) out.add(r);
  }
  return out;
}

void TransactionTrace::save(std::ostream& os) const {
  os << "# ahbpower transaction trace v1: cycle master W|R addr data\n";
  for (const TransferRecord& r : records_) {
    os << r.cycle << ' ' << static_cast<unsigned>(r.master) << ' '
       << (r.write ? 'W' : 'R') << ' ' << std::hex << "0x" << r.addr << " 0x"
       << r.data << std::dec << '\n';
  }
}

TransactionTrace TransactionTrace::load(std::istream& is) {
  TransactionTrace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    TransferRecord r;
    unsigned master = 0;
    char rw = 0;
    std::string addr_s, data_s;
    if (!(ls >> r.cycle)) continue;  // blank line
    if (!(ls >> master >> rw >> addr_s >> data_s) || (rw != 'W' && rw != 'R')) {
      throw SimError("TransactionTrace: malformed line " + std::to_string(lineno));
    }
    r.master = static_cast<std::uint8_t>(master);
    r.write = rw == 'W';
    r.addr = static_cast<std::uint32_t>(std::stoul(addr_s, nullptr, 0));
    r.data = static_cast<std::uint32_t>(std::stoul(data_s, nullptr, 0));
    t.add(r);
  }
  return t;
}

// ---------------------------------------------------------------------------
// TraceRecorder

TraceRecorder::TraceRecorder(sim::Module* parent, std::string name, AhbBus& bus)
    : Module(parent, std::move(name)), bus_(bus) {
  bus.subscribe(*this);
}

void TraceRecorder::post_cycle(const CycleView& v) {
  ++cycle_;
  if (!v.data_active || !v.hready) return;
  TransferRecord r;
  r.cycle = cycle_;
  r.master = v.hmaster_data;
  r.write = v.data_write;
  // The view carries no data-phase address; read the pipeline register.
  r.addr = bus_.pipeline().data_phase_addr().read();
  r.data = r.write ? v.hwdata : v.hrdata;
  trace_.add(r);
}

// ---------------------------------------------------------------------------
// TraceMaster

TraceMaster::TraceMaster(sim::Module* parent, std::string name, AhbBus& bus,
                         TransactionTrace trace)
    : AhbMaster(parent, std::move(name), bus),
      trace_(std::move(trace)),
      thread_(this, "proc", [this] { return body(); }) {}

void TraceMaster::count(const Completion& c) {
  if (c.mismatch()) ++stats_.read_mismatches;
  ++stats_.replayed;
}

Task TraceMaster::body() {
  if (trace_.records().empty()) co_return;

  // Pacing: `cycle` counts the clock edges this master has waited.
  const std::uint64_t t0 = trace_.records().front().cycle;
  std::uint64_t cycle = 0;

  for (const TransferRecord& r : trace_.records()) {
    const std::uint64_t due = r.cycle - t0;

    // A gap before this record: drain the in-flight transfer, then idle
    // with the bus released (pacing preserves the recorded rhythm).
    if (cycle < due && in_flight()) {
      release();
      cycle += co_await ready_edge();
      count(*settle());
    }
    for (; cycle < due; ++cycle) co_await wait(edge_);

    // Own the bus.
    if (!granted() || !sig_.hbusreq.read()) {
      request();
      if (!owns_bus()) cycle += co_await owned_edge();
    }

    // Pipelined: address phase of this record beside the pending
    // record's data phase, exactly like the original masters.
    issue({.addr = r.addr, .write = r.write, .data = r.data});
    cycle += co_await ready_edge();
    if (const auto c = settle()) count(*c);
  }

  // Drain the final transfer.
  release();
  co_await ready_edge();
  count(*settle());
}

}  // namespace ahbp::ahb
