#include "power/power_fsm.hpp"

namespace ahbp::power {

const char* to_string(BusMode m) {
  switch (m) {
    case BusMode::kIdle: return "IDLE";
    case BusMode::kIdleHo: return "IDLE_HO";
    case BusMode::kRead: return "READ";
    case BusMode::kWrite: return "WRITE";
  }
  return "?";
}

std::string_view instruction_view(BusMode from, BusMode to) {
  // All 16 transition names, interned once: hot query paths hand out
  // views instead of building a std::string per call.
  static const std::array<std::string, 16> names = [] {
    std::array<std::string, 16> t;
    for (unsigned f = 0; f < 4; ++f) {
      for (unsigned to_i = 0; to_i < 4; ++to_i) {
        t[f * 4 + to_i] = std::string(to_string(static_cast<BusMode>(f))) +
                          "_" + to_string(static_cast<BusMode>(to_i));
      }
    }
    return t;
  }();
  return names[static_cast<unsigned>(from) * 4 + static_cast<unsigned>(to)];
}

std::string instruction_name(BusMode from, BusMode to) {
  return std::string(instruction_view(from, to));
}

namespace {
/// Channel names, indexed by PowerFsm::Channel.
const std::vector<std::string> kChannelNames = {
    "haddr", "hcontrol", "hwdata",     "hrdata",  "hresp",
    "hbusreq", "hgrant",  "data_slave", "hmaster"};
}  // namespace

PowerFsm::PowerFsm(Config cfg)
    : cfg_(cfg),
      dec_model_(cfg.n_slaves, cfg.tech),
      m2s_model_(cfg.addr_width + cfg.control_width + cfg.data_width,
                 cfg.n_masters, cfg.tech, cfg.m2s_coefficients),
      s2m_model_(cfg.data_width + 3, cfg.n_slaves, cfg.tech,
                 cfg.s2m_coefficients),
      arb_model_(cfg.n_masters, cfg.tech),
      activity_(kChannelNames) {
  master_energy_.assign(cfg.n_masters, 0.0);
}

void PowerFsm::reset() {
  activity_.reset();
  mode_ = BusMode::kIdle;
  first_cycle_ = true;
  prev_ = ahb::CycleView{};
  cycles_ = 0;
  blocks_ = BlockEnergy{};
  master_energy_.assign(cfg_.n_masters, 0.0);
  instr_.fill(InstrStats{});
}

void PowerFsm::publish_metrics(telemetry::MetricsRegistry& registry,
                               const std::string& prefix) const {
  auto lower = [](std::string s) {
    for (char& c : s) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return s;
  };
  registry.counter(prefix + ".cycles").add(cycles_);
  for (const auto& [name, st] : instructions()) {
    const std::string base = prefix + ".instr." + lower(name);
    registry.counter(base + ".count").add(st.count);
    registry.gauge(base + ".energy_j").set(st.energy);
  }
  registry.gauge(prefix + ".energy.arb_j").set(blocks_.arb);
  registry.gauge(prefix + ".energy.dec_j").set(blocks_.dec);
  registry.gauge(prefix + ".energy.m2s_j").set(blocks_.m2s);
  registry.gauge(prefix + ".energy.s2m_j").set(blocks_.s2m);
  registry.gauge(prefix + ".energy.total_j").set(blocks_.total());
  for (std::size_t m = 0; m < master_energy_.size(); ++m) {
    registry.gauge(prefix + ".master." + std::to_string(m) + ".energy_j")
        .set(master_energy_[m]);
  }
}

std::map<std::string, PowerFsm::InstrStats> PowerFsm::instructions() const {
  std::map<std::string, InstrStats> out;
  for (unsigned from = 0; from < 4; ++from) {
    for (unsigned to = 0; to < 4; ++to) {
      const InstrStats& st = instr_[from * 4 + to];
      if (st.count == 0) continue;
      out.emplace(instruction_name(static_cast<BusMode>(from),
                                   static_cast<BusMode>(to)),
                  st);
    }
  }
  return out;
}

BusMode PowerFsm::classify(const ahb::CycleView& v, bool handover) const {
  if (v.data_active) return v.data_write ? BusMode::kWrite : BusMode::kRead;
  // No data transfer this cycle: is arbitration working? Either the
  // ownership moved, or a non-owner is requesting (the grant is being
  // negotiated). Split-masked masters are excluded: the arbiter ignores
  // their requests until the HSPLITx resume, so a parked split request
  // burns no arbitration activity.
  const bool pending_request =
      (v.req_vector & ~v.grant_vector & ~v.split_vector) != 0;
  if (handover || pending_request) return BusMode::kIdleHo;
  return BusMode::kIdle;
}

void PowerFsm::step_repeated(const ahb::CycleView& v, std::uint64_t n) {
  if (n == 0) return;
  step(v);
  if (n == 1) return;
  // Second step establishes the steady state (all HDs zero from here).
  const StepResult steady = step(v);
  if (n == 2) return;

  const std::uint64_t rest = n - 2;
  BlockEnergy extra = steady.blocks;
  extra.arb *= static_cast<double>(rest);
  extra.dec *= static_cast<double>(rest);
  extra.m2s *= static_cast<double>(rest);
  extra.s2m *= static_cast<double>(rest);
  blocks_ += extra;
  cycles_ += rest;
  InstrStats& st = instr_[static_cast<unsigned>(steady.from) * 4 +
                          static_cast<unsigned>(steady.mode)];
  st.count += rest;
  st.energy += extra.total();
  if (v.hmaster < master_energy_.size()) {
    master_energy_[v.hmaster] += extra.total();
  }
  activity_.store_repeated(rest);
}

// The per-cycle kernel: nine popcounts a cycle, so it carries the
// POPCNT clone (see AHBP_POPCNT_CLONES in activity.hpp).
AHBP_POPCNT_CLONES
PowerFsm::StepResult PowerFsm::step(const ahb::CycleView& v) {
  ++cycles_;

  // --- instrumentation: store per-signal switching activity -------------
  // (the paper's get_activity() called at every bus event) -- all nine
  // signals packed into one SoA word array, Hamming distances computed
  // in a single XOR+popcount pass.
  std::array<std::uint64_t, kNumChannels> vals;
  std::array<unsigned, kNumChannels> hd;
  vals[kChHaddr] = v.haddr;
  vals[kChHcontrol] = (static_cast<std::uint64_t>(v.htrans) << 0) |
                      (static_cast<std::uint64_t>(v.hwrite) << 2) |
                      (static_cast<std::uint64_t>(v.hsize) << 3) |
                      (static_cast<std::uint64_t>(v.hburst) << 6);
  vals[kChHwdata] = v.hwdata;
  vals[kChHrdata] = v.hrdata;
  vals[kChHresp] =
      (static_cast<std::uint64_t>(v.hresp) << 1) | (v.hready ? 1u : 0u);
  vals[kChHbusreq] = v.req_vector;
  vals[kChHgrant] = v.grant_vector;
  vals[kChDataSlave] = v.data_slave;
  vals[kChHmaster] = v.hmaster;
  activity_.store_all(vals, hd);

  const unsigned hd_addr = hd[kChHaddr];
  const unsigned hd_ctl = hd[kChHcontrol];
  const unsigned hd_wdata = hd[kChHwdata];
  const unsigned hd_rdata = hd[kChHrdata];
  const unsigned hd_resp = hd[kChHresp];
  const unsigned hd_req = hd[kChHbusreq];
  const unsigned hd_grant = hd[kChHgrant];
  // The S2M select is physically one-hot: a selection change toggles
  // exactly two select lines regardless of the binary index distance.
  const unsigned hd_dslave = hd[kChDataSlave] != 0 ? 2u : 0u;

  const bool handover = !first_cycle_ && v.hmaster != prev_.hmaster;

  // --- sub-block energies from the macromodels --------------------------
  BlockEnergy e;
  e.dec = dec_model_.energy(hd_addr);
  e.m2s = m2s_model_.energy(hd_addr + hd_ctl + hd_wdata,
                            /*hd_sel=*/hd_grant, hd_addr + hd_ctl + hd_wdata);
  e.s2m = s2m_model_.energy(hd_rdata + hd_resp, /*hd_sel=*/hd_dslave,
                            hd_rdata + hd_resp);
  e.arb = arb_model_.energy(hd_req, handover);
  blocks_ += e;
  if (v.hmaster < master_energy_.size()) master_energy_[v.hmaster] += e.total();

  // --- the FSM transition = executed instruction ------------------------
  const BusMode next = classify(v, handover);
  const BusMode from = first_cycle_ ? next : mode_;
  InstrStats& st = instr_[static_cast<unsigned>(from) * 4 +
                          static_cast<unsigned>(next)];
  ++st.count;
  st.energy += e.total();

  mode_ = next;
  prev_ = v;
  first_cycle_ = false;
  return StepResult{from, next, e};
}

}  // namespace ahbp::power
