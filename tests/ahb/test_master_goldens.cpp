// Goldens for the five bus masters. Each rig hashes every CycleView
// field and every master's output bundle once per cycle, and pins the
// masters' stats, the monitor's stats, the estimator's energy (as a
// hexfloat) and the kernel's activity counters. Any change to when a
// master drives a signal, by one delta or one cycle, changes its line.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "bits_digest.hpp"
#include "campaign/testbench.hpp"
#include "cpu/cpu.hpp"
#include "power/power.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using test::Bench;
using test::fail_every;
using Op = ScriptedMaster::Op;

/// Digests the bus sample and each master's outputs, once per cycle.
class WaveDigest final : public CycleSubscriber {
public:
  WaveDigest(AhbBus& bus, std::vector<AhbMaster*> masters)
      : masters_(std::move(masters)) {
    bus.subscribe(*this);
  }

  void post_cycle(const CycleView& v) override {
    for (const double x :
         {double(v.haddr), double(v.htrans), double(v.hwrite), double(v.hsize),
          double(v.hburst), double(v.hwdata), double(v.hrdata), double(v.hready),
          double(v.hresp), double(v.hmaster), double(v.hmaster_data),
          double(v.data_slave), double(v.data_active), double(v.data_write),
          double(v.req_vector), double(v.grant_vector), double(v.split_vector)}) {
      d_.add(x);
    }
    for (AhbMaster* m : masters_) {
      const MasterSignals& s = m->signals();
      for (const double x :
           {double(s.hbusreq.read()), double(s.hlock.read()), double(s.haddr.read()),
            double(s.htrans.read()), double(s.hwrite.read()), double(s.hsize.read()),
            double(s.hburst.read()), double(s.hwdata.read())}) {
        d_.add(x);
      }
    }
  }

  [[nodiscard]] std::uint64_t value() const { return d_.value(); }

private:
  std::vector<AhbMaster*> masters_;
  testutil::BitsDigest d_;
};

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string stats(const TrafficMaster& m) {
  const TrafficMaster::Stats& s = m.stats();
  std::ostringstream os;
  os << "traffic w" << s.writes << " r" << s.reads << " mm" << s.read_mismatches
     << " err" << s.error_responses << " seq" << s.sequences << " thr"
     << s.throttled_cycles;
  return os.str();
}

std::string stats(const BurstMaster& m) {
  const BurstMaster::Stats& s = m.stats();
  std::ostringstream os;
  os << "burst b" << s.bursts << " w" << s.write_beats << " r" << s.read_beats
     << " busy" << s.busy_beats << " mm" << s.read_mismatches << " err"
     << s.error_responses;
  return os.str();
}

std::string stats(const ScriptedMaster& m) {
  std::ostringstream os;
  os << "scripted";
  for (const auto& r : m.results()) {
    os << ' ' << (r.write ? 'W' : 'R') << std::hex << r.addr << '='
       << r.data << std::dec << ':' << static_cast<int>(r.resp);
  }
  os << " rty" << m.retries() << " spl" << m.splits() << " fin" << m.finished();
  return os.str();
}

std::string stats(const TraceMaster& m) {
  std::ostringstream os;
  os << "trace n" << m.stats().replayed << " mm" << m.stats().read_mismatches
     << " fin" << m.finished();
  return os.str();
}

std::string stats(const cpu::CpuMaster& m) {
  const cpu::CpuMaster::Stats& s = m.stats();
  std::ostringstream os;
  os << "cpu f" << s.fetches << " l" << s.loads << " s" << s.stores << " rmw"
     << s.rmw_stores << " err" << s.error_responses << " halt" << m.halted()
     << " ret" << m.core().instret() << " x10=" << std::hex << m.core().reg(10);
  return os.str();
}

/// One rig's golden line: waveform digest, master stats, monitor stats,
/// energy and kernel activity.
std::string golden(const sim::Kernel& k, const WaveDigest& wave,
                   const std::vector<std::string>& masters, const BusMonitor& mon,
                   const power::AhbPowerEstimator& est) {
  std::ostringstream os;
  os << "wave " << std::hex << wave.value() << std::dec;
  for (const std::string& m : masters) os << " | " << m;
  const BusMonitor::Stats& s = mon.stats();
  os << " | mon c" << s.cycles << " t" << s.transfers << " r" << s.reads << " w"
     << s.writes << " wait" << s.wait_cycles << " idle" << s.idle_cycles << " ho"
     << s.handovers << " err" << s.error_responses << " rty" << s.retry_responses
     << " spl" << s.split_responses << " v" << mon.violations().size();
  os << " | E " << hexfloat(est.total_energy()) << " | proc "
     << k.stats().processes_executed << " delta " << k.delta_count();
  return os.str();
}

/// Observers every rig carries: a non-fatal monitor and the estimator.
struct Observers {
  Observers(Bench& b, std::vector<AhbMaster*> masters)
      : mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false}),
        est(&b.top, "power", b.bus),
        wave(b.bus, std::move(masters)) {}

  BusMonitor mon;
  power::AhbPowerEstimator est;
  WaveDigest wave;
};

TEST(MasterGolden, PaperRig) {
  campaign::PaperTestbench b(
      {.master_seeds = {11, 22}, .monitor = BusMonitor::Config{.fatal = false}});
  TrafficMaster& m1 = *b.masters[0];
  TrafficMaster& m2 = *b.masters[1];
  WaveDigest wave(b.bus, {&b.dm, &m1, &m2});
  b.run_cycles(2000);
  EXPECT_EQ(golden(b.kernel, wave, {stats(m1), stats(m2)}, *b.monitor, *b.est),
            "wave 1c474d20e72abd9c | "
            "traffic w471 r471 mm0 err0 seq31 thr0 | "
            "traffic w465 r464 mm0 err0 seq30 thr0 | "
            "mon c2000 t1871 r935 w936 wait0 idle128 ho62 err0 rty0 spl0 v0 | "
            "E 0x1.019030e79142fp-26 | "
            "proc 25054 delta 10991");
}

TEST(MasterGolden, GovernorThrottledRig) {
  campaign::PaperTestbench b({.master_seeds = {31, 32},
                              .slaves = 2,
                              .monitor = BusMonitor::Config{.fatal = false}});
  TrafficMaster& m1 = *b.masters[0];
  TrafficMaster& m2 = *b.masters[1];
  WaveDigest wave(b.bus, {&b.dm, &m1, &m2});
  power::PowerGovernor gov(&b.top, "gov", *b.est,
                           {.budget_watts = 0.2e-3, .window_cycles = 32});
  m1.set_throttle(&gov.throttle());
  m2.set_throttle(&gov.throttle());
  b.run_cycles(3000);
  EXPECT_GT(m1.stats().throttled_cycles, 0u);
  EXPECT_EQ(golden(b.kernel, wave, {stats(m1), stats(m2)}, *b.monitor, *b.est),
            "wave f6d29956e6e0a28b | "
            "traffic w505 r505 mm0 err0 seq37 thr1414 | "
            "traffic w386 r386 mm0 err0 seq28 thr1236 | "
            "mon c3000 t1782 r891 w891 wait0 idle1218 ho92 err0 rty0 spl0 v0 | "
            "E 0x1.f35a23612ceb4p-27 | "
            "proc 31930 delta 14947");
}

TEST(MasterGolden, BurstMasterEveryKind) {
  const struct {
    Burst burst;
    std::string want;
  } rigs[] = {
      {Burst::kIncr,
       "wave 189262f62a144663 | "
       "burst b56 w140 r140 busy55 mm0 err0 | "
       "traffic w384 r384 mm0 err0 seq28 thr0 | "
       "mon c1500 t1048 r524 w524 wait280 idle144 ho57 err0 rty0 spl0 v0 | "
       "E 0x1.39e99a8cb8ff2p-27 | "
       "proc 17109 delta 8217"},
      {Burst::kIncr4,
       "wave ed213c901e9a30b2 | "
       "burst b60 w120 r120 busy52 mm0 err0 | "
       "traffic w422 r421 mm0 err0 seq30 thr0 | "
       "mon c1500 t1083 r541 w542 wait240 idle154 ho61 err0 rty0 spl0 v0 | "
       "E 0x1.47491e6714e44p-27 | "
       "proc 17132 delta 8218"},
      {Burst::kWrap4,
       "wave 68983d722c55409b | "
       "burst b60 w120 r120 busy52 mm0 err0 | "
       "traffic w422 r421 mm0 err0 seq30 thr0 | "
       "mon c1500 t1083 r541 w542 wait240 idle154 ho61 err0 rty0 spl0 v0 | "
       "E 0x1.44074585bcf82p-27 | "
       "proc 17133 delta 8219"},
      {Burst::kIncr8,
       "wave 82803920ae98ce0d | "
       "burst b44 w181 r176 busy87 mm0 err0 | "
       "traffic w302 r302 mm0 err0 seq23 thr0 | "
       "mon c1500 t961 r478 w483 wait357 idle116 ho46 err0 rty0 spl0 v0 | "
       "E 0x1.25ced61e45e92p-27 | "
       "proc 17053 delta 8202"},
      {Burst::kWrap8,
       "wave 91432af5ad0e3e95 | "
       "burst b44 w181 r176 busy87 mm0 err0 | "
       "traffic w302 r302 mm0 err0 seq23 thr0 | "
       "mon c1500 t961 r478 w483 wait357 idle116 ho46 err0 rty0 spl0 v0 | "
       "E 0x1.2325c5fcca313p-27 | "
       "proc 17053 delta 8202"},
      {Burst::kIncr16,
       "wave b917eb16eb4046cd | "
       "burst b28 w229 r224 busy112 mm0 err0 | "
       "traffic w209 r209 mm0 err0 seq15 thr0 | "
       "mon c1500 t871 r433 w438 wait454 idle76 ho30 err0 rty0 spl0 v0 | "
       "E 0x1.0788fd9ebebc2p-27 | "
       "proc 16983 delta 8189"},
      {Burst::kWrap16,
       "wave 8f692e30d660d65d | "
       "burst b28 w229 r224 busy112 mm0 err0 | "
       "traffic w209 r209 mm0 err0 seq15 thr0 | "
       "mon c1500 t871 r433 w438 wait454 idle76 ho30 err0 rty0 spl0 v0 | "
       "E 0x1.0591235fcedd5p-27 | "
       "proc 16982 delta 8188"},
  };
  for (const auto& rig : rigs) {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    BurstMaster bm(&b.top, "bm", b.bus,
                   {.addr_base = 0x0000,
                    .addr_range = 0x400,
                    .burst = rig.burst,
                    .incr_beats = 5,
                    .busy_percent = 25,
                    .seed = 7});
    TrafficMaster tm(&b.top, "tm", b.bus,
                     {.addr_base = 0x1000, .addr_range = 0x400, .seed = 8});
    MemorySlave s1(&b.top, "s1", b.bus,
                   {.base = 0x0000, .size = 0x1000, .wait_states = 1});
    MemorySlave s2(&b.top, "s2", b.bus, {.base = 0x1000, .size = 0x1000});
    b.bus.finalize();
    Observers o(b, {&dm, &bm, &tm});
    b.run_cycles(1500);
    EXPECT_GT(bm.stats().busy_beats, 0u) << to_string(rig.burst);
    EXPECT_EQ(golden(b.kernel, o.wave, {stats(bm), stats(tm)}, o.mon, o.est), rig.want)
        << to_string(rig.burst);
  }
}

/// A script with back-to-back transfers, read-backs and idle gaps.
std::vector<Op> script() {
  std::vector<Op> ops;
  for (std::uint32_t i = 0; i < 12; ++i) {
    ops.push_back({Op::Kind::kWrite, 0x40 + 4 * i, 0xA5000000u + i * 0x1111u, 0});
    ops.push_back({Op::Kind::kRead, 0x40 + 4 * i, 0, 0});
    if (i % 4 == 3) ops.push_back({Op::Kind::kIdle, 0, 0, 2 + i % 3});
  }
  return ops;
}

TEST(MasterGolden, ScriptedMasterUnderFaults) {
  const struct {
    bool retry;
    Resp resp;
    std::string want;
  } rigs[] = {
      {false, Resp::kRetry,
       "wave 2e3a40e9f308a358 | "
       "scripted W40=a5000000:0 R40=a5000000:0 W44=a5001111:2 R44=0:0 "
       "W48=a5002222:0 R48=0:2 W4c=a5003333:0 R4c=a5003333:0 W50=a5004444:2 "
       "R50=0:0 W54=a5005555:0 R54=0:2 W58=a5006666:0 R58=a5006666:0 "
       "W5c=a5007777:2 R5c=0:0 W60=a5008888:0 R60=0:2 W64=a5009999:0 "
       "R64=a5009999:0 W68=a500aaaa:2 R68=0:0 W6c=a500bbbb:0 R6c=0:2 rty0 "
       "spl0 fin1 | "
       "traffic w224 r223 mm0 err0 seq14 thr0 | "
       "mon c600 t471 r235 w236 wait8 idle121 ho30 err0 rty8 spl0 v0 | "
       "E 0x1.f8c7cdbeb32d2p-29 | "
       "proc 6256 delta 3200"},
      {false, Resp::kSplit,
       "wave 7b2ecaf1f1e97788 | "
       "scripted W40=a5000000:0 R40=a5000000:0 W44=a5001111:3 R44=0:0 "
       "W48=a5002222:0 R48=0:3 W4c=a5003333:0 R4c=a5003333:0 W50=a5004444:3 "
       "R50=0:0 W54=a5005555:0 R54=0:3 W58=a5006666:0 R58=a5006666:0 "
       "W5c=a5007777:3 R5c=0:0 W60=a5008888:0 R60=0:3 W64=a5009999:0 "
       "R64=a5009999:0 W68=a500aaaa:3 R68=0:0 W6c=a500bbbb:0 R6c=0:3 rty0 "
       "spl0 fin1 | "
       "traffic w224 r223 mm0 err0 seq14 thr0 | "
       "mon c600 t471 r235 w236 wait8 idle121 ho30 err0 rty0 spl8 v0 | "
       "E 0x1.f97fb82d47156p-29 | "
       "proc 6256 delta 3200"},
      {true, Resp::kRetry,
       "wave e136fdbc5640ba5c | "
       "scripted W40=a5000000:0 R40=a5000000:0 W44=a5001111:0 "
       "R44=a5001111:0 W48=a5002222:0 R48=a5002222:0 W4c=a5003333:0 "
       "R4c=a5003333:0 W50=a5004444:0 R50=a5004444:0 W54=a5005555:0 "
       "R54=a5005555:0 W58=a5006666:0 R58=a5006666:0 W5c=a5007777:0 "
       "R5c=a5007777:0 W60=a5008888:0 R60=a5008888:0 W64=a5009999:0 "
       "R64=a5009999:0 W68=a500aaaa:0 R68=a500aaaa:0 W6c=a500bbbb:0 "
       "R6c=a500bbbb:0 rty11 spl0 fin1 | "
       "traffic w208 r208 mm0 err0 seq13 thr0 | "
       "mon c600 t451 r220 w231 wait11 idle149 ho27 err0 rty11 spl0 v0 | "
       "E 0x1.f0a64c83368a2p-29 | "
       "proc 6301 delta 3191"},
      {true, Resp::kSplit,
       "wave f53a3b8ae7eb962e | "
       "scripted W40=a5000000:0 R40=a5000000:0 W44=a5001111:0 "
       "R44=a5001111:0 W48=a5002222:0 R48=a5002222:0 W4c=a5003333:0 "
       "R4c=a5003333:0 W50=a5004444:0 R50=a5004444:0 W54=a5005555:0 "
       "R54=a5005555:0 W58=a5006666:0 R58=a5006666:0 W5c=a5007777:0 "
       "R5c=a5007777:0 W60=a5008888:0 R60=a5008888:0 W64=a5009999:0 "
       "R64=a5009999:0 W68=a500aaaa:0 R68=a500aaaa:0 W6c=a500bbbb:0 "
       "R6c=a500bbbb:0 rty11 spl11 fin1 | "
       "traffic w221 r220 mm0 err0 seq14 thr0 | "
       "mon c600 t476 r232 w244 wait11 idle123 ho36 err0 rty0 spl11 v0 | "
       "E 0x1.13a90c4508639p-28 | "
       "proc 6697 delta 3244"},
  };
  for (const auto& rig : rigs) {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    TrafficMaster tm(&b.top, "tm", b.bus,
                     {.addr_base = 0x1000, .addr_range = 0x400, .seed = 9});
    ScriptedMaster sm(&b.top, "sm", b.bus, script(),
                      ScriptedMaster::Options{.retry = rig.retry});
    MemorySlave s1(&b.top, "s1", b.bus,
                   {.base = 0x0000,
                    .size = 0x1000,
                    .fault_hook = fail_every(3, rig.resp, 3)});
    MemorySlave s2(&b.top, "s2", b.bus, {.base = 0x1000, .size = 0x1000});
    b.bus.finalize();
    Observers o(b, {&dm, &tm, &sm});
    b.run_cycles(600);
    EXPECT_EQ(golden(b.kernel, o.wave, {stats(sm), stats(tm)}, o.mon, o.est), rig.want)
        << "retry " << rig.retry << " resp " << to_string(rig.resp);
  }
}

TEST(MasterGolden, TraceMasterReplay) {
  TransactionTrace recorded;
  {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    TrafficMaster m1(&b.top, "m1", b.bus,
                     {.addr_base = 0x0000, .addr_range = 0x400, .seed = 43});
    TrafficMaster m2(&b.top, "m2", b.bus,
                     {.addr_base = 0x1000, .addr_range = 0x400, .seed = 44});
    MemorySlave s1(&b.top, "s1", b.bus, {.base = 0x0000, .size = 0x1000});
    MemorySlave s2(&b.top, "s2", b.bus, {.base = 0x1000, .size = 0x1000});
    b.bus.finalize();
    TraceRecorder rec(&b.top, "rec", b.bus);
    b.run_cycles(800);
    recorded = rec.trace().filter_master(static_cast<std::uint8_t>(m1.index()));
  }
  ASSERT_GT(recorded.size(), 50u);

  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  TrafficMaster tm(&b.top, "tm", b.bus,
                   {.addr_base = 0x1000, .addr_range = 0x400, .seed = 45});
  TraceMaster replay(&b.top, "replay", b.bus, recorded);
  MemorySlave s1(&b.top, "s1", b.bus,
                 {.base = 0x0000, .size = 0x1000, .wait_states = 1});
  MemorySlave s2(&b.top, "s2", b.bus, {.base = 0x1000, .size = 0x1000});
  b.bus.finalize();
  Observers o(b, {&dm, &tm, &replay});
  b.run_cycles(3000);
  EXPECT_EQ(golden(b.kernel, o.wave, {stats(replay), stats(tm)}, o.mon, o.est),
            "wave 114a8c97f8744f1a | "
            "trace n404 mm0 fin1 | "
            "traffic w875 r874 mm0 err0 seq63 thr0 | "
            "mon c3000 t2153 r1076 w1077 wait404 idle443 ho128 err0 rty0 spl0 v0 "
            "| "
            "E 0x1.23e052c6f38c4p-26 | "
            "proc 31382 delta 16016");
}

TEST(MasterGolden, CpuMasterBesideDma) {
  // fill_random stores; memcpy_bytes adds loads and read-modify-writes.
  const struct {
    std::vector<std::uint32_t> program;
    std::string want;
  } rigs[] = {
      {cpu::progs::fill_random(0x1800, 48, 0xBEEF),
       "wave c511496f8d9b995c | "
       "cpu f535 l0 s48 rmw0 err0 halt1 ret534 x10=81dd19b7 | "
       "burst b430 w860 r860 busy138 mm0 err0 | "
       "mon c6000 t2303 r1395 w908 wait1720 idle2054 ho432 err0 rty0 spl0 "
       "v0 | "
       "E 0x1.037719cdd154cp-25 | "
       "proc 70080 delta 32339"},
      {cpu::progs::memcpy_bytes(0x1000, 0x1100, 24),
       "wave 905bbeafc415f1ab | "
       "cpu f175 l24 s24 rmw24 err0 halt1 ret174 x10=0 | "
       "burst b464 w928 r928 busy161 mm0 err0 | "
       "mon c6000 t2103 r1151 w952 wait1856 idle2112 ho466 err0 rty0 spl0 "
       "v0 | "
       "E 0x1.d90f2211376dp-26 | "
       "proc 66993 delta 31838"},
  };
  for (const auto& rig : rigs) {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    cpu::CpuMaster core(&b.top, "cpu", b.bus, {.yield_every = 5, .yield_cycles = 3});
    BurstMaster dma(&b.top, "dma", b.bus,
                    {.addr_base = 0x3000,
                     .addr_range = 0x400,
                     .burst = Burst::kIncr4,
                     .busy_percent = 10,
                     .seed = 12});
    MemorySlave rom(&b.top, "rom", b.bus, {.base = 0x0000, .size = 0x1000});
    MemorySlave ram(&b.top, "ram", b.bus, {.base = 0x1000, .size = 0x2000});
    MemorySlave dram(&b.top, "dram", b.bus,
                     {.base = 0x3000, .size = 0x1000, .wait_states = 1});
    cpu::load_program(rom, 0, rig.program);
    for (std::uint32_t i = 0; i < 8; ++i) ram.poke(4 * i, 0x9E3779B9u * (i + 1));
    b.bus.finalize();
    Observers o(b, {&dm, &core, &dma});
    b.run_cycles(6000);
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(golden(b.kernel, o.wave, {stats(core), stats(dma)}, o.mon, o.est),
              rig.want);
  }
}

}  // namespace
}  // namespace ahbp::ahb
