// Tests for the multi-layer TLM interconnect: parallelism, contention,
// energy accounting per layer.

#include "tlm/multilayer.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bits_digest.hpp"
#include "sim/report.hpp"

namespace ahbp::tlm {
namespace {

using sim::SimError;

TEST(Multilayer, RejectsBadConfigs) {
  EXPECT_THROW(MultilayerBus(MultilayerBus::Config{.n_masters = 0}), SimError);
  MultilayerBus bus({.n_masters = 2});
  TlmMemory a, b;
  bus.map(a, 0, 0x100);
  EXPECT_THROW(bus.map(b, 0x80, 0x100), SimError);
  EXPECT_THROW(bus.map(b, 0x200, 0), SimError);
}

TEST(Multilayer, DisjointTrafficRunsInParallel) {
  MultilayerBus bus({.n_masters = 2});
  TlmMemory s0, s1;
  bus.map(s0, 0x0000, 0x1000);
  bus.map(s1, 0x1000, 0x1000);
  for (int i = 0; i < 100; ++i) {
    bus.write(0, 0x0000 + 4 * i, i);
    bus.write(1, 0x1000 + 4 * i, i);
  }
  // Each layer did 100 cycles; global time = max, not sum.
  EXPECT_EQ(bus.layer_cycles(0), 100u);
  EXPECT_EQ(bus.layer_cycles(1), 100u);
  EXPECT_EQ(bus.cycles(), 100u);
  EXPECT_EQ(bus.transfers(), 200u);
  EXPECT_EQ(bus.contention_cycles(), 0u);
}

TEST(Multilayer, SameSlaveTrafficSerializes) {
  MultilayerBus bus({.n_masters = 2});
  TlmMemory s0;
  bus.map(s0, 0x0000, 0x1000);
  for (int i = 0; i < 50; ++i) {
    bus.write(0, 4 * i, i);
    bus.write(1, 4 * i, i + 1000);
  }
  // The slave's input stage serializes: layers stall on each other.
  EXPECT_GT(bus.contention_cycles(), 40u);
  EXPECT_GE(bus.cycles(), 99u);  // ~2 transfers per global cycle impossible
}

TEST(Multilayer, DataIntegrityAcrossLayers) {
  MultilayerBus bus({.n_masters = 3});
  TlmMemory s0;
  bus.map(s0, 0x0000, 0x1000);
  bus.write(0, 0x10, 0xA);
  bus.write(1, 0x14, 0xB);
  bus.write(2, 0x18, 0xC);
  std::uint32_t v = 0;
  bus.read(2, 0x10, v);
  EXPECT_EQ(v, 0xAu);
  bus.read(0, 0x18, v);
  EXPECT_EQ(v, 0xCu);
}

TEST(Multilayer, EnergyAccumulatesPerLayer) {
  MultilayerBus bus({.n_masters = 2});
  TlmMemory s0, s1;
  bus.map(s0, 0x0000, 0x1000);
  bus.map(s1, 0x1000, 0x1000);
  for (int i = 0; i < 64; ++i) bus.write(0, 4 * i, 0xFFFFFFFFu * (i & 1));
  EXPECT_GT(bus.layer_fsm(0).total_energy(), 0.0);
  EXPECT_DOUBLE_EQ(bus.layer_fsm(1).total_energy(), 0.0);  // layer 1 idle
  EXPECT_NEAR(bus.total_energy(), bus.layer_fsm(0).total_energy(), 1e-18);
}

TEST(Multilayer, MoreLayersMoreFabricEnergyForSameWork) {
  // The same serialized workload costs more on a multi-layer fabric than
  // on a shared bus (duplicated input stages must still be clocked while
  // a layer stalls) -- quantified by the topology bench; here we assert
  // the qualitative ordering for the contended case.
  auto shared_energy = [] {
    TlmBus bus(TlmBus::Config{.n_masters = 2});
    TlmMemory s;
    bus.map(s, 0, 0x1000);
    std::mt19937_64 rng(3);
    for (int i = 0; i < 500; ++i) {
      bus.write(i % 2, 4 * (rng() % 256), static_cast<std::uint32_t>(rng()));
    }
    return bus.total_energy();
  }();
  auto multi_energy = [] {
    MultilayerBus bus({.n_masters = 2});
    TlmMemory s;
    bus.map(s, 0, 0x1000);
    std::mt19937_64 rng(3);
    for (int i = 0; i < 500; ++i) {
      bus.write(i % 2, 4 * (rng() % 256), static_cast<std::uint32_t>(rng()));
    }
    return bus.total_energy();
  }();
  EXPECT_GT(multi_energy, shared_energy);
}

TEST(Multilayer, UnmappedAccessCountsError) {
  MultilayerBus bus({.n_masters = 1});
  TlmMemory s;
  bus.map(s, 0, 0x100);
  std::uint32_t v;
  EXPECT_FALSE(bus.read(0, 0xFFFF, v));
}

/// The bench_ablation_topology workload on the multi-layer fabric: two
/// masters, two slaves, 20000 random writes per master, each master on
/// its own slave or both on slave 0.
struct TopologyRig {
  explicit TopologyRig(bool same_slave) {
    bus.map(s0, 0x0000, 0x1000);
    bus.map(s1, 0x1000, 0x1000);
    std::mt19937_64 rng(7);
    for (unsigned i = 0; i < 20000; ++i) {
      for (unsigned m = 0; m < 2; ++m) {
        const std::uint32_t base = same_slave ? 0x0000 : 0x1000 * m;
        bus.write(m, base + 4 * (rng() % 256), static_cast<std::uint32_t>(rng()));
      }
    }
  }
  MultilayerBus bus{{.n_masters = 2}};
  TlmMemory s0, s1;
};

struct LayerGolden {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::uint64_t energy_digest;  ///< BitsDigest of the instruction energies
  power::BlockEnergy blocks;
};

struct TopologyGolden {
  bool same_slave;
  std::uint64_t cycles, contention, transfers;
  LayerGolden layers[2];
};

TEST(Multilayer, MatchesParentBitForBit) {
  // Recorded from the fabric's own per-layer decode and view synthesis
  // before its layers became TlmBus instances.
  const TopologyGolden want[] = {
      {false, 20000, 0, 40000,
       {{{{"WRITE_WRITE", 20000}},
         0x2d24d55d76e2a1baull,
         {0x1.2b578ffa11092p-32, 0x1.87e1f86fb92eap-26, 0x1.18aa87fd03771p-23,
          0x0p+0}},
        {{{"WRITE_WRITE", 20000}},
         0x3be6a50e3df5a694ull,
         {0x1.2b578ffa11092p-32, 0x1.874707f0913c3p-26, 0x1.1844b1ee49133p-23,
          0x0p+0}}}},
      {true, 40000, 39999, 40000,
       {{{{"IDLE_WRITE", 19999}, {"WRITE_IDLE", 19999}, {"WRITE_WRITE", 1}},
         0x6930dc7119868101ull,
         {0x1.88de0436444d4p-27, 0x1.88588288ff42ep-25, 0x1.34788e3f6a191p-22,
          0x1.eb155ef2fa80fp-24}},
        {{{"IDLE_IDLE", 1}, {"IDLE_WRITE", 20000}, {"WRITE_IDLE", 19999}},
         0xe89a7e4166021c66ull,
         {0x1.88e087eac752fp-27, 0x1.8848586e4742dp-25, 0x1.3468362a1675ap-22,
          0x1.eb1883949e48p-24}}}},
  };
  for (const TopologyGolden& g : want) {
    SCOPED_TRACE(g.same_slave ? "shared slave" : "disjoint slaves");
    const TopologyRig rig(g.same_slave);
    const MultilayerBus& bus = rig.bus;
    EXPECT_EQ(bus.cycles(), g.cycles);
    EXPECT_EQ(bus.contention_cycles(), g.contention);
    EXPECT_EQ(bus.transfers(), g.transfers);
    for (unsigned l = 0; l < 2; ++l) {
      SCOPED_TRACE(l);
      const power::PowerFsm& fsm = bus.layer_fsm(l);
      std::vector<std::pair<std::string, std::uint64_t>> counts;
      testutil::BitsDigest energies;
      for (const auto& [name, st] : fsm.instructions()) {
        counts.emplace_back(name, st.count);
        energies.add(st.energy);
      }
      EXPECT_EQ(counts, g.layers[l].counts);
      EXPECT_EQ(energies.value(), g.layers[l].energy_digest);
      const power::BlockEnergy& b = fsm.block_totals();
      EXPECT_EQ(b.arb, g.layers[l].blocks.arb);
      EXPECT_EQ(b.dec, g.layers[l].blocks.dec);
      EXPECT_EQ(b.m2s, g.layers[l].blocks.m2s);
      EXPECT_EQ(b.s2m, g.layers[l].blocks.s2m);
    }
  }
}

}  // namespace
}  // namespace ahbp::tlm
