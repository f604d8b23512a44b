// Unit tests for the AHB address decoder.

#include "ahb/decoder.hpp"

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "sim/sim.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;

TEST(AddressRange, ContainsAndOverlaps) {
  const AddressRange a{0x1000, 0x100};
  EXPECT_TRUE(a.contains(0x1000));
  EXPECT_TRUE(a.contains(0x10FF));
  EXPECT_FALSE(a.contains(0x1100));
  EXPECT_FALSE(a.contains(0x0FFF));
  EXPECT_TRUE(a.overlaps(AddressRange{0x10F0, 0x100}));
  EXPECT_FALSE(a.overlaps(AddressRange{0x1100, 0x100}));
  EXPECT_FALSE(a.overlaps(AddressRange{0x0F00, 0x100}));
  EXPECT_TRUE(a.overlaps(AddressRange{0x0, 0x10000}));
}

TEST(AddressRange, OverlapAtTheTopOfTheAddressSpace) {
  // A range ending exactly at 4 GiB: base + size wraps to 0 in 32 bits.
  const AddressRange top{0xFFFFF000, 0x1000};
  const AddressRange inner{0xFFFFF800, 0x100};
  const AddressRange below{0xFFFFE000, 0x1000};
  EXPECT_TRUE(top.overlaps(inner));
  EXPECT_TRUE(inner.overlaps(top));
  EXPECT_FALSE(top.overlaps(below));
  EXPECT_FALSE(below.overlaps(top));
  // An empty range holds no address, so it overlaps nothing.
  const AddressRange empty{0xFFFFF800, 0};
  EXPECT_FALSE(top.overlaps(empty));
  EXPECT_FALSE(empty.overlaps(top));
}

TEST(Decoder, RejectsOverlapEndingAt4GiB) {
  Bench b;
  MemorySlave top(&b.top, "top", b.bus, {.base = 0xFFFFF000, .size = 0x1000});
  EXPECT_THROW(
      MemorySlave(&b.top, "inner", b.bus, {.base = 0xFFFFF800, .size = 0x100}),
      SimError);
  EXPECT_NO_THROW(
      MemorySlave(&b.top, "below", b.bus, {.base = 0xFFFFE000, .size = 0x1000}));
}

TEST(Decoder, RejectsOverlappingRanges) {
  Bench b;
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  EXPECT_THROW(
      MemorySlave(&b.top, "s1", b.bus, {.base = 0x0800, .size = 0x1000}),
      SimError);
}

TEST(Decoder, SelectsByAddress) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  MemorySlave s1(&b.top, "s1", b.bus, {.base = 0x1000, .size = 0x1000});
  MemorySlave s2(&b.top, "s2", b.bus, {.base = 0x2000, .size = 0x1000});
  b.bus.finalize();
  EXPECT_EQ(b.bus.n_slaves(), 4u);  // 3 memories + default slave

  // Drive addresses straight onto the master's bundle; the mux routes
  // them (default master is granted).
  auto& haddr = dm.signals().haddr;
  struct Case {
    std::uint32_t addr;
    unsigned slave;
  };
  for (const auto& c :
       {Case{0x0004, 0}, Case{0x1FFC, 1}, Case{0x2000, 2}, Case{0x0FFC, 0}}) {
    haddr.write(c.addr);
    b.run_cycles(1);
    EXPECT_TRUE(b.bus.hsel(c.slave).read()) << std::hex << c.addr;
    EXPECT_EQ(b.bus.decoder().selected().read(), c.slave);
    for (unsigned s = 0; s < 3; ++s) {
      if (s != c.slave) {
        EXPECT_FALSE(b.bus.hsel(s).read());
      }
    }
  }
}

TEST(Decoder, UnmappedAddressSelectsDefaultSlave) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x0000, .size = 0x1000});
  b.bus.finalize();
  const unsigned default_slave = b.bus.n_slaves() - 1;

  dm.signals().haddr.write(0xDEAD0000);
  b.run_cycles(1);
  EXPECT_TRUE(b.bus.hsel(default_slave).read());
  EXPECT_FALSE(b.bus.hsel(0).read());
}

TEST(Decoder, FinalizeRequiresSlaves) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  // finalize() adds the internal default slave, so it succeeds even with
  // no user slave -- but every transfer then errors. Just checks no throw.
  EXPECT_NO_THROW(b.bus.finalize());
}

TEST(Decoder, AttachAfterFinalizeRejected) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  EXPECT_THROW(MemorySlave(&b.top, "late", b.bus, {.base = 0x9000, .size = 0x100}),
               SimError);
}

TEST(Decoder, RangeAccessor) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  MemorySlave s0(&b.top, "s0", b.bus, {.base = 0x4000, .size = 0x800});
  b.bus.finalize();
  EXPECT_EQ(b.bus.decoder().range(0).base, 0x4000u);
  EXPECT_EQ(b.bus.decoder().range(0).size, 0x800u);
}

}  // namespace
}  // namespace ahbp::ahb
