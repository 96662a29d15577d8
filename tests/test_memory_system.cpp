// Unit tests for the memory hierarchy and coherence directory.
#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/address_map.hpp"

namespace osim {
namespace {

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

struct Fixture {
  explicit Fixture(int cores) : c(cfg(cores)), reg(cores), ms(c, reg) {}
  /// Per-core cache counter `name` of `core`, read from the registry.
  std::uint64_t cache(const char* name, CoreId core) const {
    return reg.value(telemetry::Component::kCache, name, core);
  }
  MachineConfig c;
  telemetry::MetricRegistry reg;
  MemorySystem ms;
};

TEST(MemorySystem, ColdMissGoesToDram) {
  Fixture f(1);
  const Cycles lat = f.ms.access(0, 0x1000, AccessType::kRead);
  // probe + L2 miss + DRAM
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.l2_hit_latency + f.c.dram_latency);
  EXPECT_EQ(f.cache("l1_misses", 0), 1u);
  EXPECT_EQ(f.cache("l2_misses", 0), 1u);
}

TEST(MemorySystem, SecondAccessHitsL1) {
  Fixture f(1);
  f.ms.access(0, 0x1000, AccessType::kRead);
  const Cycles lat = f.ms.access(0, 0x1008, AccessType::kRead);  // same line
  EXPECT_EQ(lat, f.c.l1.hit_latency);
  EXPECT_EQ(f.cache("l1_hits", 0), 1u);
}

TEST(MemorySystem, L1EvictionStillHitsL2) {
  Fixture f(1);
  // L1 is 32 KB / 8-way / 64 sets. Walk 2x L1 capacity, then re-touch the
  // first line: it must be gone from L1 but present in the (much larger) L2.
  const std::size_t lines = 2 * f.c.l1.size_bytes / kLineBytes;
  for (std::size_t i = 0; i < lines; ++i) {
    f.ms.access(0, static_cast<Addr>(i) * kLineBytes, AccessType::kRead);
  }
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x0));
  const Cycles lat = f.ms.access(0, 0x0, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.l2_hit_latency);
  EXPECT_GE(f.cache("l2_hits", 0), 1u);
}

TEST(MemorySystem, ReadSharingAcrossCores) {
  Fixture f(2);
  f.ms.access(0, 0x2000, AccessType::kRead);
  f.ms.access(1, 0x2000, AccessType::kRead);  // L2 hit, both now share
  EXPECT_TRUE(f.ms.line_in_l1(0, 0x2000));
  EXPECT_TRUE(f.ms.line_in_l1(1, 0x2000));
}

TEST(MemorySystem, WriteInvalidatesOtherSharers) {
  Fixture f(2);
  f.ms.access(0, 0x2000, AccessType::kRead);
  f.ms.access(1, 0x2000, AccessType::kRead);
  const Cycles lat = f.ms.access(0, 0x2000, AccessType::kWrite);  // upgrade
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.invalidate_latency);
  EXPECT_TRUE(f.ms.line_in_l1(0, 0x2000));
  EXPECT_FALSE(f.ms.line_in_l1(1, 0x2000));
  EXPECT_EQ(f.cache("upgrades", 0), 1u);
}

TEST(MemorySystem, RemoteDirtyLineForwarded) {
  Fixture f(2);
  f.ms.access(0, 0x3000, AccessType::kWrite);  // core 0 owns modified
  const Cycles lat = f.ms.access(1, 0x3000, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.remote_l1_latency);
  EXPECT_EQ(f.cache("remote_l1_fills", 1), 1u);
  // Both have it shared now; a write by core 1 upgrades and invalidates 0.
  f.ms.access(1, 0x3000, AccessType::kWrite);
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x3000));
}

TEST(MemorySystem, WriteMissInvalidatesRemoteOwner) {
  Fixture f(2);
  f.ms.access(0, 0x3000, AccessType::kWrite);
  f.ms.access(1, 0x3000, AccessType::kWrite);
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x3000));
  EXPECT_TRUE(f.ms.line_in_l1(1, 0x3000));
}

TEST(MemorySystem, NoFillLeavesL1Untouched) {
  Fixture f(1);
  AccessOptions nofill;
  nofill.fill_l1 = false;
  f.ms.access(0, 0x4000, AccessType::kRead, nofill);
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x4000));
  // But it did land in L2: next (filling) access is an L2 hit.
  const Cycles lat = f.ms.access(0, 0x4000, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.l2_hit_latency);
}

TEST(MemorySystem, NoFillWriteGoesToL2) {
  // A versioned-block write under compression keeps the uncompressed line
  // out of L1 but must land in L2.
  Fixture f(1);
  AccessOptions nofill;
  nofill.fill_l1 = false;
  f.ms.access(0, 0x4100, AccessType::kWrite, nofill);
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x4100));
  const Cycles lat = f.ms.access(0, 0x4100, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.l2_hit_latency);  // L2 hit
}

TEST(MemorySystem, InstallLineMaterializesWithoutFetch) {
  Fixture f(2);
  f.ms.install_line(0, 0x5100, /*dirty=*/true);
  EXPECT_TRUE(f.ms.line_in_l1(0, 0x5100));
  // Core 1 reading it sees a remote dirty line (forwarded).
  const Cycles lat = f.ms.access(1, 0x5100, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.remote_l1_latency);
}

TEST(MemorySystem, InvalidateOthersDropsRemoteCopies) {
  Fixture f(3);
  f.ms.access(0, 0x5000, AccessType::kRead);
  f.ms.access(1, 0x5000, AccessType::kRead);
  f.ms.access(2, 0x5000, AccessType::kRead);
  const Cycles lat = f.ms.invalidate_others(0, 0x5000);
  EXPECT_EQ(lat, f.c.invalidate_latency);
  EXPECT_TRUE(f.ms.line_in_l1(0, 0x5000));
  EXPECT_FALSE(f.ms.line_in_l1(1, 0x5000));
  EXPECT_FALSE(f.ms.line_in_l1(2, 0x5000));
  // No copies elsewhere: second call is free.
  EXPECT_EQ(f.ms.invalidate_others(0, 0x5000), 0u);
}

TEST(MemorySystem, DropObserverFiresOnInvalidation) {
  Fixture f(2);
  std::vector<std::pair<CoreId, Addr>> drops;
  f.ms.set_line_drop_observer(
      [&](CoreId c, Addr l) { drops.emplace_back(c, l); });
  f.ms.access(0, 0x6000, AccessType::kRead);
  f.ms.access(1, 0x6000, AccessType::kWrite);  // invalidates core 0
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].first, 0);
  EXPECT_EQ(drops[0].second, line_of(Addr{0x6000}));
}

TEST(MemorySystem, DropObserverFiresOnEviction) {
  Fixture f(1);
  int drops = 0;
  f.ms.set_line_drop_observer([&](CoreId, Addr) { ++drops; });
  const std::size_t lines = 2 * f.c.l1.size_bytes / kLineBytes;
  for (std::size_t i = 0; i < lines; ++i) {
    f.ms.access(0, static_cast<Addr>(i) * kLineBytes, AccessType::kRead);
  }
  EXPECT_GT(drops, 0);
}

TEST(MemorySystem, FlushAllEmptiesHierarchy) {
  Fixture f(2);
  f.ms.access(0, 0x7000, AccessType::kWrite);
  f.ms.flush_all();
  EXPECT_FALSE(f.ms.line_in_l1(0, 0x7000));
  const Cycles lat = f.ms.access(0, 0x7000, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.l2_hit_latency + f.c.dram_latency);
}

TEST(MemorySystem, SyntheticRegionsDoNotAliasHostHeap) {
  // Version-block and root-table addresses sit above the 47-bit user VA
  // ceiling, so they can never collide with host pointers used as addresses.
  int on_heap = 0;
  const auto host = reinterpret_cast<Addr>(&on_heap);
  EXPECT_LT(host, kVersionBlockBase);
  EXPECT_LT(host, kRootTableBase);
  EXPECT_NE(line_of(version_block_addr(0)), line_of(root_addr(0)));
}

}  // namespace
}  // namespace osim
