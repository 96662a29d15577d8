// Unit tests for the memory hierarchy and coherence directory.
#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

TEST(MemorySystem, RejectsCoreCountsOutsideTheSharerMask) {
  // The directory keeps sharers in a 64-bit mask: core 64 would alias core
  // 0's bit, so a 65-core hierarchy must be refused, not built.
  for (int cores : {0, -1, 65, 128}) {
    telemetry::MetricRegistry reg(cores > 0 ? cores : 1);
    EXPECT_THROW(MemorySystem(cfg(cores), reg), std::invalid_argument)
        << cores;
  }
}

TEST(MemorySystem, HighestCoreKeepsItsOwnSharerBit) {
  // With 64 cores, core 63's eviction must leave core 0's copy tracked, so
  // a later write by core 1 still invalidates it.
  Fixture f(64);
  const Addr x = 0x8000;
  f.ms.access(0, x, AccessType::kRead);
  f.ms.access(63, x, AccessType::kRead);
  const std::size_t lines = 2 * f.c.l1.size_bytes / kLineBytes;
  for (std::size_t i = 1; i <= lines; ++i) {  // evict x from core 63's L1
    f.ms.access(63, x + static_cast<Addr>(i) * kLineBytes, AccessType::kRead);
  }
  ASSERT_FALSE(f.ms.line_in_l1(63, x));
  ASSERT_TRUE(f.ms.line_in_l1(0, x));
  f.ms.access(1, x, AccessType::kWrite);
  EXPECT_FALSE(f.ms.line_in_l1(0, x));
  const Cycles lat = f.ms.access(0, x, AccessType::kRead);
  EXPECT_EQ(lat, f.c.l1.hit_latency + f.c.remote_l1_latency);
}

TEST(MemorySystem, RandomTraceMatchesRecordedLatencies) {
  // A seeded mix of every public operation on 8 cores whose caches are tiny
  // (8-line L1s; a 24-line, 6-set L2 over a 64-line pool), so L1 evictions,
  // L2 evictions with back-invalidation, forwards, upgrades and
  // install_line's ownership paths all fire. Every returned latency, every
  // line drop (in order) and the final counters and L1 contents are hashed
  // and compared with a recorded value: any change of what the hierarchy
  // decides fails the test.
  constexpr int kCores = 8;
  constexpr std::uint64_t kLines = 64;
  MachineConfig c;
  c.num_cores = kCores;
  c.l1 = CacheConfig{4 * 2 * kLineBytes, 2, kLineBytes, 4};  // 4 sets x 2
  c.l2_per_core_bytes = 3 * kLineBytes;  // 24 lines, 4-way: 6 sets
  c.l2_ways = 4;
  telemetry::MetricRegistry reg(kCores);
  MemorySystem ms(c, reg);
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over 64-bit words
  auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  std::uint64_t drops = 0;
  ms.set_line_drop_observer([&](CoreId core, Addr line) {
    ++drops;
    mix(static_cast<std::uint64_t>(core));
    mix(line);
  });
  std::uint64_t rng = 0x0123456789ABCDEFull;
  auto next = [&rng] {  // splitmix64
    std::uint64_t z = (rng += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = next();
    const auto core = static_cast<CoreId>(r % kCores);
    // Line 0 is in the pool; the offset exercises line_of().
    const Addr addr = ((r >> 8) % kLines) * kLineBytes + (r >> 16) % 64;
    AccessOptions opts;
    switch ((r >> 24) % 8) {
      case 0:
      case 1:
        mix(ms.access(core, addr, AccessType::kRead));
        break;
      case 2:
        mix(ms.access(core, addr, AccessType::kWrite));
        break;
      case 3:
        opts.fill_l1 = false;
        mix(ms.access(core, addr, AccessType::kRead, opts));
        break;
      case 4:
        opts.fill_l1 = false;
        mix(ms.access(core, addr, AccessType::kWrite, opts));
        break;
      case 5:
        ms.install_line(core, addr, ((r >> 32) & 1) != 0);
        break;
      case 6:
        mix(ms.invalidate_others(core, addr));
        break;
      case 7:
        mix(ms.line_in_l1(core, addr) ? 1 : 0);
        break;
    }
  }
  for (const char* name : {"loads", "stores", "l1_hits", "l1_misses",
                           "l2_hits", "l2_misses", "remote_l1_fills",
                           "upgrades"}) {
    for (CoreId core = 0; core < kCores; ++core) {
      mix(reg.value(telemetry::Component::kCache, name, core));
    }
  }
  for (CoreId core = 0; core < kCores; ++core) {
    for (std::uint64_t l = 0; l < kLines; ++l) {
      mix(ms.line_in_l1(core, l * kLineBytes) ? 1 : 0);
    }
  }
  // The trace overflows the L2 many times over.
  EXPECT_GT(reg.total(telemetry::Component::kCache, "l2_misses"), 1000u);
  EXPECT_GT(drops, 1000u);
  EXPECT_EQ(hash, 16050611119444643457ull);
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
