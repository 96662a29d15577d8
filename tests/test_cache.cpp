// Unit tests for the set-associative LRU cache model.
#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace osim {
namespace {

CacheConfig small_cfg() {
  // 4 sets x 2 ways x 64 B = 512 B.
  return CacheConfig{512, 2, kLineBytes, 4};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.access(0x1000, false));
  c.fill(0x1000, false);
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.contains(0x1000));
  EXPECT_TRUE(c.contains(0x103f));   // same line
  EXPECT_FALSE(c.contains(0x1040));  // next line
}

TEST(Cache, WriteSetsDirty) {
  Cache c(small_cfg());
  c.fill(0x2000, false);
  EXPECT_FALSE(c.dirty(0x2000));
  c.access(0x2000, true);
  EXPECT_TRUE(c.dirty(0x2000));
  c.clean(0x2000);
  EXPECT_FALSE(c.dirty(0x2000));
}

TEST(Cache, FillDirty) {
  Cache c(small_cfg());
  c.fill(0x2000, true);
  EXPECT_TRUE(c.dirty(0x2000));
}

TEST(Cache, LruEviction) {
  Cache c(small_cfg());
  // Three lines mapping to the same set (stride = sets * line = 256).
  const Addr a = 0x0, b = 0x100, d = 0x200;
  c.fill(a, false);
  c.fill(b, false);
  c.access(a, false);            // a most recent; b is LRU
  Cache::Eviction ev = c.fill(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, b);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(Cache, EvictionReportsDirtyVictim) {
  Cache c(small_cfg());
  const Addr a = 0x0, b = 0x100, d = 0x200;
  c.fill(a, false);
  c.fill(b, true);  // dirty
  c.access(a, false);
  Cache::Eviction ev = c.fill(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, b);
  EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InvalidatedWayIsRefilledBeforeLruVictim) {
  // Victim rule: the set's first invalid way by index, else the least
  // recently used line. a, b and d share a set of the 2-way cache.
  Cache c(small_cfg());
  const Addr a = 0x0, b = 0x100, d = 0x200, e = 0x300;
  c.fill(a, false);
  c.fill(b, false);
  c.access(b, false);  // a is the LRU line
  EXPECT_TRUE(c.invalidate(b));
  // The freed way takes d although a is older: nothing is evicted.
  EXPECT_FALSE(c.fill(d, false).valid);
  EXPECT_TRUE(c.contains(a));
  EXPECT_TRUE(c.contains(d));
  // The set is full again, so the next fill evicts the LRU line, a.
  Cache::Eviction ev = c.fill(e, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, a);
  // With both ways freed, two fills evict nothing and the third evicts the
  // older of the two new lines.
  EXPECT_TRUE(c.invalidate(d));
  EXPECT_TRUE(c.invalidate(e));
  EXPECT_FALSE(c.fill(a, false).valid);
  EXPECT_FALSE(c.fill(b, false).valid);
  c.access(a, false);
  ev = c.fill(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, b);
}

TEST(Cache, LineZeroIsAValidTag) {
  // Address 0 is an ordinary line: resident, dirty, evicted as line 0.
  Cache c(small_cfg());
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.fill(0, false).valid);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(0x3f));
  EXPECT_EQ(c.occupied_lines(), 1u);
  EXPECT_FALSE(c.dirty(0));
  EXPECT_TRUE(c.access(0, true));
  EXPECT_TRUE(c.dirty(0));
  c.fill(0x100, false);               // same set; line 0 is now the LRU
  Cache::Eviction ev = c.fill(0x200, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 0u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_FALSE(c.contains(0));
  // Filled again clean, then invalidated like any other line.
  c.invalidate(0x100);
  EXPECT_FALSE(c.fill(0, false).valid);
  EXPECT_FALSE(c.dirty(0));
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(small_cfg());
  c.fill(0x40, true);
  EXPECT_TRUE(c.invalidate(0x40));
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_FALSE(c.invalidate(0x40));  // already gone
}

TEST(Cache, FlushEmptiesEverything) {
  Cache c(small_cfg());
  for (Addr a = 0; a < 512; a += 64) c.fill(a, false);
  EXPECT_GT(c.occupied_lines(), 0u);
  c.flush();
  EXPECT_EQ(c.occupied_lines(), 0u);
  for (Addr a = 0; a < 512; a += 64) EXPECT_FALSE(c.contains(a));
}

TEST(Cache, DistinctSetsDoNotInterfere) {
  Cache c(small_cfg());
  // Fill every set to capacity; nothing should evict.
  for (Addr a = 0; a < 512; a += 64) {
    EXPECT_FALSE(c.fill(a, false).valid) << a;
  }
  EXPECT_EQ(c.occupied_lines(), 8u);
}

TEST(Cache, RejectsEmptyGeometry) {
  EXPECT_THROW(Cache(CacheConfig{0, 1, kLineBytes, 1}), std::invalid_argument);
}

TEST(Cache, NonPowerOfTwoSetCountWorks) {
  // 3 sets x 1 way (the per-core L2 slice of Table II also has a non-power-
  // of-two set count).
  Cache c(CacheConfig{3 * 64, 1, kLineBytes, 1});
  c.fill(0 * 64, false);
  c.fill(1 * 64, false);
  c.fill(2 * 64, false);
  EXPECT_EQ(c.occupied_lines(), 3u);
  EXPECT_TRUE(c.contains(0));
  // Line 3*64 maps onto set 0 and evicts line 0.
  Cache::Eviction ev = c.fill(3 * 64, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 0u);
}

TEST(Cache, RejectsNonStandardLineSize) {
  EXPECT_THROW(Cache(CacheConfig{1024, 2, 32, 1}), std::invalid_argument);
}

TEST(Cache, Table2Geometries) {
  // L1: 32 KB, 8-way => 64 sets. L2 (32 cores): 48 MB, 16-way => 49152 sets.
  Cache l1(CacheConfig{32 * 1024, 8, kLineBytes, 4});
  EXPECT_EQ(l1.config().num_sets(), 64u);
  MachineConfig mc;
  mc.num_cores = 32;
  EXPECT_EQ(mc.l2_config().size_bytes, std::size_t{32} * 3 * 512 * 1024);
}

class CacheCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheCapacitySweep, WorkingSetLargerThanCacheMisses) {
  const std::size_t kb = GetParam();
  Cache c(CacheConfig{kb * 1024, 8, kLineBytes, 4});
  const std::size_t lines = (kb * 1024) / kLineBytes;
  // Touch 2x capacity twice with a sequential sweep: second pass still
  // misses everywhere under LRU (classic streaming anti-pattern).
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 2 * lines; ++i) {
      const Addr a = static_cast<Addr>(i) * kLineBytes;
      if (c.access(a, false)) {
        ++hits;
      } else {
        c.fill(a, false);
      }
    }
    EXPECT_EQ(hits, 0u) << "pass " << pass;
  }
  // Working set half of capacity: second pass hits everywhere.
  c.flush();
  std::size_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lines / 2; ++i) {
      const Addr a = static_cast<Addr>(i) * kLineBytes;
      if (c.access(a, false)) {
        ++hits;
      } else {
        c.fill(a, false);
      }
    }
  }
  EXPECT_EQ(hits, lines / 2);
}

INSTANTIATE_TEST_SUITE_P(L1Sizes, CacheCapacitySweep,
                         ::testing::Values(8, 16, 32, 64, 128));

}  // namespace
}  // namespace osim
