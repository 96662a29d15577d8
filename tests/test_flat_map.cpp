// Unit tests for FlatMap, the open-addressed map behind the coherence
// directory, the GC task tracker and Env's line translation.
#include "core/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace osim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(FlatMap, SequentialChurnKeepsCapacityBounded) {
  // The GC task tracker's pattern: ids only increase, a window of them is
  // live, and each insert is matched by an erase. Tombstones must not make
  // the table grow with the number of keys that ever passed through it.
  constexpr std::uint64_t kLive = 32;
  constexpr std::uint64_t kKeys = 1 << 20;
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t t = 0; t < kKeys; ++t) {
    m[t] = 1;
    if (t >= kLive) {
      ASSERT_EQ(m.erase(t - kLive), 1u);
    }
  }
  EXPECT_EQ(m.size(), kLive);
  EXPECT_LE(m.capacity(), 8 * kLive);
  for (std::uint64_t t = kKeys - kLive; t < kKeys; ++t) {
    EXPECT_TRUE(m.contains(t)) << t;
  }
  EXPECT_FALSE(m.contains(kKeys - kLive - 1));
}

TEST(FlatMap, RandomChurnKeepsCapacityBounded) {
  constexpr std::size_t kLive = 100;
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::vector<std::uint64_t> live;
  std::uint64_t rng = 42;
  for (int i = 0; i < (1 << 20); ++i) {
    if (live.size() < kLive) {
      const std::uint64_t k = splitmix64(rng);
      if (m.try_emplace(k).second) {
        m[k] = ~k;
        live.push_back(k);
      }
    } else {
      const std::size_t victim = splitmix64(rng) % live.size();
      ASSERT_EQ(m.erase(live[victim]), 1u);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(m.size(), live.size());
  EXPECT_LE(m.capacity(), 8 * kLive);
  for (std::uint64_t k : live) {
    const std::uint64_t* v = m.find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, ~k);
  }
}

TEST(FlatMap, ValueReferencesSurviveErase) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = k * 10;
  std::uint64_t& kept = m[50];
  const std::uint64_t* kept_ptr = m.find(50);
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (k != 50) m.erase(k);
  }
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(50), kept_ptr);
  EXPECT_EQ(kept, 500u);
  kept = 7;
  EXPECT_EQ(*m.find(50), 7u);
}

TEST(FlatMap, FindOfAbsentKeyAfterHeavyTombstoning) {
  // Fill the table up to its load limit with keys that are then erased, so
  // most non-empty slots are tombstones; lookups of absent keys must still
  // terminate and miss, and re-inserted keys must be found once.
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 1; k <= 14; ++k) m[k] = 1;  // 14 of 16 slots
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 1; k <= 14; ++k) m.erase(k);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.find(k), nullptr) << k;
  }
  // Churn well past the capacity, then probe again.
  for (std::uint64_t k = 100; k < 100000; ++k) {
    m[k] = static_cast<int>(k);
    if (k >= 104) m.erase(k - 4);
  }
  EXPECT_EQ(m.size(), 4u);
  for (std::uint64_t k = 0; k < 99996; ++k) {
    ASSERT_EQ(m.find(k), nullptr) << k;
  }
  for (std::uint64_t k = 99996; k < 100000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), static_cast<int>(k));
  }
  EXPECT_FALSE(m.try_emplace(99999).second);
  EXPECT_EQ(m.size(), 4u);
}

TEST(FlatMap, GrowsWithTheLiveSet) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  EXPECT_EQ(m.capacity(), 0u);
  constexpr std::uint64_t kKeys = 10000;
  std::size_t last_cap = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    m[k * 64] = k;  // line-address-like keys
    EXPECT_GE(m.capacity(), last_cap);
    last_cap = m.capacity();
    // At most 7/8 of the slots are in use after every insert.
    ASSERT_LE(m.size() * 8, m.capacity() * 7);
  }
  EXPECT_EQ(m.size(), kKeys);
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);  // a power of two
  EXPECT_GE(m.capacity(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t* v = m.find(k * 64);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(m.find(kKeys * 64), nullptr);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(0), nullptr);
}

}  // namespace
}  // namespace osim
