// Unit tests for version block lists and the block pool.
#include "core/version_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <tuple>
#include <vector>

#include "core/fault.hpp"

namespace osim {
namespace {

class VersionListTest : public ::testing::Test {
 protected:
  BlockIndex make(Ver v, std::uint64_t data = 0) {
    const BlockIndex b = pool.alloc();
    EXPECT_NE(b, kNullBlock);
    pool[b].version = v;
    pool[b].data = data;
    return b;
  }

  std::vector<Ver> versions_in_order() {
    std::vector<Ver> out;
    for (BlockIndex b = root; b != kNullBlock; b = pool[b].next) {
      out.push_back(pool[b].version);
    }
    return out;
  }

  BlockPool pool{64};
  BlockIndex root = kNullBlock;
};

TEST_F(VersionListTest, PoolAllocFreeRoundTrip) {
  EXPECT_EQ(pool.free_count(), 64u);
  const BlockIndex b = pool.alloc();
  EXPECT_EQ(pool.free_count(), 63u);
  EXPECT_EQ(pool[b].state, BlockState::kLive);
  const auto gen = pool[b].generation;
  pool.free(b);
  EXPECT_EQ(pool.free_count(), 64u);
  EXPECT_EQ(pool[b].state, BlockState::kFree);
  EXPECT_EQ(pool[b].generation, gen + 1);
}

TEST_F(VersionListTest, PoolExhaustionReturnsNull) {
  for (int i = 0; i < 64; ++i) EXPECT_NE(pool.alloc(), kNullBlock);
  EXPECT_EQ(pool.alloc(), kNullBlock);
  pool.grow(8);
  EXPECT_NE(pool.alloc(), kNullBlock);
}

TEST_F(VersionListTest, InsertIntoEmptyListBecomesHead) {
  const auto r = list_insert(pool, &root, make(5), /*sorted=*/true);
  EXPECT_TRUE(r.at_head);
  EXPECT_EQ(r.shadowed, kNullBlock);
  EXPECT_TRUE(pool[root].head);
  EXPECT_EQ(versions_in_order(), (std::vector<Ver>{5}));
}

TEST_F(VersionListTest, SortedInsertKeepsNewestFirst) {
  for (Ver v : {3, 1, 5, 2, 4}) list_insert(pool, &root, make(v), true);
  EXPECT_EQ(versions_in_order(), (std::vector<Ver>{5, 4, 3, 2, 1}));
  // Head bit is set exactly on the head.
  EXPECT_TRUE(pool[root].head);
  int heads = 0;
  for (BlockIndex b = root; b != kNullBlock; b = pool[b].next) {
    heads += pool[b].head ? 1 : 0;
  }
  EXPECT_EQ(heads, 1);
}

TEST_F(VersionListTest, InsertAtHeadShadowsOldHead) {
  list_insert(pool, &root, make(1), true);
  const BlockIndex old_head = root;
  const auto r = list_insert(pool, &root, make(2), true);
  EXPECT_TRUE(r.at_head);
  EXPECT_EQ(r.shadowed, old_head);
}

TEST_F(VersionListTest, MidInsertIsBornShadowed) {
  list_insert(pool, &root, make(1), true);
  list_insert(pool, &root, make(5), true);
  const auto r = list_insert(pool, &root, make(3), true);
  EXPECT_FALSE(r.at_head);
  EXPECT_EQ(r.shadowed, r.block);
  EXPECT_EQ(r.pred, root);  // inserted right after the head (5)
}

TEST_F(VersionListTest, DuplicateVersionFaults) {
  list_insert(pool, &root, make(7), true);
  const BlockIndex dup = make(7);
  try {
    list_insert(pool, &root, dup, true);
    FAIL() << "expected OFault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kVersionAlreadyExists);
  }
}

TEST_F(VersionListTest, FindExactHitsAndMisses) {
  for (Ver v : {2, 4, 6}) list_insert(pool, &root, make(v, v * 10), true);
  auto r = find_exact(pool, root, 4, true);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(pool[r.block].data, 40u);
  EXPECT_EQ(r.blocks_walked, 2);  // 6 then 4
  EXPECT_FALSE(r.is_head);
  EXPECT_TRUE(r.has_newer);
  EXPECT_EQ(r.newer, 6u);

  EXPECT_FALSE(find_exact(pool, root, 3, true).found());
  EXPECT_FALSE(find_exact(pool, root, 99, true).found());
  // Sorted early termination: searching 3 stops after seeing 2.
  EXPECT_LE(find_exact(pool, root, 3, true).blocks_walked, 3);
}

TEST_F(VersionListTest, FindExactOnHeadReportsHead) {
  for (Ver v : {2, 4, 6}) list_insert(pool, &root, make(v), true);
  auto r = find_exact(pool, root, 6, true);
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.is_head);
  EXPECT_FALSE(r.has_newer);
}

TEST_F(VersionListTest, FindLatestSemantics) {
  for (Ver v : {2, 4, 6}) list_insert(pool, &root, make(v, v * 10), true);
  // Below the lowest version: nothing.
  EXPECT_FALSE(find_latest(pool, root, 1, true).found());
  // Exactly a version.
  auto r = find_latest(pool, root, 4, true);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(pool[r.block].version, 4u);
  EXPECT_TRUE(r.has_newer);
  EXPECT_EQ(r.newer, 6u);
  // Between versions: round down.
  r = find_latest(pool, root, 5, true);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(pool[r.block].version, 4u);
  // Above everything: the head.
  r = find_latest(pool, root, 100, true);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(pool[r.block].version, 6u);
  EXPECT_TRUE(r.is_head);
}

TEST_F(VersionListTest, HeadBitViolationFaults) {
  for (Ver v : {1, 2, 3}) list_insert(pool, &root, make(v), true);
  const BlockIndex second = pool[root].next;
  try {
    find_exact(pool, second, 1, true);
    FAIL() << "expected OFault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kNotListHead);
  }
}

TEST_F(VersionListTest, UnlinkMiddleAndHead) {
  std::vector<BlockIndex> blocks;
  for (Ver v : {1, 2, 3}) {
    list_insert(pool, &root, make(v), true);
  }
  // List: 3 -> 2 -> 1. Unlink 2 (middle).
  const BlockIndex mid = pool[root].next;
  list_unlink(pool, &root, mid);
  EXPECT_EQ(versions_in_order(), (std::vector<Ver>{3, 1}));
  // Unlink the head; the next block inherits the head bit.
  const BlockIndex old_head = root;
  list_unlink(pool, &root, old_head);
  EXPECT_EQ(versions_in_order(), (std::vector<Ver>{1}));
  EXPECT_TRUE(pool[root].head);
  EXPECT_FALSE(pool[old_head].head);
}

TEST_F(VersionListTest, UnsortedInsertAlwaysAtHead) {
  for (Ver v : {3, 1, 5}) list_insert(pool, &root, make(v), /*sorted=*/false);
  EXPECT_EQ(versions_in_order(), (std::vector<Ver>{5, 1, 3}));
}

TEST_F(VersionListTest, UnsortedFindScansWholeList) {
  for (Ver v : {3, 1, 5, 2}) list_insert(pool, &root, make(v, v), false);
  auto r = find_latest(pool, root, 4, false);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(pool[r.block].version, 3u);
  EXPECT_EQ(r.blocks_walked, 4);  // no early termination
  auto e = find_exact(pool, root, 3, false);
  ASSERT_TRUE(e.found());
  EXPECT_EQ(pool[e.block].data, 3u);
}

// The block pool as it was before it carved on demand: the constructor
// builds its whole batch and threads it onto the free list. Kept as the
// reference for the lazy pool's allocation order, which block indices (the
// simulated physical pointers) depend on.
class EagerPool {
 public:
  explicit EagerPool(std::size_t n) { grow(n); }

  BlockIndex alloc() {
    if (free_head_ == kNullBlock) return kNullBlock;
    const BlockIndex b = free_head_;
    VersionBlock& vb = blocks_[b];
    free_head_ = vb.next;
    --free_count_;
    vb.next = kNullBlock;
    vb.head = false;
    vb.locked_by = kNoTask;
    vb.state = BlockState::kLive;
    return b;
  }

  void free(BlockIndex b) {
    VersionBlock& vb = blocks_[b];
    vb.state = BlockState::kFree;
    vb.generation++;
    vb.next = free_head_;
    free_head_ = b;
    ++free_count_;
  }

  void grow(std::size_t n) {
    const std::size_t old = blocks_.size();
    blocks_.resize(old + n);
    for (std::size_t i = old; i < old + n; ++i) {
      blocks_[i].next = free_head_;
      free_head_ = static_cast<BlockIndex>(i);
    }
    free_count_ += n;
  }

  const VersionBlock& operator[](BlockIndex b) const { return blocks_[b]; }
  std::size_t free_count() const { return free_count_; }
  std::size_t size() const { return blocks_.size(); }

 private:
  std::vector<VersionBlock> blocks_;
  BlockIndex free_head_ = kNullBlock;
  std::size_t free_count_ = 0;
};

// Seeded random alloc/free/grow sequences: after every step the lazy pool
// has handed out the same index, holds the same counts and carries the same
// generation on every allocated block as the eager reference. An alloc that
// finds both pools dry traps and grows, as the store does.
class LazyPoolOrder
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(LazyPoolOrder, MatchesEagerPool) {
  const auto [initial, seed] = GetParam();
  std::mt19937 rng(seed);
  BlockPool lazy(initial);
  EagerPool eager(initial);
  std::vector<BlockIndex> held;
  int grows_over_freed_and_uncarved = 0;

  for (int step = 0; step < 3000; ++step) {
    const unsigned op = rng() % 16;
    if (op < 9) {
      const BlockIndex b = lazy.alloc();
      ASSERT_EQ(b, eager.alloc()) << "step " << step;
      if (b != kNullBlock) {
        held.push_back(b);
      } else {
        lazy.grow(4);
        eager.grow(4);
      }
    } else if (op < 15) {
      if (held.empty()) continue;
      const std::size_t i = rng() % held.size();
      lazy.free(held[i]);
      eager.free(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else {
      const std::size_t uncarved = lazy.size() - lazy.carved();
      if (uncarved > 0 && lazy.free_count() > uncarved) {
        ++grows_over_freed_and_uncarved;
      }
      const std::size_t n = rng() % 6;
      lazy.grow(n);
      eager.grow(n);
    }
    ASSERT_EQ(lazy.free_count(), eager.free_count()) << "step " << step;
    ASSERT_EQ(lazy.size(), eager.size()) << "step " << step;
    for (BlockIndex b : held) {
      ASSERT_EQ(lazy[b].generation, eager[b].generation)
          << "step " << step << " block " << b;
    }
  }
  // Runs with a large batch must have grown while both freed and uncarved
  // blocks remained, the case the order argument has to cover.
  if (initial >= 64) {
    EXPECT_GT(grows_over_freed_and_uncarved, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolsAndSeeds, LazyPoolOrder,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{64},
                                         std::size_t{1000}),
                       ::testing::Values(1u, 2u, 3u)));

TEST(LazyPool, CarvesOnlyWhatItHandsOut) {
  BlockPool pool(1000);
  EXPECT_EQ(pool.carved(), 0u);
  EXPECT_EQ(pool.free_count(), 1000u);
  EXPECT_EQ(pool.size(), 1000u);
  EXPECT_EQ(pool.alloc(), 999u);  // from the top of the batch down
  EXPECT_EQ(pool.alloc(), 998u);
  EXPECT_EQ(pool.carved(), 2u);
  pool[999].born_at = 7;
  pool[999].shadowed_at = 9;
  pool.free(999);
  EXPECT_EQ(pool.alloc(), 999u);  // the free list pops before carving
  EXPECT_EQ(pool.carved(), 2u);
  // A reused block keeps its lifetime stamps; a fresh one reads 0.
  EXPECT_EQ(pool[999].born_at, 7u);
  EXPECT_EQ(pool[999].shadowed_at, 9u);
  EXPECT_EQ(pool[998].born_at, 0u);
  EXPECT_EQ(pool[998].shadowed_at, 0u);
  pool.grow(3);  // a trap builds its blocks eagerly, highest index first
  EXPECT_EQ(pool.carved(), 5u);
  EXPECT_EQ(pool.alloc(), 1002u);
  EXPECT_EQ(pool.free_count(), 1000u);
  EXPECT_EQ(pool.size(), 1003u);
}

// Property test: random insert orders always yield a sorted list, and
// find_latest always agrees with a reference computation.
class VersionListProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(VersionListProperty, RandomOrderMatchesReferenceModel) {
  std::mt19937 rng(GetParam());
  BlockPool pool(512);
  BlockIndex root = kNullBlock;
  std::vector<Ver> inserted;
  std::vector<Ver> candidates(200);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<Ver>(i + 1);
  }
  std::shuffle(candidates.begin(), candidates.end(), rng);
  candidates.resize(100);

  for (Ver v : candidates) {
    const BlockIndex b = pool.alloc();
    pool[b].version = v;
    pool[b].data = v * 3;
    list_insert(pool, &root, b, true);
    inserted.push_back(v);

    // Invariant: list is sorted descending, head bit correct.
    Ver prev = ~Ver{0};
    for (BlockIndex x = root; x != kNullBlock; x = pool[x].next) {
      EXPECT_LT(pool[x].version, prev);
      prev = pool[x].version;
    }
    EXPECT_TRUE(pool[root].head);
  }

  std::uniform_int_distribution<Ver> cap_dist(0, 220);
  for (int trial = 0; trial < 50; ++trial) {
    const Ver cap = cap_dist(rng);
    Ver best = 0;
    bool exists = false;
    for (Ver v : inserted) {
      if (v <= cap && (!exists || v > best)) {
        best = v;
        exists = true;
      }
    }
    const auto r = find_latest(pool, root, cap, true);
    EXPECT_EQ(r.found(), exists) << "cap " << cap;
    if (exists && r.found()) {
      EXPECT_EQ(pool[r.block].version, best);
      EXPECT_EQ(pool[r.block].data, best * 3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionListProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u));

}  // namespace
}  // namespace osim
