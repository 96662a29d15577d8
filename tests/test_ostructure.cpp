// Integration tests for the O-structure manager: the versioned ISA semantics
// of Sec. II-A, protection, caching behaviour, and GC, all running on the
// simulated machine.
#include "core/ostructure_manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/fault.hpp"

namespace osim {
namespace {

using telemetry::Component;

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

/// Run `body(store)` on core 0 of a fresh machine and return elapsed time.
template <typename Fn>
Cycles run1(Fn&& body, MachineConfig c = cfg(1)) {
  Machine m(c);
  OStructureManager osm(m);
  m.spawn(0, [&] { body(osm.store()); });
  m.run();
  return m.elapsed();
}

TEST(OStructure, StoreThenLoadVersion) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 42);
    EXPECT_EQ(o.load_version(a, 1), 42u);
  });
}

TEST(OStructure, MultipleVersionsAllLoadable) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    for (Ver v = 1; v <= 5; ++v) o.store_version(a, v, v * 100);
    // "All created versions are available simultaneously for loading."
    for (Ver v = 1; v <= 5; ++v) EXPECT_EQ(o.load_version(a, v), v * 100);
    EXPECT_EQ(o.version_count(a), 5);
  });
}

TEST(OStructure, LoadLatestRoundsDown) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 2, 20);
    o.store_version(a, 5, 50);
    Ver got = 0;
    EXPECT_EQ(o.load_latest(a, 2, &got), 20u);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(o.load_latest(a, 4, &got), 20u);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(o.load_latest(a, 5, &got), 50u);
    EXPECT_EQ(got, 5u);
    EXPECT_EQ(o.load_latest(a, 999, &got), 50u);
  });
}

TEST(OStructure, OutOfOrderVersionCreation) {
  // "Version 2 may be stored to and loaded from before version 1."
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 2, 22);
    EXPECT_EQ(o.load_version(a, 2), 22u);
    o.store_version(a, 1, 11);
    EXPECT_EQ(o.load_version(a, 1), 11u);
    EXPECT_EQ(o.load_version(a, 2), 22u);
    EXPECT_EQ(o.version_count(a), 2);
  });
}

TEST(OStructure, LoadOfUncreatedVersionBlocksUntilStore) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  std::uint64_t got = 0;
  Cycles load_done = 0;
  m.spawn(0, [&] {
    got = o.load_version(a, 1);  // blocks: version 1 does not exist yet
    load_done = mach().now();
  });
  m.spawn(1, [&] {
    mach().advance(5000);
    o.store_version(a, 1, 77);
  });
  m.run();
  EXPECT_EQ(got, 77u);
  EXPECT_GT(load_done, 5000u);
  EXPECT_EQ(m.metrics().value(Component::kOsm, "stalls", 0), 1u);
}

TEST(OStructure, LoadLatestBlocksWhenNothingBelowCap) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  std::uint64_t got = 0;
  m.spawn(0, [&] {
    o.store_version(a, 10, 1000);  // version above the cap: does not help
    got = o.load_latest(a, 5);
  });
  m.spawn(1, [&] {
    mach().advance(3000);
    o.store_version(a, 3, 333);
  });
  m.run();
  EXPECT_EQ(got, 333u);
}

TEST(OStructure, DoubleStoreFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 10);
    o.store_version(a, 1, 20);
  });
  try {
    m.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("version already exists"),
              std::string::npos);
  }
}

TEST(OStructure, LockLoadVersionExcludesSecondLocker) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  Cycles locker2_done = 0;
  m.spawn(0, [&] {
    o.store_version(a, 1, 5);
    EXPECT_EQ(o.lock_load_version(a, 1, /*locker=*/100), 5u);
    mach().advance(10000);
    o.unlock_version(a, 1, 100);
  });
  m.spawn(1, [&] {
    mach().advance(2000);  // let core 0 win the lock
    EXPECT_EQ(o.lock_load_version(a, 1, /*locker=*/200), 5u);
    locker2_done = mach().now();
    o.unlock_version(a, 1, 200);
  });
  m.run();
  EXPECT_GT(locker2_done, 10000u);  // waited for core 0's unlock
  EXPECT_EQ(m.metrics().value(Component::kOsm, "stalls", 1), 1u);
}

TEST(OStructure, LoadVersionIgnoresLocksOnOtherVersions) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 10);
    o.store_version(a, 2, 20);
    o.lock_load_version(a, 2, 99);
    // Version 2 is locked, but version 1 must be readable immediately.
    EXPECT_EQ(o.load_version(a, 1), 10u);
    o.unlock_version(a, 2, 99);
  });
}

TEST(OStructure, LoadVersionOfLockedVersionBlocks) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  Cycles read_done = 0;
  m.spawn(0, [&] {
    o.store_version(a, 1, 10);
    o.lock_load_version(a, 1, 7);
    mach().advance(8000);
    o.unlock_version(a, 1, 7);
  });
  m.spawn(1, [&] {
    mach().advance(1000);
    EXPECT_EQ(o.load_version(a, 1), 10u);
    read_done = mach().now();
  });
  m.run();
  EXPECT_GT(read_done, 8000u);
}

TEST(OStructure, LoadLatestBlocksOnLockedCandidate) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  Ver got_ver = 0;
  m.spawn(0, [&] {
    o.store_version(a, 3, 30);
    o.lock_load_version(a, 3, 50);
    mach().advance(5000);
    // Renaming unlock: version 4 appears with the same value.
    o.unlock_version(a, 3, 50, /*rename_to=*/Ver{4});
  });
  m.spawn(1, [&] {
    mach().advance(1000);
    EXPECT_EQ(o.load_latest(a, 10, &got_ver), 30u);
  });
  m.run();
  // The reader unblocked on the rename and saw version 4 (highest <= 10).
  EXPECT_EQ(got_ver, 4u);
}

TEST(OStructure, UnlockRenameCopiesValueAndUnlocksBoth) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 123);
    EXPECT_EQ(o.lock_load_version(a, 1, 9), 123u);
    o.unlock_version(a, 1, 9, Ver{2});
    EXPECT_EQ(o.load_version(a, 1), 123u);  // unlocked again
    EXPECT_EQ(o.load_version(a, 2), 123u);  // renamed copy, unlocked
    EXPECT_FALSE(o.lock_holder(a, 1).has_value());
    EXPECT_FALSE(o.lock_holder(a, 2).has_value());
  });
}

TEST(OStructure, LockLoadLatestLocksWhatItRead) {
  run1([](VersionStore& o) {
    const OAddr a = o.alloc();
    o.store_version(a, 2, 20);
    o.store_version(a, 7, 70);
    Ver got = 0;
    EXPECT_EQ(o.lock_load_latest(a, 5, /*locker=*/33, &got), 20u);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(o.lock_holder(a, 2), std::optional<TaskId>(33));
    EXPECT_FALSE(o.lock_holder(a, 7).has_value());
    o.unlock_version(a, 2, 33);
  });
}

TEST(OStructure, UnlockByNonOwnerFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 1);
    o.lock_load_version(a, 1, 5);
    o.unlock_version(a, 1, 6);  // wrong owner
  });
  EXPECT_THROW(m.run(), SimError);
}

TEST(OStructure, UnlockOfUnlockedVersionFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 1);
    o.unlock_version(a, 1, 5);
  });
  EXPECT_THROW(m.run(), SimError);
}

TEST(OStructure, RenameOntoExistingVersionFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] {
    const OAddr a = o.alloc();
    o.store_version(a, 1, 1);
    o.store_version(a, 2, 2);
    o.lock_load_version(a, 1, 5);
    o.unlock_version(a, 1, 5, Ver{2});
  });
  try {
    m.run();
    FAIL();
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("rename target"), std::string::npos);
  }
}

TEST(OStructure, VersionedAccessToUnversionedAddressFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] { o.load_version(0x1234, 1); });
  EXPECT_THROW(m.run(), SimError);
}

TEST(OStructure, ConventionalAccessToVersionedPageFaults) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  EXPECT_THROW(o.check_conventional(a), OFault);
  o.check_conventional(0x1234);  // conventional address: fine
}

TEST(OStructure, ReleaseConvertsBackToConventional) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc(4);
  m.spawn(0, [&] {
    o.store_version(a, 1, 10);
    o.store_version(a + 8, 1, 20);
  });
  m.run();
  EXPECT_EQ(m.metrics().total(Component::kOsm, "blocks_allocated"), 2u);
  o.release(a, 4);
  EXPECT_EQ(m.metrics().total(Component::kOsm, "blocks_freed"), 2u);
  EXPECT_FALSE(o.is_versioned_addr(a));
  o.check_conventional(a);  // no fault once released
  // Slots are recycled for the next same-size allocation.
  EXPECT_EQ(o.alloc(4), a);
}

TEST(OStructure, RepeatedLoadsHitCompressedLine) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    // Compression engages once a slot holds more than one version (a
    // single-version slot is denser as a plain block line).
    o.store_version(a, 1, 10);
    o.store_version(a, 2, 20);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(o.load_version(a, 1), 10u);
  });
  m.run();
  // The first load walks and installs the entry; the rest hit directly.
  EXPECT_GE(m.metrics().value(Component::kOsm, "direct_hits", 0), 9u);
  EXPECT_LE(m.metrics().value(Component::kOsm, "full_lookups", 0), 1u);
  EXPECT_GT(m.metrics().total(Component::kOsm, "compressed_installs"), 0u);
}

TEST(OStructure, SingleVersionSlotStaysUncompressed) {
  // A slot with one version relies on the plain block line in L1 — the
  // repeat loads are L1 hits on it, not compressed-line direct accesses.
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 1, 10);
    const Cycles before = mach().now();
    o.load_version(a, 1);  // may miss (walk)
    const Cycles first = mach().now() - before;
    const Cycles again = mach().now();
    o.load_version(a, 1);  // block line now resident: single L1 hit
    EXPECT_EQ(mach().now() - again, m.config().l1.hit_latency);
    EXPECT_GE(first, m.config().l1.hit_latency);
  });
  m.run();
  EXPECT_EQ(m.metrics().total(Component::kOsm, "compressed_installs"), 0u);
}

TEST(OStructure, LoadLatestDirectHitsViaAdjacency) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 3; ++v) o.store_version(a, v, v);
    // First LOAD-LATEST(2) does a full lookup and caches version 2 with
    // adjacency (newer = 3); the repeats are direct hits.
    for (int i = 0; i < 5; ++i) EXPECT_EQ(o.load_latest(a, 2), 2u);
  });
  m.run();
  EXPECT_GE(m.metrics().value(Component::kOsm, "direct_hits", 0), 4u);
}

TEST(OStructure, RemoteStoreDiscardsCompressedLine) {
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 1, 10);
    o.store_version(a, 2, 20);  // slot is multi-version: compression engages
    o.load_version(a, 1);
    mach().advance(10000);  // meanwhile core 1 stores version 3
    o.load_version(a, 1);   // compressed line was discarded by coherence
  });
  m.spawn(1, [&] {
    mach().advance(5000);
    o.store_version(a, 3, 30);
  });
  m.run();
  EXPECT_GT(m.metrics().total(Component::kOsm, "compressed_discards"), 0u);
}

TEST(OStructure, WalkChargesScaleWithListLength) {
  // Loading an old version from a long list walks many blocks; stats and
  // elapsed time must reflect it.
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 64; ++v) o.store_version(a, v, v);
    EXPECT_EQ(o.load_version(a, 1), 1u);  // full walk of 64 blocks
  });
  m.run();
  EXPECT_GE(m.metrics().value(Component::kOsm, "walk_blocks", 0), 64u);
}

TEST(OStructure, GcReclaimsShadowedVersionsEndToEnd) {
  MachineConfig c = cfg(1);
  c.ostruct.initial_pool_blocks = 64;
  c.ostruct.gc_watermark = 32;
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    // Tasks 1..100 each store a new version; shadowed versions pile up and
    // the watermark forces collection phases. The pool never needs to grow.
    for (TaskId t = 1; t <= 100; ++t) {
      o.task_begin(t);
      o.store_version(a, t, t);
      o.task_end(t);
    }
  });
  m.run();
  EXPECT_GT(m.metrics().total(Component::kGc, "phases"), 0u);
  EXPECT_GT(m.metrics().total(Component::kOsm, "blocks_freed"), 0u);
  EXPECT_EQ(m.metrics().total(Component::kOsm, "os_traps"), 0u);
  EXPECT_EQ(o.pool().size(), 64u);  // watermarked GC avoided any growth
}

TEST(OStructure, ExhaustionWithoutGcTrapsToOs) {
  MachineConfig c = cfg(1);
  c.ostruct.initial_pool_blocks = 16;
  c.ostruct.gc_watermark = 0;       // never trigger early
  c.ostruct.trap_grow_blocks = 16;
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    // No task ever ends, so nothing is reclaimable: the pool must grow.
    o.task_begin(1);
    for (Ver v = 1; v <= 40; ++v) o.store_version(a, v, v);
    o.task_end(1);
  });
  m.run();
  EXPECT_GT(m.metrics().total(Component::kOsm, "os_traps"), 0u);
  EXPECT_GT(o.pool().size(), 16u);
}

TEST(OStructure, GcDoesNotReclaimReachableVersions) {
  MachineConfig c = cfg(1);
  c.ostruct.initial_pool_blocks = 64;
  c.ostruct.gc_watermark = 60;  // collect aggressively
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.task_begin(1);
    o.store_version(a, 1, 111);
    // Task 2 shadows version 1, but task 1 is still active: version 1 must
    // survive any number of collection phases.
    o.task_begin(2);
    o.store_version(a, 2, 222);
    for (int i = 0; i < 20; ++i) o.gc().maybe_collect();
    EXPECT_EQ(o.load_version(a, 1), 111u);
    o.task_end(1);
    o.task_end(2);
  });
  m.run();
}

TEST(OStructure, InjectedLatencySlowsVersionedOps) {
  auto timed = [](Cycles inject) {
    MachineConfig c = cfg(1);
    c.ostruct.injected_latency = inject;
    return run1(
        [](VersionStore& o) {
          const OAddr a = o.alloc();
          o.store_version(a, 1, 1);
          for (int i = 0; i < 100; ++i) o.load_version(a, 1);
        },
        c);
  };
  const Cycles base = timed(0);
  const Cycles slow = timed(10);
  // 101 versioned ops, 10 extra cycles each.
  EXPECT_EQ(slow - base, 101u * 10);
}

TEST(OStructure, RootFlagFeedsRootStallStats) {
  // Root-ness is a mark on the slot: it counts whichever core accesses the
  // slot, and release() clears it.
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr root = o.alloc();
  const OAddr plain = o.alloc();
  o.mark_root(root);
  auto count = [&](const char* name, int core) {
    return m.metrics().value(Component::kOsm, name, core);
  };
  // Core 0 stalls on each slot until core 1 stores to it.
  auto stall_then_store = [&](OAddr first, OAddr second) {
    m.spawn(0, [&o, first, second] {
      o.load_version(first, 1);
      o.load_version(second, 1);
    });
    m.spawn(1, [&o, first, second] {
      mach().advance(1000);
      o.store_version(first, 1, 42);
      mach().advance(1000);
      o.store_version(second, 1, 7);
    });
    m.run();
  };

  stall_then_store(root, plain);
  EXPECT_EQ(count("stalls", 0), 2u);
  EXPECT_EQ(count("root_loads", 0), 1u);
  EXPECT_EQ(count("root_stalls", 0), 1u);
  EXPECT_EQ(count("root_loads", 1), 1u);
  EXPECT_EQ(count("root_stalls", 1), 0u);

  // Released and allocated again, the slot is no longer a root.
  o.release(root);
  ASSERT_EQ(o.alloc(), root);
  const OAddr other = o.alloc();
  stall_then_store(root, other);
  EXPECT_EQ(count("stalls", 0), 4u);
  EXPECT_EQ(count("root_loads", 0), 1u);
  EXPECT_EQ(count("root_stalls", 0), 1u);
  EXPECT_EQ(count("root_loads", 1), 1u);
}

TEST(OStructure, DeadlockOnNeverStoredVersionReported) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] { o.load_version(a, 1); });
  try {
    m.run();
    FAIL();
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(OStructure, RepeatedLockUnlockHitsCompressedLine) {
  // Lock operations apply their semantic effect before timing; the
  // compressed-line probe must still recognize the pre-lock entry, so
  // steady lock/unlock cycles on a hot multi-version slot go direct.
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 1, 10);
    o.store_version(a, 2, 20);
    o.lock_load_version(a, 1, 9);  // installs the entry on the way
    o.unlock_version(a, 1, 9);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(o.lock_load_version(a, 1, 9), 10u);
      o.unlock_version(a, 1, 9);
    }
  });
  m.run();
  EXPECT_GE(m.metrics().value(Component::kOsm, "direct_hits", 0), 8u);
}

TEST(OStructure, ConcurrentAllocationAndStoresAreSafe) {
  // Regression: store_version charges memory accesses (yielding to other
  // cores) while holding internal references; a concurrent alloc() used to
  // reallocate the slot table under it. Hammer allocation from one core
  // while another core stores.
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr hot = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 300; ++v) o.store_version(hot, v, v);
  });
  m.spawn(1, [&] {
    for (int i = 0; i < 300; ++i) {
      const OAddr a = o.alloc(3);  // grows the slot table repeatedly
      o.store_version(a, 1, i);
      EXPECT_EQ(o.load_version(a, 1), static_cast<std::uint64_t>(i));
      mach().exec(1);
    }
  });
  m.run();
  // The hot slot has all 300 versions intact.
  EXPECT_EQ(o.version_count(hot), 300);
}

// ---------------------------------------------------------------------------
// Property test: the manager agrees with a reference multi-version map under
// randomized single-core op sequences.

class OStructureGolden : public ::testing::TestWithParam<unsigned> {};

TEST_P(OStructureGolden, MatchesReferenceModel) {
  std::mt19937 rng(GetParam());
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  constexpr int kSlots = 8;
  const OAddr base = o.alloc(kSlots);

  // Reference: per slot, a map version -> value.
  std::vector<std::map<Ver, std::uint64_t>> ref(kSlots);

  m.spawn(0, [&] {
    std::uniform_int_distribution<int> slot_dist(0, kSlots - 1);
    std::uniform_int_distribution<Ver> ver_dist(1, 40);
    for (int step = 0; step < 2000; ++step) {
      const int s = slot_dist(rng);
      const OAddr a = base + 8 * static_cast<OAddr>(s);
      const Ver v = ver_dist(rng);
      switch (rng() % 4) {
        case 0: {  // store a fresh version
          if (ref[s].count(v) == 0) {
            const std::uint64_t val = rng();
            o.store_version(a, v, val);
            ref[s][v] = val;
          }
          break;
        }
        case 1: {  // load an existing exact version
          if (!ref[s].empty()) {
            auto it = ref[s].lower_bound(v);
            if (it == ref[s].end()) --it;
            EXPECT_EQ(o.load_version(a, it->first), it->second);
          }
          break;
        }
        case 2: {  // load-latest below a cap that has a candidate
          auto it = ref[s].upper_bound(v);
          if (it != ref[s].begin()) {
            --it;
            Ver got = 0;
            EXPECT_EQ(o.load_latest(a, v, &got), it->second);
            EXPECT_EQ(got, it->first);
          }
          break;
        }
        case 3: {  // lock + rename-unlock onto a fresh version
          if (!ref[s].empty()) {
            auto it = ref[s].lower_bound(v);
            if (it == ref[s].end()) --it;
            const Ver locked = it->first;
            const std::uint64_t val = o.lock_load_version(a, locked, 999);
            EXPECT_EQ(val, ref[s][locked]);
            Ver target = locked;
            while (ref[s].count(target) != 0) ++target;
            o.unlock_version(a, locked, 999, target);
            ref[s][target] = val;
          }
          break;
        }
      }
    }
    // Final: every reference version is loadable with the right value.
    for (int s = 0; s < kSlots; ++s) {
      const OAddr a = base + 8 * static_cast<OAddr>(s);
      EXPECT_EQ(o.version_count(a), static_cast<int>(ref[s].size()));
      for (const auto& [v, val] : ref[s]) {
        EXPECT_EQ(o.load_version(a, v), val);
      }
    }
  });
  m.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OStructureGolden,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace osim
