// Fault taxonomy and edge-case coverage: every protection rule of paper
// Sec. III must trip deterministically, and boundary inputs (huge versions,
// empty structures, released slots, rule-violating runtimes) must behave.
#include <gtest/gtest.h>

#include <string>

#include "core/fault.hpp"
#include "core/ostructure_manager.hpp"
#include "runtime/env.hpp"
#include "runtime/task.hpp"
#include "runtime/versioned.hpp"

namespace osim {
namespace {

using telemetry::Component;

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

void expect_fault(Machine& m, const char* needle) {
  try {
    m.run();
    FAIL() << "expected SimError containing '" << needle << "'";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Faults, VersionedOpOnMisalignedAddress) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] { o.load_version(a + 3, 1); });
  expect_fault(m, "versioned access to unversioned page");
}

TEST(Faults, VersionedOpBelowRegion) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] { o.store_version(0x1000, 1, 1); });
  expect_fault(m, "versioned access to unversioned page");
}

TEST(Faults, VersionedOpOnReleasedSlot) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  o.release(a);
  m.spawn(0, [&] { o.store_version(a, 1, 1); });
  expect_fault(m, "not allocated");
}

TEST(Faults, ReleasedSlotWakesParkedWaitersIntoFault) {
  // A core parked on a versioned load when the slot is released must not
  // deadlock silently: it is woken and faults with a clear message.
  Machine m(cfg(2));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] { o.load_version(a, 1); });  // parks: version never stored
  m.spawn(1, [&] {
    mach().advance(1000);
    o.release(a, 1);
  });
  expect_fault(m, "not allocated");
}

TEST(Faults, TaskRuntimeRejectsOutOfOrderCreationBelowWindow) {
  Env env(cfg(2));
  TaskRuntime rt(env, 2);
  rt.create_task(10, [](TaskId) {});
  EXPECT_THROW(rt.create_task(5, [](TaskId) {}), OFault);
}

TEST(Faults, TaskEndWithoutBeginFaultsThroughManager) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  m.spawn(0, [&] { o.task_end(7); });
  expect_fault(m, "task ordering rule violation");
}

TEST(Faults, LockingSameVersionTwiceBySameTaskStalls) {
  // Even the lock holder cannot re-lock: the attempt deadlocks (reported),
  // matching "an attempt to lock an already locked version will stall".
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 1, 1);
    o.lock_load_version(a, 1, 5);
    o.lock_load_version(a, 1, 5);  // stalls forever
  });
  expect_fault(m, "deadlock");
}

TEST(Faults, ZeroSlotAllocRejected) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  EXPECT_THROW(o.alloc(0), OFault);
}

TEST(EdgeCases, HugeVersionNumbersWork) {
  // Versions beyond the 32-bit compressible range still function; they just
  // never compress (range overflow accounting, full lookups).
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  const Ver big1 = (Ver{1} << 40) + 5;
  const Ver big2 = (Ver{1} << 40) + 9;
  m.spawn(0, [&] {
    o.store_version(a, big1, 11);
    o.store_version(a, big2, 22);
    EXPECT_EQ(o.load_version(a, big1), 11u);
    EXPECT_EQ(o.load_latest(a, big2 + 100), 22u);
    for (int i = 0; i < 4; ++i) o.load_version(a, big1);
  });
  m.run();
  // Uncompressible: every load is a full lookup.
  EXPECT_EQ(m.metrics().value(Component::kOsm, "direct_hits", 0), 0u);
  EXPECT_GT(m.metrics().total(Component::kOsm, "compress_overflows"), 0u);
}

TEST(EdgeCases, VersionZeroIsValid) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 0, 7);
    EXPECT_EQ(o.load_version(a, 0), 7u);
    EXPECT_EQ(o.load_latest(a, 100), 7u);
  });
  m.run();
}

TEST(EdgeCases, ManyVersionsOnOneSlot) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 2000; ++v) o.store_version(a, v, v * 3);
    // Spot-check old, middle, new.
    EXPECT_EQ(o.load_version(a, 1), 3u);
    EXPECT_EQ(o.load_version(a, 1000), 3000u);
    EXPECT_EQ(o.load_latest(a, 5000), 6000u);
    EXPECT_EQ(o.version_count(a), 2000);
  });
  m.run();
}

TEST(EdgeCases, InterleavedSlotsShareCacheLinesSafely) {
  // Adjacent slots belong to different versioned objects; operations on one
  // must never disturb the other's versions.
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr base = o.alloc(16);
  m.spawn(0, [&] {
    for (int s = 0; s < 16; ++s) {
      o.store_version(base + 8 * s, 1, 100 + s);
    }
    for (int s = 0; s < 16; ++s) {
      o.store_version(base + 8 * s, 2, 200 + s);
    }
    for (int s = 0; s < 16; ++s) {
      EXPECT_EQ(o.load_version(base + 8 * s, 1), 100u + s);
      EXPECT_EQ(o.load_version(base + 8 * s, 2), 200u + s);
    }
  });
  m.run();
}

TEST(EdgeCases, ReleaseWholeGroupFreesEveryVersion) {
  Machine m(cfg(1));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr base = o.alloc(4);
  m.spawn(0, [&] {
    for (int s = 0; s < 4; ++s) {
      for (Ver v = 1; v <= 5; ++v) o.store_version(base + 8 * s, v, v);
    }
  });
  m.run();
  const std::size_t free_before = o.pool().free_count();
  o.release(base, 4);
  EXPECT_EQ(o.pool().free_count(), free_before + 20);
}

TEST(EdgeCases, EnvProtectionCatchesVersionedPointerMisuse) {
  // Passing a versioned<T>'s slot address into conventional ld/st is the
  // classic programming error; the versioned bit traps it.
  Env env(cfg(1));
  versioned<int> v(env);
  env.spawn(0, [&] {
    auto* bogus = reinterpret_cast<int*>(v.addr());
    env.ld(*bogus);
  });
  EXPECT_THROW(env.run(), SimError);
}

TEST(EdgeCases, UnversionedMachineRunsWithZeroPoolPressure) {
  // Conventional-only programs must be unaffected by the O-structure
  // subsystem ("does not affect conventional memory use").
  MachineConfig c = cfg(2);
  c.ostruct.initial_pool_blocks = 8;  // nearly no versioning capacity
  Env env(c);
  int x = 0;
  env.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) env.st(x, i);
  });
  env.spawn(1, [&] {
    for (int i = 0; i < 100; ++i) env.ld(x);
  });
  env.run();
  EXPECT_EQ(env.metrics().total(Component::kOsm, "blocks_allocated"), 0u);
  EXPECT_EQ(x, 99);
}

}  // namespace
}  // namespace osim
