// Tests for the architectural trace (core/isa.hpp).
#include <gtest/gtest.h>

#include "core/ostructure_manager.hpp"

namespace osim {
namespace {

MachineConfig traced_cfg(std::size_t capacity) {
  MachineConfig c;
  c.num_cores = 1;
  c.ostruct.trace_capacity = capacity;
  return c;
}

TEST(OpTrace, DisabledByDefault) {
  MachineConfig c;
  c.num_cores = 1;
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.store_version(a, 1, 1);
    o.load_version(a, 1);
  });
  m.run();
  EXPECT_FALSE(o.trace().enabled());
  EXPECT_EQ(o.trace().total_recorded(), 0u);
}

TEST(OpTrace, RecordsOpsInIssueOrder) {
  Machine m(traced_cfg(64));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    o.task_begin(3);
    o.store_version(a, 3, 30);
    o.load_version(a, 3);
    o.load_latest(a, 99);
    o.lock_load_version(a, 3, 3);
    o.unlock_version(a, 3, 3, Ver{4});
    o.task_end(3);
  });
  m.run();
  const auto t = o.trace().snapshot();
  ASSERT_EQ(t.size(), 7u);
  EXPECT_EQ(t[0].op, OpCode::kTaskBegin);
  EXPECT_EQ(t[1].op, OpCode::kStoreVersion);
  EXPECT_EQ(t[2].op, OpCode::kLoadVersion);
  EXPECT_EQ(t[3].op, OpCode::kLoadLatest);
  EXPECT_EQ(t[4].op, OpCode::kLockLoadVersion);
  EXPECT_EQ(t[5].op, OpCode::kUnlockVersion);
  EXPECT_EQ(t[6].op, OpCode::kTaskEnd);
  EXPECT_EQ(t[1].addr, a);
  EXPECT_EQ(t[1].version, 3u);
  EXPECT_EQ(t[3].version, 99u);  // the cap argument
  // Timestamps are monotone on one core.
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i].time, t[i - 1].time);
  }
}

TEST(OpTrace, RingKeepsOnlyNewest) {
  Machine m(traced_cfg(4));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 10; ++v) o.store_version(a, v, v);
  });
  m.run();
  EXPECT_EQ(o.trace().total_recorded(), 10u);
  const auto t = o.trace().snapshot();
  ASSERT_EQ(t.size(), 4u);
  // The four newest stores: versions 7..10, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t[i].version, 7 + i);
  }
}

TEST(OpTrace, StalledOpRecordedOnceAtIssue) {
  MachineConfig c = traced_cfg(16);
  c.num_cores = 2;
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  const OAddr a = o.alloc();
  m.spawn(0, [&] { o.load_version(a, 1); });  // stalls, then retries
  m.spawn(1, [&] {
    mach().advance(2000);
    o.store_version(a, 1, 5);
  });
  m.run();
  const auto t = o.trace().snapshot();
  int loads = 0;
  for (const auto& r : t) {
    if (r.op == OpCode::kLoadVersion) ++loads;
  }
  EXPECT_EQ(loads, 1);  // retries do not duplicate the record
}

TEST(OpTrace, OpCodeNamesAreStable) {
  // All 8 opcodes: to_string has no silent fall-through (unknown values
  // assert in debug builds), so every enumerator must map to its name.
  static_assert(kNumOpCodes == 8);
  EXPECT_STREQ(to_string(OpCode::kLoadVersion), "LOAD-VERSION");
  EXPECT_STREQ(to_string(OpCode::kLoadLatest), "LOAD-LATEST");
  EXPECT_STREQ(to_string(OpCode::kStoreVersion), "STORE-VERSION");
  EXPECT_STREQ(to_string(OpCode::kLockLoadVersion), "LOCK-LOAD-VERSION");
  EXPECT_STREQ(to_string(OpCode::kLockLoadLatest), "LOCK-LOAD-LATEST");
  EXPECT_STREQ(to_string(OpCode::kUnlockVersion), "UNLOCK-VERSION");
  EXPECT_STREQ(to_string(OpCode::kTaskBegin), "TASK-BEGIN");
  EXPECT_STREQ(to_string(OpCode::kTaskEnd), "TASK-END");
}

TEST(OpTrace, ConfigRingSeesOnlyIsaOpsExtraSinkSeesLifecycle) {
  // The config-enabled ring keeps the classic ISA-op trace; a full-mask
  // sink attached to the same tracer additionally sees lifecycle events.
  Machine m(traced_cfg(64));
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  telemetry::RingSink all(64, telemetry::kAllEvents);
  o.tracer().attach(&all);
  const OAddr a = o.alloc();
  m.spawn(0, [&] { o.store_version(a, 1, 10); });
  m.run();
  for (const auto& e : o.trace().snapshot()) {
    EXPECT_EQ(e.type, telemetry::EventType::kIsaOp);
  }
  bool saw_alloc = false, saw_store = false;
  for (const auto& e : all.snapshot()) {
    saw_alloc |= e.type == telemetry::EventType::kBlockAlloc;
    saw_store |= e.type == telemetry::EventType::kVersionStore;
  }
  EXPECT_TRUE(saw_alloc);
  EXPECT_TRUE(saw_store);
  EXPECT_GT(all.total_recorded(), o.trace().total_recorded());
}

}  // namespace
}  // namespace osim
