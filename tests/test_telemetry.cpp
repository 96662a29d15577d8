// Tests for the telemetry subsystem (src/telemetry/): metric registry
// handles and dump determinism, trace sinks (ring wraparound, file
// round-trip, masks), and the machine-level lifecycle events the
// O-structure manager emits.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ostructure_manager.hpp"
#include "runtime/env.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace osim::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metric registry

TEST(Metrics, CounterHandleUpdatesRegistrySlot) {
  MetricRegistry reg(1);
  Counter c = reg.counter(Component::kOsm, "widgets");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.total(Component::kOsm, "widgets"), 42u);
  c.dec(2);
  EXPECT_EQ(reg.total(Component::kOsm, "widgets"), 40u);
}

TEST(Metrics, CounterVecIsPerCoreAndTotalsAcrossCores) {
  MetricRegistry reg(4);
  CounterVec v = reg.counter_vec(Component::kCache, "hits");
  v.inc(0);
  v.inc(2, 10);
  v.inc(3, 100);
  EXPECT_EQ(v.value(0), 1u);
  EXPECT_EQ(v.value(1), 0u);
  EXPECT_EQ(reg.value(Component::kCache, "hits", 2), 10u);
  EXPECT_EQ(reg.total(Component::kCache, "hits"), 111u);
}

TEST(Metrics, GaugeGoesUpAndDown) {
  MetricRegistry reg(1);
  Gauge g = reg.gauge(Component::kGc, "pending");
  g.set(7);
  EXPECT_EQ(g.value(), 7u);
  g.set(3);
  EXPECT_EQ(reg.total(Component::kGc, "pending"), 3u);
}

TEST(Metrics, AbsentMetricReadsAsZero) {
  MetricRegistry reg(2);
  EXPECT_EQ(reg.total(Component::kCore, "never_registered"), 0u);
  EXPECT_EQ(reg.value(Component::kCore, "never_registered", 1), 0u);
  EXPECT_EQ(reg.find(Component::kCore, "never_registered"), nullptr);
}

// Tests across the suite read simulator counters by name, and an absent
// name reads as zero (above), so a misspelled or renamed metric would let
// their EXPECT_EQ(..., 0u) pass without testing anything. Pin every name
// they read to a registration on a default timed Env, per-core where they
// read one core's slot.
TEST(Metrics, DefaultTimedEnvRegistersEveryNameTestsRead) {
  struct Name {
    Component component;
    const char* name;
    bool per_core;
  };
  const Name names[] = {
      {Component::kCore, "instructions", true},
      {Component::kCore, "stall_cycles", true},
      {Component::kCache, "loads", true},
      {Component::kCache, "stores", true},
      {Component::kCache, "l1_hits", true},
      {Component::kCache, "l1_misses", true},
      {Component::kCache, "l2_hits", true},
      {Component::kCache, "l2_misses", true},
      {Component::kCache, "remote_l1_fills", true},
      {Component::kCache, "upgrades", true},
      {Component::kOsm, "versioned_ops", true},
      {Component::kOsm, "direct_hits", true},
      {Component::kOsm, "full_lookups", true},
      {Component::kOsm, "walk_blocks", true},
      {Component::kOsm, "stalls", true},
      {Component::kOsm, "root_loads", true},
      {Component::kOsm, "root_stalls", true},
      {Component::kOsm, "tasks_executed", true},
      {Component::kOsm, "blocks_allocated", false},
      {Component::kOsm, "blocks_freed", false},
      {Component::kOsm, "os_traps", false},
      {Component::kOsm, "compressed_installs", false},
      {Component::kOsm, "compressed_discards", false},
      {Component::kOsm, "compress_overflows", false},
      {Component::kGc, "phases", false},
      {Component::kGc, "shadowed_blocks", false},
  };
  const Env env(MachineConfig{});
  for (const Name& n : names) {
    const MetricRegistry::Metric* m = env.metrics().find(n.component, n.name);
    ASSERT_NE(m, nullptr) << to_string(n.component) << '/' << n.name;
    if (n.per_core) {
      EXPECT_TRUE(m->per_core) << to_string(n.component) << '/' << n.name;
    }
  }
}

TEST(Metrics, HistogramBucketsOverflowSumCount) {
  MetricRegistry reg(1);
  Histogram h = reg.histogram(Component::kOsm, "lat", {10, 100});
  h.observe(5);    // <= 10
  h.observe(10);   // <= 10 (bound is inclusive)
  h.observe(11);   // <= 100
  h.observe(999);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5u + 10u + 11u + 999u);
  const MetricRegistry::Metric* m = reg.find(Component::kOsm, "lat");
  ASSERT_NE(m, nullptr);
  // Slot layout: [bucket 0, bucket 1, overflow, sum, count].
  ASSERT_EQ(m->width, 5u);
  EXPECT_EQ(m->slots[0], 2u);
  EXPECT_EQ(m->slots[1], 1u);
  EXPECT_EQ(m->slots[2], 1u);
  EXPECT_EQ(m->slots[3], h.sum());
  EXPECT_EQ(m->slots[4], 4u);
}

TEST(Metrics, ExternalCounterVecReadsComponentOwnedStorage) {
  // Hot components keep an array-of-structs and register each field as an
  // external counter vector (the memory system does this for cache/*).
  struct Pack {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  MetricRegistry reg(2);
  std::vector<Pack> packs(2);
  constexpr std::size_t kStride = sizeof(Pack) / sizeof(std::uint64_t);
  reg.counter_vec_external(Component::kCache, "hits", &packs[0].hits, kStride);
  reg.counter_vec_external(Component::kCache, "misses", &packs[0].misses,
                           kStride);
  packs[0].hits = 3;
  packs[1].hits = 4;
  packs[1].misses = 7;
  EXPECT_EQ(reg.total(Component::kCache, "hits"), 7u);
  EXPECT_EQ(reg.value(Component::kCache, "hits", 1), 4u);
  EXPECT_EQ(reg.total(Component::kCache, "misses"), 7u);
  EXPECT_EQ(reg.value(Component::kCache, "misses", 0), 0u);
  EXPECT_NE(reg.dump_str().find("cache/hits total=7 per_core=[3 4]"),
            std::string::npos);
}

TEST(Metrics, DumpIsDeterministicAcrossIdenticalRegistries) {
  auto build = [] {
    auto reg = std::make_unique<MetricRegistry>(2);
    Counter a = reg->counter(Component::kCore, "instructions");
    CounterVec b = reg->counter_vec(Component::kCache, "hits");
    Histogram h = reg->histogram(Component::kGc, "batch", {1, 8});
    a.inc(5);
    b.inc(1, 3);
    h.observe(2);
    return reg;
  };
  const std::string d1 = build()->dump_str();
  const std::string d2 = build()->dump_str();
  EXPECT_EQ(d1, d2);
  // Lines carry the component prefix in registration order.
  EXPECT_NE(d1.find("core/instructions"), std::string::npos);
  EXPECT_NE(d1.find("cache/hits"), std::string::npos);
  EXPECT_LT(d1.find("core/instructions"), d1.find("cache/hits"));
}

// ---------------------------------------------------------------------------
// Sinks

TraceEvent ev(Cycles t, EventType type, std::uint64_t arg) {
  TraceEvent e;
  e.time = t;
  e.type = type;
  e.arg = arg;
  return e;
}

TEST(RingSinkTest, KeepsNewestInOrderAfterWraparound) {
  RingSink ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(ev(i, EventType::kBlockAlloc, i));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].arg, 6 + i);
}

TEST(RingSinkTest, CapacityZeroIsDisabled) {
  RingSink ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.record(ev(1, EventType::kIsaOp, 0));
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(RingSinkTest, MaskFiltersAtTheTracer) {
  Tracer tracer;
  RingSink only_frees(8, event_bit(EventType::kBlockFreed));
  tracer.attach(&only_frees);
  tracer.emit(ev(1, EventType::kBlockAlloc, 1));
  tracer.emit(ev(2, EventType::kBlockFreed, 1));
  tracer.emit(ev(3, EventType::kIsaOp, 0));
  const auto snap = only_frees.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].type, EventType::kBlockFreed);
}

TEST(TracerTest, EnabledOnlyWhileSinksAttached) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  NullSink null;
  tracer.attach(&null);
  EXPECT_TRUE(tracer.enabled());
  tracer.emit(ev(1, EventType::kOsTrap, 64));  // swallowed, must not crash
}

TEST(TracerTest, FansOutToEverySink) {
  Tracer tracer;
  RingSink a(4), b(4);
  tracer.attach(&a);
  tracer.attach(&b);
  tracer.emit(ev(1, EventType::kGcPhaseBegin, 9));
  EXPECT_EQ(a.total_recorded(), 1u);
  EXPECT_EQ(b.total_recorded(), 1u);
}

TEST(FileSinkTest, RoundTripsEveryFieldThroughTheBinaryFormat) {
  const std::string path = testing::TempDir() + "osim_trace_roundtrip.bin";
  {
    Tracer tracer;
    tracer.add_sink(std::make_unique<FileSink>(path));
    TraceEvent e;
    e.time = 123456789;
    e.core = 7;
    e.type = EventType::kLockAcquire;
    e.addr = 0xdeadbeefu;
    e.version = 42;
    e.arg = 0x1122334455667788ull;
    tracer.emit(e);
    tracer.emit(ev(99, EventType::kGcPhaseEnd, 3));
    tracer.flush();
  }  // FileSink destroyed -> file closed
  const auto events = read_trace_file(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 123456789u);
  EXPECT_EQ(events[0].core, 7);
  EXPECT_EQ(events[0].type, EventType::kLockAcquire);
  EXPECT_EQ(events[0].addr, 0xdeadbeefu);
  EXPECT_EQ(events[0].version, 42u);
  EXPECT_EQ(events[0].arg, 0x1122334455667788ull);
  EXPECT_EQ(events[1].type, EventType::kGcPhaseEnd);
  EXPECT_EQ(events[1].arg, 3u);
  std::remove(path.c_str());
}

TEST(FileSinkTest, ReaderRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(read_trace_file(testing::TempDir() + "osim_no_such_trace.bin"),
               std::runtime_error);
  const std::string path = testing::TempDir() + "osim_bad_trace.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EventTypeTest, NamesAreStable) {
  EXPECT_STREQ(to_string(EventType::kIsaOp), "ISA-OP");
  EXPECT_STREQ(to_string(EventType::kBlockFreed), "BLOCK-FREED");
  EXPECT_STREQ(to_string(EventType::kOsTrap), "OS-TRAP");
}

// ---------------------------------------------------------------------------
// Machine-level lifecycle events: the OSM's tracer must report the same
// story the registry counters tell.

TEST(LifecycleEvents, MatchRegistryCounters) {
  MachineConfig c;
  c.num_cores = 1;
  Machine m(c);
  OStructureManager osm(m);
  VersionStore& o = osm.store();
  RingSink all(1 << 14, kAllEvents);
  o.tracer().attach(&all);

  const OAddr a = o.alloc();
  m.spawn(0, [&] {
    for (Ver v = 1; v <= 5; ++v) o.store_version(a, v, v * 10);
    o.lock_load_latest(a, /*cap=*/99, /*locker=*/1);
    o.unlock_version(a, /*v=*/5, /*task=*/1, Ver{6});
  });
  m.run();

  std::uint64_t allocs = 0, stores = 0, shadows = 0, acquires = 0,
                releases = 0;
  for (const TraceEvent& e : all.snapshot()) {
    switch (e.type) {
      case EventType::kBlockAlloc:
        ++allocs;
        break;
      case EventType::kVersionStore:
        ++stores;
        break;
      case EventType::kBlockShadowed:
        ++shadows;
        break;
      case EventType::kLockAcquire:
        ++acquires;
        break;
      case EventType::kLockRelease:
        ++releases;
        break;
      default:
        break;
    }
  }
  const MetricRegistry& reg = m.metrics();
  EXPECT_EQ(allocs, reg.total(Component::kOsm, "blocks_allocated"));
  EXPECT_EQ(shadows, reg.total(Component::kGc, "shadowed_blocks"));
  EXPECT_EQ(stores, 6u);  // 5 stores + the unlock's new version
  EXPECT_EQ(acquires, 1u);
  EXPECT_EQ(releases, 1u);
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace osim::telemetry
