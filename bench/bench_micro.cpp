// Host-side micro-benchmarks (google-benchmark) of the simulator substrate
// and O-structure primitives: fiber switches, cache probes, hierarchy
// accesses, version-list operations, compressed-line codec, and complete
// versioned operations. These measure *simulator* throughput (host ns/op),
// which bounds how much simulated work the figure benches can afford.
#include <benchmark/benchmark.h>

#include "core/compressed_line.hpp"
#include "core/ostructure_manager.hpp"
#include "core/version_list.hpp"
#include "sim/cache.hpp"
#include "sim/fiber.hpp"
#include "sim/memory_system.hpp"

namespace osim {
namespace {

void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  Fiber f([&stop] {
    while (!stop) Fiber::current()->yield();
  });
  for (auto _ : state) f.resume();
  stop = true;
  f.resume();  // let the fiber run to completion
  state.SetItemsProcessed(state.iterations() * 2);  // two switches per resume
}

void BM_CacheHit(benchmark::State& state) {
  Cache c(CacheConfig{32 * 1024, 8, kLineBytes, 4});
  c.fill(0x1000, false);
  for (auto _ : state) benchmark::DoNotOptimize(c.access(0x1000, false));
}

void BM_CacheMissFill(benchmark::State& state) {
  Cache c(CacheConfig{32 * 1024, 8, kLineBytes, 4});
  Addr a = 0;
  for (auto _ : state) {
    c.access(a, false);
    c.fill(a, false);
    a += kLineBytes;
  }
}

void BM_MemorySystemAccess(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 4;
  telemetry::MetricRegistry reg(4);
  MemorySystem ms(cfg, reg);
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms.access(0, a, AccessType::kRead));
    a = (a + kLineBytes) & 0xFFFFFF;
  }
}

void BM_VersionListInsert(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BlockPool pool(static_cast<std::size_t>(len) + 8);
    BlockIndex root = kNullBlock;
    state.ResumeTiming();
    for (int v = 1; v <= len; ++v) {
      const BlockIndex b = pool.alloc();
      pool[b].version = static_cast<Ver>(v);
      list_insert(pool, &root, b, /*sorted=*/true);
    }
  }
  state.SetItemsProcessed(state.iterations() * len);
}

void BM_VersionListFindLatest(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  BlockPool pool(static_cast<std::size_t>(len) + 8);
  BlockIndex root = kNullBlock;
  for (int v = 1; v <= len; ++v) {
    const BlockIndex b = pool.alloc();
    pool[b].version = static_cast<Ver>(v);
    list_insert(pool, &root, b, true);
  }
  Ver cap = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_latest(pool, root, cap, true));
    cap = cap % len + 1;
  }
}

void BM_CompressedInstallFind(benchmark::State& state) {
  CompressedLine cl;
  Ver v = 100;
  for (auto _ : state) {
    CompressedLine::Entry e;
    e.version = 100 + (v % CompressedLine::kEntries);
    cl.install(e);
    benchmark::DoNotOptimize(cl.find_exact(e.version));
    ++v;
  }
}

void BM_VersionedStoreLoad(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 1;
  Machine m(cfg);
  OStructureManager osm(m);
  VersionStore& vs = osm.store();
  OAddr a = vs.alloc();
  std::uint64_t iters = 0;
  m.spawn(0, [&] {
    Ver v = 1;
    for (auto _ : state) {
      vs.store_version(a, v, v);
      benchmark::DoNotOptimize(vs.load_version(a, v));
      ++v;
      ++iters;
      if (v == 1024) {
        // Recycle the slot so per-iteration cost stays O(1) however many
        // iterations the harness schedules.
        vs.release(a);
        a = vs.alloc();
        v = 1;
      }
    }
  });
  m.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(iters) * 2);
}

void BM_VersionedDirectHit(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 1;
  Machine m(cfg);
  OStructureManager osm(m);
  VersionStore& vs = osm.store();
  const OAddr a = vs.alloc();
  m.spawn(0, [&] {
    vs.store_version(a, 1, 7);
    vs.load_version(a, 1);  // warm the compressed line
    for (auto _ : state) benchmark::DoNotOptimize(vs.load_version(a, 1));
  });
  m.run();
}

BENCHMARK(BM_CacheHit);
BENCHMARK(BM_CacheMissFill);
BENCHMARK(BM_MemorySystemAccess);
BENCHMARK(BM_VersionListInsert)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_VersionListFindLatest)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_CompressedInstallFind);
BENCHMARK(BM_VersionedStoreLoad);
BENCHMARK(BM_VersionedDirectHit);
BENCHMARK(BM_FiberSwitch);

}  // namespace
}  // namespace osim

BENCHMARK_MAIN();
