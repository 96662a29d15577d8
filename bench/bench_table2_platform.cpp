// Table II: the experimental platform. Prints the modelled configuration
// and validates, with micro-probes on a live machine, that the hierarchy
// actually delivers the configured latencies.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "runtime/env.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::Driver;
using bench::make_config;

CellResult l1_hit_probe() {
  Env env(make_config(1));
  const Addr a = 0x10000;
  Cycles hit = 0;
  env.spawn(0, [&] {
    mach().mem_access(a, AccessType::kRead);  // cold fill
    const Cycles t0 = mach().now();
    mach().mem_access(a, AccessType::kRead);
    hit = mach().now() - t0;
  });
  env.run();
  return bench::cell_result(env, hit, 0);
}

CellResult cold_probe() {
  Env env(make_config(1));
  Cycles cold = 0;
  env.spawn(0, [&] {
    const Cycles t0 = mach().now();
    mach().mem_access(0x20000, AccessType::kRead);
    cold = mach().now() - t0;
  });
  env.run();
  return bench::cell_result(env, cold, 0);
}

CellResult l2_hit_probe() {
  // Fill past L1 capacity, then re-touch: L2 hit.
  Env env(make_config(1));
  Cycles l2 = 0;
  env.spawn(0, [&] {
    const std::size_t lines = 2 * env.config().l1.size_bytes / kLineBytes;
    for (std::size_t i = 0; i < lines; ++i) {
      mach().mem_access(0x40000 + i * kLineBytes, AccessType::kRead);
    }
    const Cycles t0 = mach().now();
    mach().mem_access(0x40000, AccessType::kRead);
    l2 = mach().now() - t0;
  });
  env.run();
  return bench::cell_result(env, l2, 0);
}

CellResult remote_probe() {
  // Remote dirty line: write on core 1, read on core 0.
  Env env(make_config(2));
  Cycles remote = 0;
  WaitList gate;
  bool ready = false;
  env.spawn(1, [&] {
    mach().mem_access(0x80000, AccessType::kWrite);
    ready = true;
    mach().wake_all(gate, 0);
  });
  env.spawn(0, [&] {
    if (!ready) mach().block_on(gate);
    const Cycles t0 = mach().now();
    mach().mem_access(0x80000, AccessType::kRead);
    remote = mach().now() - t0;
  });
  env.run();
  return bench::cell_result(env, remote, 0);
}

CellResult direct_probe() {
  // Versioned direct access: L1-resident compressed line.
  Env env(make_config(1));
  Cycles direct = 0;
  env.spawn(0, [&] {
    const OAddr a = env.store().alloc();
    env.store().store_version(a, 1, 42);
    env.store().load_version(a, 1);  // install + warm
    const Cycles t0 = mach().now();
    env.store().load_version(a, 1);
    direct = mach().now() - t0;
  });
  env.run();
  return bench::cell_result(env, direct, 0);
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  if (opt.backend != BackendKind::kTimed) {
    std::fprintf(stderr,
                 "table2_platform: latency probes drive the simulated "
                 "memory hierarchy; only --backend=timed makes sense here\n");
    return 2;
  }
  Driver driver("table2_platform", opt);

  const MachineConfig c = make_config(32);

  struct Probe {
    const char* name;
    CellResult (*fn)();
    Cycles expected;
  };
  const Probe probes[] = {
      {"L1 hit", l1_hit_probe, c.l1.hit_latency},
      {"cold (L2 miss + DRAM)", cold_probe,
       c.l1.hit_latency + c.l2_hit_latency + c.dram_latency},
      {"L2 hit", l2_hit_probe, c.l1.hit_latency + c.l2_hit_latency},
      {"remote L1 forward", remote_probe,
       c.l1.hit_latency + c.remote_l1_latency},
      {"versioned direct hit", direct_probe, c.l1.hit_latency},
  };
  std::vector<std::size_t> handles;
  for (const Probe& p : probes) {
    auto fn = p.fn;
    handles.push_back(driver.add(p.name, [fn] { return fn(); }));
  }

  driver.run_all();

  // The modelled configuration, above the measured table finish() prints.
  std::printf("Table II: the experimental platform (modelled)\n\n");
  std::printf("  Processor   %d-wide in-order, %.0f GHz, %d cores\n",
              c.issue_width, c.ghz, c.num_cores);
  std::printf("  L1 I/D      %zu KB, %d-way, %d B lines, %llu-cycle hit\n",
              c.l1.size_bytes / 1024, c.l1.ways, c.l1.line_bytes,
              static_cast<unsigned long long>(c.l1.hit_latency));
  std::printf(
      "  L2          %.1f MB x %d cores (shared, inclusive), %d-way, "
      "%llu-cycle hit\n",
      c.l2_per_core_bytes / (1024.0 * 1024.0), c.num_cores, c.l2_ways,
      static_cast<unsigned long long>(c.l2_hit_latency));
  std::printf("  Memory      %llu-cycle latency (60 ns at 2 GHz)\n",
              static_cast<unsigned long long>(c.dram_latency));
  std::printf("  Remote L1   %llu cycles (comparable to LLC, Sec. IV-D)\n\n",
              static_cast<unsigned long long>(c.remote_l1_latency));

  for (std::size_t i = 0; i < handles.size(); ++i) {
    driver.check(std::string(probes[i].name) + " latency as configured",
                 driver.result(handles[i]).cycles == probes[i].expected);
  }
  return driver.finish();
}
