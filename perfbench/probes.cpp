// Outside-in calibration probes: isolated costs of single layers, each timed
// in a loop through the layer's public functions and reported as the median
// of three passes. The sim probes walk a footprint the size of sim_list32's
// list (one cache line per element); the concurrent ones run on one thread
// with no contention, so they cover thread lookup, epoch pin and a
// one-block walk (load) or a head insert (store).
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/concurrent_store.hpp"
#include "runtime/env.hpp"
#include "sim/fiber.hpp"
#include "sim/memory_system.hpp"

namespace perfbench {
namespace {

constexpr int kPasses = 3;
constexpr std::uint64_t kFootprintLines = 10000;  // sim_list32's elements
constexpr int kSimCores = 32;

template <typename F>
double median_ns_per_call(std::uint64_t calls, F&& body) {
  std::vector<double> ns;
  for (int p = 0; p < kPasses; ++p) {
    const auto t0 = Clock::now();
    body();
    ns.push_back(static_cast<double>(ns_since(t0)) /
                 static_cast<double>(calls));
  }
  return median(ns);
}

}  // namespace

void probe_sim_layers(Report& report) {
  {
    bool stop = false;
    osim::Fiber f([&stop] {
      while (!stop) osim::Fiber::current()->yield();
    });
    constexpr std::uint64_t kResumes = 1 << 20;
    // Each resume is two switches: into the fiber and back.
    const double ns = median_ns_per_call(2 * kResumes, [&f] {
      for (std::uint64_t i = 0; i < kResumes; ++i) f.resume();
    });
    stop = true;
    f.resume();
    report.metric("sim.fiber.switch_ns", ns, "ns");
  }
  {
    osim::MachineConfig cfg;
    cfg.num_cores = kSimCores;
    osim::telemetry::MetricRegistry reg(kSimCores);
    osim::MemorySystem ms(cfg, reg);
    // One pass over the footprint per core in turn, like successive tasks
    // traversing the list on their own cores.
    constexpr std::uint64_t kAccesses = kFootprintLines * kSimCores;
    std::uint64_t sink = 0;
    const double ns = median_ns_per_call(kAccesses, [&] {
      for (std::uint64_t i = 0; i < kAccesses; ++i) {
        const auto core = static_cast<osim::CoreId>(i / kFootprintLines);
        const osim::Addr a = (i % kFootprintLines) * osim::kLineBytes;
        sink += ms.access(core, a, osim::AccessType::kRead);
      }
    });
    keep(sink);
    report.metric("sim.memsys.access_ns", ns, "ns");
  }
  {
    osim::MachineConfig cfg;
    cfg.num_cores = 1;
    osim::Env env(cfg);
    std::vector<std::uint64_t> host(kFootprintLines * osim::kLineBytes / 8);
    constexpr std::uint64_t kCalls = 1 << 21;
    std::uint64_t sink = 0;
    const double ns = median_ns_per_call(kCalls, [&] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        const std::size_t word = (i % kFootprintLines) * osim::kLineBytes / 8;
        sink += env.translate(reinterpret_cast<osim::Addr>(&host[word]));
      }
    });
    keep(sink);
    report.metric("runtime.env.translate_ns", ns, "ns");
  }
}

namespace {

void probe_conc_on_this_thread(Report& report) {
  {
    osim::ConcurrentVersionStore store;
    const osim::OAddr a = store.alloc(1);
    store.store_version(a, 1, 7);
    constexpr std::uint64_t kLoads = 1 << 21;
    std::uint64_t sink = 0;
    const double ns = median_ns_per_call(kLoads, [&] {
      for (std::uint64_t i = 0; i < kLoads; ++i) sink += store.load_latest(a, 1);
    });
    if (sink != 7 * kLoads * kPasses) {
      report.violation("uncontended load probe read wrong data");
    }
    report.metric("core.conc.uncontended_load_ns", ns, "ns");
  }
  {
    osim::ConcurrentVersionStore store;
    constexpr std::uint64_t kSlots = 4096;
    constexpr std::uint64_t kStores = 1 << 17;
    const osim::OAddr base = store.alloc(kSlots);
    osim::Ver v = 1;
    const double ns = median_ns_per_call(kStores, [&] {
      for (std::uint64_t i = 0; i < kStores; ++i, ++v) {
        store.store_version(base + 8 * (i % kSlots), v, v);
      }
    });
    report.metric("core.conc.uncontended_store_ns", ns, "ns");
  }
}

}  // namespace

void probe_conc_layers(Report& report) {
  // On a fresh thread: a host thread's store bindings accumulate over every
  // store it has used, and the run's host thread has used one per round.
  std::exception_ptr error;
  std::thread probe([&report, &error] {
    try {
      probe_conc_on_this_thread(report);
    } catch (...) {
      error = std::current_exception();
    }
  });
  probe.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace perfbench
