// Hardware vs software O-structures (paper Sec. II-C): "O-structures ...
// can be implemented purely as a software runtime abstraction; we've indeed
// started with a software prototype. However, the logic added to versioned
// memory operations incurred too much overhead, indicating hardware support
// is required."
//
// This bench quantifies that claim on this simulator: the same randomized
// store/load-latest/lock mix runs against the hardware manager (versioned<T>)
// and the software runtime (SwOStructure), single-core and multicore.
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "runtime/sw_ostructures.hpp"
#include "runtime/versioned.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::make_config;

constexpr int kSlots = 64;

/// The op mix each core executes against its own set of slots (keeping the
/// comparison about per-op cost, not inter-core contention).
template <typename StoreFn, typename LoadFn, typename LockFn>
void run_mix(int ops, unsigned seed, StoreFn&& store, LoadFn&& load,
             LockFn&& lock_unlock) {
  std::mt19937 rng(seed);
  std::vector<Ver> next_ver(kSlots, 1);
  for (int i = 0; i < ops; ++i) {
    const int s = static_cast<int>(rng() % kSlots);
    switch (rng() % 4) {
      case 0:
      case 1:
        store(s, next_ver[s]);
        next_ver[s]++;
        break;
      case 2:
        if (next_ver[s] > 1) load(s, rng() % (next_ver[s] - 1) + 1);
        break;
      case 3:
        if (next_ver[s] > 1) {
          // Lock the newest version and rename it onto the next fresh id.
          lock_unlock(s, next_ver[s]);
          next_ver[s]++;
        }
        break;
    }
  }
}

CellResult run_hw(int cores, int ops_per_core) {
  Env env(make_config(cores));
  std::vector<std::vector<versioned<std::uint64_t>>> slots(cores);
  for (int c = 0; c < cores; ++c) {
    for (int s = 0; s < kSlots; ++s) slots[c].emplace_back(env);
  }
  for (CoreId c = 0; c < cores; ++c) {
    env.spawn(c, [&, c] {
      auto& mine = slots[c];
      run_mix(
          ops_per_core, 1000u + c,
          [&](int s, Ver v) { mine[s].store_ver(v, v); },
          [&](int s, Ver v) { mine[s].load_latest(v); },
          [&](int s, Ver fresh) {
            // Distinct locker per core: sharing one task id across cores
            // makes concurrent holds look like one task's nesting (flagged
            // by osim-check as lock-order hazards).
            const TaskId locker = 7 + static_cast<TaskId>(c);
            Ver got = 0;
            mine[s].lock_load_last(fresh - 1, locker, &got);
            mine[s].unlock_ver(got, locker, /*rename_to=*/Ver{fresh});
          });
    });
  }
  return bench::cell_result(env, env.run(), 0);
}

CellResult run_sw(int cores, int ops_per_core) {
  Env env(make_config(cores));
  // Lock words and record lists are timed: the structures live in the arena.
  std::vector<std::vector<SwOStructure*>> slots(cores);
  for (int c = 0; c < cores; ++c) {
    for (int s = 0; s < kSlots; ++s) {
      slots[c].push_back(env.make<SwOStructure>(env));
    }
  }
  for (CoreId c = 0; c < cores; ++c) {
    env.spawn(c, [&, c] {
      auto& mine = slots[c];
      run_mix(
          ops_per_core, 1000u + c,
          [&](int s, Ver v) { mine[s]->store_version(v, v); },
          [&](int s, Ver v) { mine[s]->load_latest(v); },
          [&](int s, Ver fresh) {
            const TaskId locker = 7 + static_cast<TaskId>(c);
            Ver got = 0;
            mine[s]->lock_load_latest(fresh - 1, locker, &got);
            mine[s]->unlock_version(got, locker, Ver{fresh});
          });
    });
  }
  return bench::cell_result(env, env.run(), 0);
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
                 "sw_vs_hw: this figure is about simulated per-op cost; "
                 "only --backend=timed makes sense here\n");
    return 2;
  }
  const int ops = opt.scale.ops(2000);
  Driver driver("sw_vs_hw", opt);

  const int kCoreCounts[] = {1, 8, 32};
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (hw, sw) handles
  for (int cores : kCoreCounts) {
    const std::size_t hw = driver.add(
        "hw/cores=" + std::to_string(cores),
        [cores, ops] { return run_hw(cores, ops); });
    const std::size_t sw = driver.add(
        "sw/cores=" + std::to_string(cores),
        [cores, ops] { return run_sw(cores, ops); });
    pairs.emplace_back(hw, sw);
  }

  driver.run_all();

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    driver.check("software runtime no faster than hardware at " +
                     std::to_string(kCoreCounts[i]) + " cores",
                 driver.result(pairs[i].second).cycles >=
                     driver.result(pairs[i].first).cycles);
  }
  return driver.finish();
}
