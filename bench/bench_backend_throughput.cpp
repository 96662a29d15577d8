// Backend throughput: the cost of cycle accuracy.
//
// Runs the same large opgen mixes on the cycle-accurate machine and on the
// functional backend, side by side, and reports host throughput (ops/sec)
// plus the functional speedup. The functional backend executes the same
// versioned ISA against the same VersionStore engine — only the timing
// model differs — so the two cells of each pair must produce identical
// checksums; that cross-backend agreement is recorded as a driver check.
//
// This is deliberately the one bench whose JSON table mixes backends:
// every cell is labelled with its backend and osim-report --validate
// exempts it from the no-mixed-backends rule.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/rb_tree.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::make_config;

using WorkloadFn = RunResult (*)(Env&, const DsSpec&, int);

struct Mix {
  const char* name;
  WorkloadFn fn;
  std::size_t initial_size;
  int base_ops;
  int cores;
};

// The driver's per-cell wall clock includes Env setup and the metrics dump
// in cell_result — noise at the same order as a whole functional run, so
// the cell records the host time of the workload call alone, with its
// structure-level op count, for the ops/sec columns.
CellResult run_cell(WorkloadFn fn, const DsSpec& spec, int cores,
                    BackendKind backend) {
  MachineConfig config = make_config(cores);
  config.backend = backend;
  Env env(config);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = fn(env, spec, cores);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  CellResult cell = bench::cell_result(env, r.cycles, r.checksum);
  cell.wall_seconds = wall;
  cell.ops = static_cast<std::uint64_t>(spec.ops);
  return cell;
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  // Pinned to the paper collector: like the figure benches', the opgen
  // mixes read exact versions outside the bounded read-cap discipline the
  // bounded policy's range rule relies on.
  require_paper_gc(opt, argv[0]);
  if (opt.backend != BackendKind::kTimed) {
    std::fprintf(stderr,
                 "backend_throughput: this bench runs both backends per "
                 "mix; --backend selects nothing here\n");
    return 2;
  }
  Driver driver("backend_throughput", opt);

  // Large opgen mixes (workloads/opgen.hpp). The pipelined list at 32
  // simulated cores is the flagship: every hand-over-hand step is a
  // stall/wake fiber round-trip the functional backend never pays.
  const Mix mixes[] = {
      {"linked_list", linked_list_versioned, 100, 15000, 32},
      {"hash_table", hash_table_versioned, 300, 15000, 8},
      {"binary_tree", binary_tree_versioned, 1000, 6000, 8},
      {"rb_tree", rb_tree_versioned, 1000, 6000, 8},
  };
  struct Pair {
    const Mix* mix;
    std::size_t timed, functional;
  };
  std::vector<Pair> pairs;
  for (const Mix& m : mixes) {
    DsSpec spec;
    spec.initial_size = m.initial_size;
    spec.ops = opt.scale.ops(m.base_ops);
    spec.reads_per_write = 3;
    const std::size_t timed =
        driver.add(std::string(m.name) + "/timed", [&m, spec] {
          return run_cell(m.fn, spec, m.cores, BackendKind::kTimed);
        });
    const std::size_t functional =
        driver.add(std::string(m.name) + "/functional", [&m, spec] {
          return run_cell(m.fn, spec, m.cores, BackendKind::kFunctional);
        });
    pairs.push_back({&m, timed, functional});
  }

  driver.run_all();

  for (const Pair& p : pairs) {
    driver.check(std::string(p.mix->name) +
                     ": functional output matches timed",
                 driver.result(p.timed).checksum ==
                     driver.result(p.functional).checksum);
  }
  return driver.finish();
}
