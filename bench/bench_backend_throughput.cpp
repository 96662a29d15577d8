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
using bench::Driver;
using bench::fmt;
using bench::make_config;
using bench::with_cell_trace;

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
// ops/sec comes from timing the workload call alone (written into `wall`,
// one slot per cell; cells may run on different host threads).
CellResult run_cell(WorkloadFn fn, const DsSpec& spec, int cores,
                    BackendKind backend, double* wall) {
  MachineConfig config = with_cell_trace(make_config(cores));
  config.backend = backend;
  Env env(config);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = fn(env, spec, cores);
  *wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
  return bench::cell_result(env, r.cycles, r.checksum);
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
  constexpr std::size_t kMixes = sizeof(mixes) / sizeof(mixes[0]);

  struct Pair {
    const Mix* mix;
    DsSpec spec;
    std::size_t timed, functional;
  };
  std::vector<Pair> pairs;
  std::vector<double> wall(2 * kMixes, 0.0);  // [2i]=timed, [2i+1]=functional
  for (std::size_t i = 0; i < kMixes; ++i) {
    const Mix& m = mixes[i];
    DsSpec spec;
    spec.initial_size = m.initial_size;
    spec.ops = opt.scale.ops(m.base_ops);
    spec.reads_per_write = 3;
    Pair p;
    p.mix = &m;
    p.spec = spec;
    double* tw = &wall[2 * i];
    double* fw = &wall[2 * i + 1];
    p.timed = driver.add(std::string(m.name) + "/timed",
                         [&m, spec, tw] {
                           return run_cell(m.fn, spec, m.cores,
                                           BackendKind::kTimed, tw);
                         });
    p.functional = driver.add(std::string(m.name) + "/functional",
                              [&m, spec, fw] {
                                return run_cell(m.fn, spec, m.cores,
                                                BackendKind::kFunctional, fw);
                              });
    pairs.push_back(p);
  }

  driver.run_all();

  std::printf("Backend throughput: cycle-accurate vs functional, same "
              "VersionStore engine\n\n");
  rule(6, 15);
  row({"mix", "ops", "timed ops/s", "func ops/s", "speedup", "outputs"}, 15);
  rule(6, 15);
  double timed_wall = 0.0, func_wall = 0.0, best = 0.0;
  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    const CellResult& t = driver.result(p.timed);
    const CellResult& f = driver.result(p.functional);
    const double ops = static_cast<double>(p.spec.ops);
    const double tw = wall[2 * i], fw = wall[2 * i + 1];
    timed_wall += tw;
    func_wall += fw;
    total_ops += static_cast<std::uint64_t>(p.spec.ops);
    const double speedup = fw > 0 ? tw / fw : 0.0;
    if (speedup > best) best = speedup;
    driver.check(std::string(p.mix->name) +
                     ": functional output matches timed",
                 t.checksum == f.checksum);
    row({p.mix->name, std::to_string(p.spec.ops),
         fmt(tw > 0 ? ops / tw : 0.0, 0), fmt(fw > 0 ? ops / fw : 0.0, 0),
         fmt(speedup, 1) + "x",
         t.checksum == f.checksum ? "match" : "MISMATCH"},
        15);
  }
  rule(6, 15);
  std::printf(
      "\naggregate: %llu structure ops; timed %.2fs, functional %.2fs "
      "(%.1fx; best mix %.1fx)\n",
      static_cast<unsigned long long>(total_ops), timed_wall, func_wall,
      func_wall > 0 ? timed_wall / func_wall : 0.0, best);
  std::printf(
      "(\"ops\" are structure-level operations; each expands to many "
      "versioned ISA ops)\n");
  return driver.finish();
}
