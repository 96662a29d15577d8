// Figure 10: slowdown from injecting a fixed extra latency (2..10 cycles)
// into every versioned operation, for versioned 1-core (1T) and 32-core
// (32T) runs, relative to the no-injection baseline.
//
// Expected shape (paper): up to ~16% slowdown at +10 cycles, much milder at
// +2..4; parallel runs and miss-dominated workloads are less sensitive
// ("frequently accessing the LLC reduces the effect of L1 latency").
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/levenshtein.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/matmul.hpp"
#include "workloads/rb_tree.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::Driver;
using bench::make_config;

const Cycles kInject[] = {0, 2, 4, 6, 8, 10};

MachineConfig config_with_inject(int cores, Cycles extra) {
  MachineConfig c = make_config(cores);
  c.ostruct.injected_latency = extra;
  return c;
}

/// A cell per injected latency for one (workload, cores) pair.
struct Line {
  std::string label;
  std::vector<std::size_t> cells;
};

Line add_sweep(Driver& driver, const std::string& label,
               std::function<CellResult(Cycles)> fn) {
  Line ln{label, {}};
  for (Cycles extra : kInject) {
    ln.cells.push_back(
        driver.add(label + "/+" + std::to_string(extra) + "cyc",
                   [fn, extra] { return fn(extra); }));
  }
  return ln;
}

template <typename ParFn>
void add_par(Driver& driver, std::vector<Line>& lines, const char* name,
             ParFn par) {
  lines.push_back(
      add_sweep(driver, std::string(name) + " 1T", [par](Cycles extra) {
        Env env(config_with_inject(1, extra));
        const RunResult r = par(env, 1);
        return bench::cell_result(env, r.cycles, r.checksum);
      }));
  lines.push_back(
      add_sweep(driver, std::string(name) + " 32T", [par](Cycles extra) {
        Env env(config_with_inject(32, extra));
        const RunResult r = par(env, 32);
        return bench::cell_result(env, r.cycles, r.checksum);
      }));
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  const Scale scale = opt.scale;
  Driver driver("fig10_latency", opt);

  struct DsCase {
    const char* name;
    RunResult (*par)(Env&, const DsSpec&, int);
    int base_ops;
  };
  const DsCase cases[] = {
      {"linked_list", linked_list_versioned, 160},
      {"binary_tree", binary_tree_versioned, 1200},
      {"hash_table", hash_table_versioned, 1200},
      {"rb_tree", rb_tree_versioned, 800},
  };
  std::vector<Line> lines;
  for (const DsCase& c : cases) {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(c.base_ops);
    auto par = c.par;
    add_par(driver, lines, c.name, [par, spec](Env& env, int cores) {
      return par(env, spec, cores);
    });
  }
  {
    LevSpec spec;
    spec.n = scale.dim(600);
    add_par(driver, lines, "levenshtein", [spec](Env& env, int cores) {
      return levenshtein_versioned(env, spec, cores);
    });
  }
  {
    MatmulSpec spec;
    spec.n = scale.dim(72);
    add_par(driver, lines, "matrix_mul", [spec](Env& env, int cores) {
      return matmul_versioned(env, spec, cores);
    });
  }

  driver.run_all();

  for (const Line& ln : lines) {
    const std::uint64_t sum = driver.result(ln.cells[0]).checksum;  // +0cyc
    for (std::size_t i = 1; i < ln.cells.size(); ++i) {
      driver.check(ln.label + ": checksum invariant across injected latency",
                   driver.result(ln.cells[i]).checksum == sum);
    }
  }
  return driver.finish();
}
