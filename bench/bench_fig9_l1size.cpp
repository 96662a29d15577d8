// Figure 9: sensitivity to L1 cache size, 8 KB .. 128 KB, relative to the
// 32 KB baseline. Three run kinds per benchmark: unversioned sequential
// (U), versioned single core (1T), versioned 32 cores (32T).
//
// Expected shape (paper): "increasing the L1 cache size beyond 32KB has
// limited impact — up to 1.23x and usually much less"; parallel runs are
// the least sensitive. Reported values are speedups vs the 32 KB baseline
// (values below 1 for the smaller L1s).
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

const std::size_t kL1Kb[] = {8, 16, 32, 64, 128};

MachineConfig config_with_l1(int cores, std::size_t l1_kb) {
  MachineConfig c = make_config(cores);
  c.l1.size_bytes = l1_kb * 1024;
  return c;
}

/// A cell per L1 size for one (workload, run-kind) pair.
struct Line {
  std::string label;
  std::vector<std::size_t> cells;
};

/// Register `fn` at every L1 size.
Line add_sweep(Driver& driver, const std::string& label,
               std::function<CellResult(std::size_t)> fn) {
  Line ln{label, {}};
  for (std::size_t kb : kL1Kb) {
    ln.cells.push_back(driver.add(label + "/l1=" + std::to_string(kb) + "KB",
                                  [fn, kb] { return fn(kb); }));
  }
  return ln;
}

template <typename SeqFn, typename ParFn, typename Spec>
void add_ds(Driver& driver, std::vector<Line>& lines, const char* name,
            SeqFn seq, ParFn par, const Spec& spec) {
  lines.push_back(add_sweep(driver, std::string(name) + " U",
                            [seq, spec](std::size_t kb) {
                              Env env(config_with_l1(1, kb));
                              const RunResult r = seq(env, spec);
                              return bench::cell_result(env, r.cycles,
                                                        r.checksum);
                            }));
  lines.push_back(add_sweep(driver, std::string(name) + " 1T",
                            [par, spec](std::size_t kb) {
                              Env env(config_with_l1(1, kb));
                              const RunResult r = par(env, spec, 1);
                              return bench::cell_result(env, r.cycles,
                                                        r.checksum);
                            }));
  lines.push_back(add_sweep(driver, std::string(name) + " 32T",
                            [par, spec](std::size_t kb) {
                              Env env(config_with_l1(32, kb));
                              const RunResult r = par(env, spec, 32);
                              return bench::cell_result(env, r.cycles,
                                                        r.checksum);
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
  Driver driver("fig9_l1size", opt);

  struct DsCase {
    const char* name;
    RunResult (*seq)(Env&, const DsSpec&);
    RunResult (*par)(Env&, const DsSpec&, int);
    int base_ops;
  };
  const DsCase cases[] = {
      {"linked_list", linked_list_sequential, linked_list_versioned, 160},
      {"binary_tree", binary_tree_sequential, binary_tree_versioned, 1200},
      {"hash_table", hash_table_sequential, hash_table_versioned, 1200},
      {"rb_tree", rb_tree_sequential, rb_tree_versioned, 800},
  };
  std::vector<Line> lines;
  for (const DsCase& c : cases) {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(c.base_ops);
    add_ds(driver, lines, c.name, c.seq, c.par, spec);
  }
  {
    LevSpec spec;
    spec.n = scale.dim(600);
    add_ds(
        driver, lines, "levenshtein",
        [](Env& e, const LevSpec& s) { return levenshtein_sequential(e, s); },
        [](Env& e, const LevSpec& s, int cores) {
          return levenshtein_versioned(e, s, cores);
        },
        spec);
  }
  {
    MatmulSpec spec;
    spec.n = scale.dim(72);
    add_ds(
        driver, lines, "matrix_mul",
        [](Env& e, const MatmulSpec& s) { return matmul_sequential(e, s); },
        [](Env& e, const MatmulSpec& s, int cores) {
          return matmul_versioned(e, s, cores);
        },
        spec);
  }

  driver.run_all();

  for (const Line& ln : lines) {
    const std::uint64_t sum = driver.result(ln.cells[2]).checksum;  // 32 KB
    for (std::size_t h : ln.cells) {
      driver.check(ln.label + ": checksum invariant across L1 sizes",
                   driver.result(h).checksum == sum);
    }
  }
  return driver.finish();
}
