// Figure 7: scalability analysis — speedup of parallel versioned execution
// over *sequential versioned* (1-core versioned) execution, for the large,
// read-intensive configuration of every benchmark.
//
// Expected shape (paper): matmul and Levenshtein scale near-linearly (up to
// ~25x at 32 cores); linked list reaches ~19x; binary tree and hash table
// land mid-range; the red-black tree flattens early (single writer).
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

using bench::Driver;
using bench::make_config;

const int kCoreSweep[] = {1, 2, 4, 8, 16, 32};

using ParFn = RunResult (*)(Env&, const DsSpec&, int);

// Handles for one workload's row across the core sweep.
struct Row {
  const char* name;
  std::vector<std::size_t> cells;
};

Row add_ds(Driver& driver, const char* name, ParFn par, const DsSpec& spec) {
  Row r{name, {}};
  for (int cores : kCoreSweep) {
    r.cells.push_back(driver.add(
        std::string(name) + "/cores=" + std::to_string(cores),
        [par, spec, cores] {
          Env env(make_config(cores));
          const RunResult res = par(env, spec, cores);
          return bench::cell_result(env, res.cycles, res.checksum);
        }));
  }
  return r;
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  const Scale scale = opt.scale;
  Driver driver("fig7_scalability", opt);

  std::vector<Row> rows;
  {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(480);
    rows.push_back(add_ds(driver, "linked_list", linked_list_versioned, spec));
  }
  {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(2000);
    rows.push_back(add_ds(driver, "binary_tree", binary_tree_versioned, spec));
    rows.push_back(add_ds(driver, "hash_table", hash_table_versioned, spec));
  }
  {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(1200);
    rows.push_back(add_ds(driver, "rb_tree", rb_tree_versioned, spec));
  }
  Row lev{"levenshtein", {}};
  {
    LevSpec spec;
    spec.n = scale.dim(1000);
    for (int cores : kCoreSweep) {
      lev.cells.push_back(driver.add(
          "levenshtein/cores=" + std::to_string(cores), [spec, cores] {
            Env env(make_config(cores));
            const RunResult res = levenshtein_versioned(env, spec, cores);
            return bench::cell_result(env, res.cycles, res.checksum);
          }));
    }
    rows.push_back(lev);
  }
  Row mm{"matrix_mul", {}};
  {
    MatmulSpec spec;
    spec.n = scale.dim(100);
    for (int cores : kCoreSweep) {
      mm.cells.push_back(driver.add(
          "matrix_mul/cores=" + std::to_string(cores), [spec, cores] {
            Env env(make_config(cores));
            const RunResult res = matmul_versioned(env, spec, cores);
            return bench::cell_result(env, res.cycles, res.checksum);
          }));
    }
    rows.push_back(mm);
  }

  driver.run_all();

  for (const Row& r : rows) {
    const std::uint64_t sum = driver.result(r.cells[0]).checksum;
    for (std::size_t h : r.cells) {
      driver.check(std::string(r.name) + ": checksum invariant across cores",
                   driver.result(h).checksum == sum);
    }
  }
  return driver.finish();
}
