// Figure 6: speedup of parallel versioned execution (32 cores) over
// sequential unversioned execution.
//
// Paper setup: small benchmarks start with 1000 elements, large with
// 10000; read-intensive is 4 reads per write (4R-1W), write-intensive is 1
// read per write (1R-1W). Matrix multiplication chains three dense
// matrices; Levenshtein compares strings of length 1000.
//
// Expected shape (paper): matmul and Levenshtein scale near-linearly;
// pointer-chasing structures reach meaningful but sub-linear speedups; the
// red-black tree is the weakest (single writer throttles the root).
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

using bench::make_config;

constexpr int kCores = 32;

struct Ds {
  const char* name;
  RunResult (*seq)(Env&, const DsSpec&);
  RunResult (*par)(Env&, const DsSpec&, int);
  int base_ops;  // scaled by --quick/--full
};

// A sequential cell, a parallel cell, and the label their check names.
struct Line {
  std::string label;  // name/size/mix
  std::size_t seq;
  std::size_t par;
};

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  const Scale scale = opt.scale;
  Driver driver("fig6_speedup", opt);

  const Ds structures[] = {
      {"linked_list", linked_list_sequential, linked_list_versioned, 480},
      {"binary_tree", binary_tree_sequential, binary_tree_versioned, 2000},
      {"hash_table", hash_table_sequential, hash_table_versioned, 2000},
      {"rb_tree", rb_tree_sequential, rb_tree_versioned, 1200},
  };

  std::vector<Line> lines;
  for (const Ds& ds : structures) {
    for (std::size_t size : {std::size_t{1000}, std::size_t{10000}}) {
      for (int rpw : {4, 1}) {
        DsSpec spec;
        spec.initial_size = size;
        spec.ops = scale.ops(ds.base_ops);
        spec.reads_per_write = rpw;
        Line ln;
        ln.label = std::string(ds.name) + "/" +
                   (size == 1000 ? "small" : "large") + "/" +
                   (rpw == 4 ? "4R-1W" : "1R-1W");
        auto seq = ds.seq;
        ln.seq = driver.add(ln.label + "/seq", [seq, spec] {
          Env env(make_config(1));
          const RunResult r = seq(env, spec);
          return bench::cell_result(env, r.cycles, r.checksum);
        });
        auto par = ds.par;
        ln.par = driver.add(ln.label + "/par", [par, spec] {
          Env env(make_config(kCores));
          const RunResult r = par(env, spec, kCores);
          return bench::cell_result(env, r.cycles, r.checksum);
        });
        lines.push_back(ln);
      }
    }
  }
  {
    MatmulSpec spec;
    spec.n = scale.dim(100);
    Line ln;
    ln.label = "matrix_mul/n=" + std::to_string(spec.n) + "/-";
    ln.seq = driver.add("matrix_mul/seq", [spec] {
      Env env(make_config(1));
      const RunResult r = matmul_sequential(env, spec);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
    ln.par = driver.add("matrix_mul/par", [spec] {
      Env env(make_config(kCores));
      const RunResult r = matmul_versioned(env, spec, kCores);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
    lines.push_back(ln);
  }
  {
    LevSpec spec;
    spec.n = scale.dim(1000);
    Line ln;
    ln.label = "levenshtein/n=" + std::to_string(spec.n) + "/-";
    ln.seq = driver.add("levenshtein/seq", [spec] {
      Env env(make_config(1));
      const RunResult r = levenshtein_sequential(env, spec);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
    ln.par = driver.add("levenshtein/par", [spec] {
      Env env(make_config(kCores));
      const RunResult r = levenshtein_versioned(env, spec, kCores);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
    lines.push_back(ln);
  }

  driver.run_all();

  for (const Line& ln : lines) {
    driver.check(ln.label + ": versioned output matches sequential",
                 driver.result(ln.seq).checksum ==
                     driver.result(ln.par).checksum);
  }
  return driver.finish();
}
