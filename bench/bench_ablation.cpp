// Ablation study of the microarchitectural design choices (beyond the
// paper's own Figs. 9/10 and Sec. IV-F):
//
//   no-compress   — compressed version blocks disabled: every versioned
//                   access takes the full-lookup path (paper Sec. III-A
//                   motivates compression with the single-probe direct
//                   access).
//   no-pollute    — cache-pollution avoidance disabled: every block touched
//                   during a list walk is installed in L1, evicting hot
//                   lines ("cold versions take the place of hot ones").
//   inplace-comp  — the paper's future-work variant: remote compressed
//                   lines are patched in situ by the extended coherence
//                   message instead of being discarded.
//
// Reported: cycles relative to the baseline configuration (higher = faster)
// for a single-core and a 32-core versioned run of each workload.
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/linked_list.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::Driver;

struct Variant {
  const char* name;
  void (*apply)(OStructConfig&);
};

const Variant kVariants[] = {
    {"baseline", [](OStructConfig&) {}},
    {"no-compress", [](OStructConfig& c) { c.enable_compression = false; }},
    {"no-pollute", [](OStructConfig& c) { c.pollution_avoidance = false; }},
    {"inplace-comp", [](OStructConfig& c) { c.inplace_comp_update = true; }},
};

/// A cell per variant for one (workload, cores) pair.
struct Line {
  std::string label;
  std::vector<std::size_t> cells;
};

Line add_sweep(Driver& driver, const std::string& label, int cores,
               std::function<CellResult(const MachineConfig&)> run) {
  Line ln{label, {}};
  for (const Variant& v : kVariants) {
    MachineConfig c;
    c.num_cores = cores;
    v.apply(c.ostruct);
    ln.cells.push_back(
        driver.add(label + "/" + v.name, [run, c] { return run(c); }));
  }
  return ln;
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  const Scale scale = opt.scale;
  Driver driver("ablation", opt);

  std::vector<Line> lines;
  {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(160);
    auto run = [spec](const MachineConfig& c) {
      Env env(bench::with_cell_trace(c));
      const RunResult r = linked_list_versioned(env, spec, c.num_cores);
      return bench::cell_result(env, r.cycles, r.checksum);
    };
    lines.push_back(add_sweep(driver, "linked_list 1T", 1, run));
    lines.push_back(add_sweep(driver, "linked_list 32T", 32, run));
  }
  {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 4;
    spec.ops = scale.ops(1200);
    auto run = [spec](const MachineConfig& c) {
      Env env(bench::with_cell_trace(c));
      const RunResult r = binary_tree_versioned(env, spec, c.num_cores);
      return bench::cell_result(env, r.cycles, r.checksum);
    };
    lines.push_back(add_sweep(driver, "binary_tree 1T", 1, run));
    lines.push_back(add_sweep(driver, "binary_tree 32T", 32, run));
  }

  driver.run_all();

  for (const Line& ln : lines) {
    const std::uint64_t sum = driver.result(ln.cells[0]).checksum;
    for (std::size_t h : ln.cells) {
      driver.check(ln.label + ": checksum invariant across variants",
                   driver.result(h).checksum == sum);
    }
  }
  return driver.finish();
}
