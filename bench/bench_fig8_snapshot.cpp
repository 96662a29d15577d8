// Figure 8: snapshot isolation — versioned binary tree vs an unversioned
// binary tree protected by a read-write lock.
//
// Paper setup: initial tree size 10000; scans and inserts in a 3:1 ratio;
// scan ranges 1 (simple get), 8 and 64; 4..32 cores. "Above 1 means the
// versioned implementation runs faster."
//
// Expected shape (paper): the unversioned tree wins at low core counts (the
// versioning overhead), the versioned tree overtakes as cores grow because
// scans overlap inserts (average versioned self-speedup 12.2 vs 7.9 for the
// rwlock tree; versioned wins by ~16% on average at scale).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/binary_tree.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::Driver;
using bench::fmt;
using bench::make_config;

const int kCoreSweep[] = {1, 4, 8, 16, 32};

struct Range {
  int range;
  std::vector<std::size_t> ver;  // one handle per core count
  std::vector<std::size_t> rw;
};

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  require_paper_gc(opt, argv[0]);
  const Scale scale = opt.scale;
  Driver driver("fig8_snapshot", opt);

  std::vector<Range> ranges;
  for (int range : {1, 8, 64}) {
    DsSpec spec;
    spec.initial_size = 10000;
    spec.reads_per_write = 3;
    spec.scan_range = range;
    spec.ops = scale.ops(1500);

    Range r;
    r.range = range;
    for (int cores : kCoreSweep) {
      const std::string key =
          "range=" + std::to_string(range) + "/cores=" + std::to_string(cores);
      r.ver.push_back(driver.add(key + "/versioned", [spec, cores] {
        Env env(make_config(cores));
        const RunResult res = binary_tree_versioned(env, spec, cores);
        return bench::cell_result(env, res.cycles, res.checksum);
      }));
      r.rw.push_back(driver.add(key + "/rwlock", [spec, cores] {
        Env env(make_config(cores));
        const RunResult res = binary_tree_rwlock(env, spec, cores);
        return bench::cell_result(env, res.cycles, res.checksum);
      }));
    }
    ranges.push_back(std::move(r));
  }

  driver.run_all();

  std::printf(
      "Figure 8: performance ratio, versioned tree / rwlock tree\n"
      "(tree size 10000, scans:inserts 3:1; >1 means versioned is faster)\n"
      "\n");
  rule(6, 12);
  row({"scan range", "1 core", "4 cores", "8 cores", "16 cores", "32 cores"},
      12);
  rule(6, 12);

  double ver_self = 0.0, rw_self = 0.0;
  int self_count = 0;
  for (const Range& r : ranges) {
    std::vector<std::string> cells{"range " + std::to_string(r.range)};
    for (std::size_t i = 0; i < r.ver.size(); ++i) {
      const Cycles ver = driver.result(r.ver[i]).cycles;
      const Cycles rw = driver.result(r.rw[i]).cycles;
      cells.push_back(fmt(static_cast<double>(rw) / ver));
    }
    row(cells, 12);
    // Self-speedup from the 1-core entry (index 0) to the 32-core entry.
    ver_self += static_cast<double>(driver.result(r.ver.front()).cycles) /
                driver.result(r.ver.back()).cycles;
    rw_self += static_cast<double>(driver.result(r.rw.front()).cycles) /
               driver.result(r.rw.back()).cycles;
    ++self_count;
  }
  rule(6, 12);
  std::printf(
      "\nAvg. self speedup (1 -> 32 cores): versioned = %.1f, "
      "unversioned/rwlock = %.1f\n",
      ver_self / self_count, rw_self / self_count);
  std::printf(
      "Paper reference (Fig. 8): versioned below 1.0 on one core, above 1.0\n"
      "at scale (+16%% average); self-speedups 12.2 (versioned) vs 7.9 "
      "(rwlock).\n");
  return driver.finish();
}
