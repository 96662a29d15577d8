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
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/binary_tree.hpp"

namespace osim {
namespace {

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

  // One scan range runs the same ops at every core count: the versioned tree
  // orders them by task id, the rwlock tree by lock acquisition (task order
  // only on one core).
  for (const Range& r : ranges) {
    const std::string label = "range=" + std::to_string(r.range);
    const std::uint64_t sum = driver.result(r.ver[0]).checksum;
    for (std::size_t i = 1; i < r.ver.size(); ++i) {
      driver.check(label + ": versioned checksum invariant across cores",
                   driver.result(r.ver[i]).checksum == sum);
    }
    driver.check(label + ": 1-core rwlock output matches versioned",
                 driver.result(r.rw[0]).checksum == sum);
  }
  return driver.finish();
}
