// Section IV-F: garbage collection overhead.
//
// Paper setup: a sequential workload of 1000 operations on a sorted linked
// list with 10 elements (the small list magnifies version allocation).
// Three configurations are compared:
//   tight   — a free list small enough to trigger many GC phases,
//   ample   — enough free version blocks to never collect,
//   nosort  — ample, with version-block list sorting disabled.
// Paper result: tight is only ~0.1% slower than ample, which is itself
// ~0.1% slower than nosort (versions are created in order, so sorting does
// almost no work — but it is what enables the GC).
#include <string>

#include "bench_util.hpp"
#include "driver.hpp"
#include "workloads/linked_list.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::make_config;

/// Machine-wide counter out of a cell's metric snapshot (0 when absent).
std::uint64_t metric(const CellResult& r, const std::string& key) {
  const bench::Json* m = r.metrics.find(key);
  return m == nullptr ? 0 : m->as_u64();
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  const Scale scale = opt.scale;
  Driver driver("gc_overhead", opt);

  DsSpec spec;
  spec.initial_size = 10;
  spec.ops = scale.ops(1000);
  spec.reads_per_write = 1;  // write-heavy: every second op allocates blocks

  MachineConfig tight = make_config(1);
  tight.ostruct.initial_pool_blocks = 80;
  tight.ostruct.trap_grow_blocks = 32;
  tight.ostruct.gc_watermark = 64;

  MachineConfig ample = make_config(1);
  ample.ostruct.initial_pool_blocks = 1 << 20;
  ample.ostruct.gc_watermark = 0;  // never collect

  MachineConfig nosort = ample;
  nosort.ostruct.sorted_lists = false;

  // GC counters ride along in each cell's metric snapshot.
  const MachineConfig configs[3] = {tight, ample, nosort};
  const char* names[3] = {"tight", "ample", "no-sorting"};
  std::size_t handles[3];
  for (int i = 0; i < 3; ++i) {
    const MachineConfig config = configs[i];
    handles[i] = driver.add(names[i], [config, spec] {
      Env env(with_cell_trace(config));
      const RunResult r = linked_list_versioned(env, spec, /*cores=*/1);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
  }

  // Head-to-head GC policy comparison: the tight configuration once under
  // each policy, pinned explicitly (independent of --gc, which only steers
  // the three paper-table cells above). Same workload, same pool pressure;
  // what differs is when shadowed blocks come back.
  const GcPolicyKind pinned[2] = {GcPolicyKind::kPaper, GcPolicyKind::kBounded};
  const char* pinned_names[2] = {"tight/gc=paper", "tight/gc=bounded"};
  std::size_t pinned_handles[2];
  for (int i = 0; i < 2; ++i) {
    const GcPolicyKind gc = pinned[i];
    pinned_handles[i] = driver.add(pinned_names[i], [tight, spec, gc] {
      MachineConfig config = with_cell_trace(tight);
      config.ostruct.gc_policy = gc;
      Env env(config);
      const RunResult r = linked_list_versioned(env, spec, /*cores=*/1);
      return bench::cell_result(env, r.cycles, r.checksum);
    });
  }

  driver.run_all();

  const CellResult& t = driver.result(handles[0]);
  const CellResult& a = driver.result(handles[1]);
  const CellResult& n = driver.result(handles[2]);
  driver.check("tight output matches ample", t.checksum == a.checksum);
  driver.check("ample output matches no-sorting", a.checksum == n.checksum);
  const CellResult& pp = driver.result(pinned_handles[0]);
  const CellResult& pb = driver.result(pinned_handles[1]);
  driver.check("gc=paper output matches gc=bounded",
               pp.checksum == pb.checksum);
  driver.check("gc=bounded reclaims blocks",
               metric(pb, "osm/blocks_freed") > 0);
  return driver.finish();
}
