// Shared experiment driver for the figure benches.
//
// Every bench used to run its (workload x config x mix) grid serially
// inside its printing code. The driver splits that into phases:
//
//   1. register every experiment cell up front (Driver::add),
//   2. run them all — fanned out across host threads (sim/host_pool.hpp);
//      each cell builds, runs, and tears down its own Env/Machine, so the
//      simulated cycles, stats, and checksums are bit-identical for any
//      --threads value,
//   3. read results back in registration order and record invariants
//      (checksum matches) with check(),
//   4. finish(): print the figure table from the bench's JSON record
//      (bench/report.hpp), the check verdicts and the wall-clock summary,
//      and write/merge the record into the --json file.
//
// The JSON file maps bench name -> { scale, threads, wall_seconds, cells,
// checks }; running several benches with the same --json path accumulates
// all of them into one BENCH_results.json.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/types.hpp"
#include "json.hpp"

namespace osim::analysis {
class Checker;
}  // namespace osim::analysis

namespace osim::bench {

struct CellResult {
  Cycles cycles = 0;
  std::uint64_t checksum = 0;
  /// Host seconds for this cell. A cell that times only part of its work
  /// sets it; the driver fills in the whole cell's time when it is 0.
  double wall_seconds = 0.0;
  /// Backend that produced this cell ("timed" / "functional"); cell_result
  /// records the cell Env's own backend, so mixed-backend benches label
  /// each cell correctly. Empty = fall back to the bench-wide --backend.
  std::string backend;
  /// GC policy behind the cell ("paper" / "bounded"); cell_result records
  /// the cell Env's own policy, so policy-comparison benches label each
  /// cell correctly. Empty = fall back to the bench-wide --gc.
  std::string gc;
  /// Operations the cell issued, for cells that count them: versioned ISA
  /// ops (osim-chaos rounds), structure-level ops (backend_throughput);
  /// 0 = not recorded.
  std::uint64_t ops = 0;
  /// Registry snapshot for the cell's machine (counters by "component/name",
  /// per-core vectors, histograms); lands in the JSON cell record.
  Json metrics;
  /// osim-check verdict (--check runs only). `check` is the JSON schema-2
  /// extension written into the cell record: {errors, warnings, total,
  /// findings: [...]}.
  bool checked = false;
  std::uint64_t check_errors = 0;
  Json check;
};

/// One experiment cell: runs on some host thread, owns its whole simulation.
using CellFn = std::function<CellResult()>;

/// Serialize every metric of `reg` (see CellResult::metrics).
Json metrics_json(const telemetry::MetricRegistry& reg);

/// Fold `checker`'s verdict into `r`: runs the end-of-run pass and writes
/// the schema-2 check record (call once per cell). Shared by every
/// checker-attaching cell — Env-owned checkers (harvest_check) and tools
/// that attach their own sink via analysis::attach_checker.
void fill_check(analysis::Checker& checker, CellResult& r);

/// Fold the cell Env's osim-check verdict into `r` (no-op when checking is
/// off). Runs the checker's end-of-run pass, so call once per cell.
void harvest_check(Env& env, CellResult& r);

/// Standard cell epilogue: cycles + checksum + the machine's metrics +
/// the osim-check verdict when --check is on.
inline CellResult cell_result(Env& env, Cycles cycles,
                              std::uint64_t checksum) {
  CellResult r;
  r.cycles = cycles;
  r.checksum = checksum;
  r.backend = to_string(env.config().backend);
  r.gc = to_string(env.config().ostruct.gc_policy);
  r.metrics = metrics_json(env.metrics());
  harvest_check(env, r);
  return r;
}

class Driver {
 public:
  Driver(std::string bench_name, Options options);

  /// Register a cell; `name` keys it in tables and JSON (e.g.
  /// "linked_list/cores=8"). Returns a handle for result().
  std::size_t add(std::string name, CellFn fn);

  /// Run every registered cell to completion. Safe to call repeatedly; only
  /// cells added since the last run are executed (so a bench may register,
  /// run, and read results in stages if a later grid depends on earlier
  /// results).
  void run_all();

  /// Result of cell `handle`; valid after run_all().
  const CellResult& result(std::size_t handle) const;

  /// Record a named invariant. Failures are printed by finish() and make it
  /// return (and the process exit) non-zero — this is what lets a CI smoke
  /// run fail on checksum mismatches.
  void check(const std::string& what, bool ok);

  /// Print the figure table and the wall-clock summary, write the JSON
  /// file if requested, and return the process exit code (0 iff every
  /// check passed and the record renders).
  int finish();

 private:
  struct Cell {
    std::string name;
    CellFn fn;
    CellResult result;
    bool done = false;
  };
  struct Check {
    std::string what;
    bool ok;
  };

  std::string name_;
  Options opt_;
  std::vector<Cell> cells_;
  std::vector<Check> checks_;
  double total_wall_ = 0.0;
};

}  // namespace osim::bench
