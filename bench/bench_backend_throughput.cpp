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
//
// With --backend=functional --exec=concurrent the bench instead measures
// the truly parallel engine (core/concurrent_store.hpp) on real host
// threads: two precomputed op mixes (a contended 50/50 Zipfian store/load
// mix and a 95/5 read-mostly mix) scaled across worker counts
// {1,2,4,8,16,32}. The global op script is generated once per mix and
// partitioned round-robin over the workers, so the set of (slot, version)
// stores — and therefore the final O-structure state — is independent of
// the worker count and every interleaving; the cross-thread-count
// checksum agreement is recorded as a driver check. Results land under
// the separate JSON bench name "backend_throughput_concurrent" with
// per-cell exec/ops/work_seconds/conc_threads fields (schema 2).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checker.hpp"
#include "bench_util.hpp"
#include "core/concurrent_store.hpp"
#include "driver.hpp"
#include "runtime/concurrent.hpp"
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

// ---------------------------------------------------------------------------
// Concurrent scaling section (--backend=functional --exec=concurrent)

/// One scripted versioned ISA op of the concurrent mixes. Reads name the
/// exact version of the latest *scripted* store on their slot — the
/// paper's forward-dependency discipline — so the program is free of
/// determinacy races (a reader may reach its LOAD-VERSION before the
/// owning worker has issued the store; it then waits on the slot, which is
/// precisely the cross-thread blocking the engine exists to serve).
struct ScriptOp {
  std::uint64_t slot;
  Ver store_version;  ///< nonzero: STORE-VERSION of this id
  Ver read_version;   ///< store_version==0: LOAD-VERSION of this id
};

struct ConcMix {
  const char* name;
  int store_pct;  ///< percentage of stores in the mix
  int base_ops;
};

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic slot data: loads validate against this in the hot loop, so
/// a torn read (wrong data for the version observed) fails the cell.
std::uint64_t slot_data(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot * 0xD1B54A32D192ED03ull) ^
         0xA5A5A5A5A5A5A5A5ull;
}

/// Zipfian(1.0) sampler over `n` slots via a cumulative weight table. The
/// hot slots concentrate the contention the mix is named for.
struct Zipf {
  std::vector<double> cum;
  explicit Zipf(std::size_t n) : cum(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cum[i] = total;
    }
    for (double& c : cum) c /= total;
  }
  std::uint64_t sample(std::uint64_t r) const {
    const double u =
        static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
    std::size_t lo = 0, hi = cum.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cum[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

/// The mix's global op script: generated once, identical for every worker
/// count. Store versions are globally unique and dense from 2 (version 1 is
/// the setup store on every slot), so the final per-slot newest version is
/// interleaving-independent.
std::vector<ScriptOp> make_script(const ConcMix& m, int total_ops,
                                  std::size_t nslots) {
  Zipf zipf(nslots);
  std::uint64_t seed = 0xD00DF00Dull + static_cast<std::uint64_t>(m.store_pct);
  std::vector<ScriptOp> script;
  script.reserve(static_cast<std::size_t>(total_ops));
  std::vector<Ver> last_store(nslots, 1);  // setup stores version 1 everywhere
  Ver next_version = 2;
  for (int j = 0; j < total_ops; ++j) {
    ScriptOp op;
    op.slot = zipf.sample(splitmix64(seed));
    const bool is_store =
        static_cast<int>(splitmix64(seed) % 100) < m.store_pct;
    if (is_store) {
      op.store_version = next_version++;
      op.read_version = 0;
      last_store[op.slot] = op.store_version;
    } else {
      op.store_version = 0;
      op.read_version = last_store[op.slot];
    }
    script.push_back(op);
  }
  return script;
}

/// Run one (mix, threads) cell: partition the script round-robin, one
/// long-lived task per worker, validate every load, and reduce the final
/// state to a worker-count-independent checksum.
CellResult run_concurrent_cell(const std::vector<ScriptOp>& script,
                               std::size_t nslots, int threads,
                               const bench::Options& opt) {
  const int check_mode = opt.check_mode;
  ConcurrencyConfig cfg;
  // A reader can legally park until a much-later script position's store
  // lands; on an oversubscribed host give the whole run headroom before
  // declaring deadlock (tunable via --deadlock-timeout-ms).
  cfg.deadlock_timeout_ms = opt.deadlock_timeout_ms;
  // Injected faults are survivable only with rollback + retry; the final
  // state stays script-determined because every aborted attempt is undone
  // before the task re-executes its partition from the top.
  cfg.track_aborts = !opt.inject_spec.empty();
  ConcurrentVersionStore store(cfg);
  telemetry::Tracer tracer;
  analysis::CheckerSink* checker = nullptr;
  if (check_mode != 0) {
    analysis::CheckerOptions copt;
    copt.strict = check_mode == 2;
    // Core ids are store thread-contexts: the allocating main thread plus
    // every worker.
    auto sink = std::make_unique<analysis::CheckerSink>(threads + 1, copt);
    checker = sink.get();
    tracer.add_sink(std::move(sink));
    store.attach_tracer(&tracer);
  }

  const OAddr base = store.alloc(nslots);
  for (std::uint64_t s = 0; s < nslots; ++s) {
    store.store_version(base + 8 * s, 1, slot_data(1, s));
  }
  // Armed only after the host-side setup stores: during setup no task
  // exists to absorb a fault by aborting, so an injected exhaustion would
  // kill the run instead of degrading it.
  std::unique_ptr<FaultInjector> inj;
  if (!opt.inject_spec.empty()) {
    inj = std::make_unique<FaultInjector>(FaultPlan::parse(opt.inject_spec));
    store.attach_fault_injector(inj.get());
  }

  ConcurrentTaskPool pool(store, threads);
  if (cfg.track_aborts) {
    ConcurrentTaskPool::RetryPolicy retry;
    retry.max_retries = 64;
    pool.set_retry_policy(retry);
  }
  for (int t = 0; t < threads; ++t) {
    pool.create_task(static_cast<TaskId>(t + 1),
                     [&script, &store, base, threads, t](TaskId) {
                       for (std::size_t j = static_cast<std::size_t>(t);
                            j < script.size();
                            j += static_cast<std::size_t>(threads)) {
                         const ScriptOp& op = script[j];
                         const OAddr a = base + 8 * op.slot;
                         if (op.store_version != 0) {
                           store.store_version(
                               a, op.store_version,
                               slot_data(op.store_version, op.slot));
                         } else {
                           const std::uint64_t d =
                               store.load_version(a, op.read_version);
                           if (d != slot_data(op.read_version, op.slot)) {
                             throw std::runtime_error(
                                 "torn read: slot " +
                                 std::to_string(op.slot) + " version " +
                                 std::to_string(op.read_version) +
                                 " returned inconsistent data");
                           }
                         }
                       }
                     });
  }
  const double work_seconds = pool.run();

  // Final state must match across worker counts: newest version and its
  // data per slot (the store *set* is script-determined, not
  // schedule-determined).
  std::uint64_t checksum = 0xcbf29ce484222325ull;
  for (std::uint64_t s = 0; s < nslots; ++s) {
    const auto newest = store.newest_version(base + 8 * s);
    const Ver v = newest.value_or(0);
    const std::uint64_t d =
        newest ? store.peek_version(base + 8 * s, v).value_or(0) : 0;
    checksum = (checksum ^ (s * 0x100000001b3ull) ^ v ^ d) *
               0x100000001b3ull;
  }

  const ConcurrentVersionStore::Stats st = store.stats();
  CellResult r;
  r.checksum = checksum;
  r.exec = "concurrent";
  r.backend = "functional";
  r.ops = static_cast<std::uint64_t>(script.size());
  r.work_seconds = work_seconds;
  r.conc_threads = threads;
  r.metrics = bench::Json::object();
  r.metrics["concurrent/ops"] = bench::Json::number(st.ops);
  r.metrics["concurrent/seq_retries"] = bench::Json::number(st.seq_retries);
  r.metrics["concurrent/spin_waits"] = bench::Json::number(st.spin_waits);
  r.metrics["concurrent/parks"] = bench::Json::number(st.parks);
  r.metrics["concurrent/blocks_allocated"] =
      bench::Json::number(st.blocks_allocated);
  r.metrics["concurrent/blocks_reclaimed"] =
      bench::Json::number(st.blocks_reclaimed);
  if (cfg.track_aborts) {
    const ConcurrentTaskPool::RecoveryStats rs = pool.recovery_stats();
    r.metrics["concurrent/aborts"] = bench::Json::number(st.aborts);
    r.metrics["concurrent/aborted_blocks"] =
        bench::Json::number(st.aborted_blocks);
    r.metrics["concurrent/aborted_locks"] =
        bench::Json::number(st.aborted_locks);
    r.metrics["concurrent/retries"] = bench::Json::number(rs.retries);
    r.metrics["concurrent/giveups"] = bench::Json::number(rs.giveups);
    r.metrics["concurrent/backoff_us"] = bench::Json::number(rs.backoff_us);
  }
  if (checker != nullptr) {
    analysis::Checker& c = checker->checker();
    c.finish();
    r.checked = true;
    r.check_errors = c.error_count();
    r.check = bench::Json::object();
    r.check["errors"] = bench::Json::number(c.error_count());
    r.check["warnings"] = bench::Json::number(c.warning_count());
    r.check["total"] = bench::Json::number(c.total_findings());
    bench::Json findings = bench::Json::array();
    for (const analysis::Finding& f : c.findings()) {
      bench::Json jf = bench::Json::object();
      jf["severity"] = bench::Json::string(
          f.severity == analysis::Severity::kError ? "error" : "warning");
      jf["invariant"] = bench::Json::string(analysis::id(f.invariant));
      jf["detail"] = bench::Json::string(f.detail);
      findings.push_back(std::move(jf));
    }
    r.check["findings"] = std::move(findings);
  }
  return r;
}

int run_concurrent_section(const bench::Options& opt) {
  using bench::fmt;
  using bench::row;
  using bench::rule;
  Driver driver("backend_throughput_concurrent", opt);

  const ConcMix conc_mixes[] = {
      {"zipf_contended", 50, 200000},
      {"read_mostly", 5, 200000},
  };
  const int thread_counts[] = {1, 2, 4, 8, 16, 32};
  constexpr std::size_t kSlots = 512;

  std::printf("Concurrent functional engine: sharded VersionStore, seqlock "
              "reads, %d host core(s) available\n\n",
              static_cast<int>(std::thread::hardware_concurrency()));

  for (const ConcMix& m : conc_mixes) {
    const int total_ops = opt.scale.ops(m.base_ops);
    const std::vector<ScriptOp> script = make_script(m, total_ops, kSlots);
    std::vector<std::size_t> handles;
    for (int threads : thread_counts) {
      handles.push_back(driver.add(
          std::string(m.name) + "/t" + std::to_string(threads),
          [&script, threads, &opt] {
            return run_concurrent_cell(script, kSlots, threads, opt);
          }));
      // One cell at a time: a scaling measurement must not share the host
      // with a sibling cell's workers.
      driver.run_all();
    }

    rule(4, 15);
    row({std::string(m.name) + " thr", "ops", "ops/sec", "speedup vs t1"},
        15);
    rule(4, 15);
    const double base_tput =
        static_cast<double>(driver.result(handles[0]).ops) /
        driver.result(handles[0]).work_seconds;
    bool all_match = true;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const CellResult& r = driver.result(handles[i]);
      const double tput =
          r.work_seconds > 0
              ? static_cast<double>(r.ops) / r.work_seconds
              : 0.0;
      all_match =
          all_match && r.checksum == driver.result(handles[0]).checksum;
      row({"t=" + std::to_string(r.conc_threads), std::to_string(r.ops),
           fmt(tput, 0), fmt(base_tput > 0 ? tput / base_tput : 0.0, 2) + "x"},
          15);
    }
    rule(4, 15);
    std::printf("\n");
    driver.check(std::string(m.name) +
                     ": final state identical across thread counts",
                 all_match);
  }
  return driver.finish();
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  using namespace osim::bench;
  const Options opt = Options::parse(argc, argv);
  // Pinned to the paper collector: the concurrent scripts read *exact*
  // versions that may lie above the reading task's own id, outside the
  // read-cap discipline the bounded policy's range rule relies on.
  require_paper_gc(opt, argv[0]);
  if (opt.exec == ExecKind::kConcurrent) {
    if (opt.backend != BackendKind::kFunctional) {
      std::fprintf(stderr,
                   "backend_throughput: --exec=concurrent runs the "
                   "thread-safe functional engine and requires "
                   "--backend=functional\n");
      return 2;
    }
    return run_concurrent_section(opt);
  }
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
