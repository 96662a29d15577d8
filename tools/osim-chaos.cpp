// osim-chaos: fault-injection soak of both engines' abort/retry recovery.
//
// Runs the same deterministic task mix on the serial VersionStore (inline,
// functional timing) and on ConcurrentVersionStore under the retrying task
// pool, with a per-round deterministic fault plan (core/fault_injection.hpp)
// firing at the engines' injection sites: block-pool and slot-table
// exhaustion, deadlock timeouts, GC delays. Every injected fault is
// survived by rolling the victim task back (abort_task) and re-running it
// with bounded backoff; a task past its retry cap gives up, but gives up
// *clean* — its stores unlinked and its locks released.
//
// After each round the harness asserts convergence, not absence of faults:
//
//   * the protocol checker (analysis/checker.hpp) saw no errors and no
//     warnings across the whole event stream, injected aborts included
//     (protocol_verdict() has the one exception),
//   * every store of a task that committed reads back with the right data,
//   * every version created only by a task that gave up is absent,
//   * the concurrent store's structural integrity check passes.
//
// When a round finishes with zero giveups on both engines, the surviving
// (slot, version, data) set must be *identical* across them — the committed
// effects of a fully recovered run are injection- and schedule-independent.
//
// Results land in the shared bench JSON (schema 2) under "chaos_soak";
// osim-report prints the degradation table from it.
#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/checker.hpp"
#include "bench_util.hpp"
#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "core/version_engine.hpp"
#include "core/version_store.hpp"
#include "driver.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/functional.hpp"
#include "telemetry/metrics.hpp"

namespace osim {
namespace {

using bench::CellResult;
using bench::Driver;

struct ChaosOptions {
  int rounds = 3;
  int tasks = 24;
  int ops = 300;        ///< ops per task body
  int workers = 8;      ///< concurrent pool width
  int retries = 8;      ///< per-task retry cap
  std::uint64_t seed = 1;
  std::string inject;   ///< fixed plan; "" = derived per round
  bool serial = true;
  bool concurrent = true;
  bench::Options bench;  ///< json path / check mode for the driver
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: osim-chaos [options]\n"
      "  --backend serial|concurrent|both  engines to soak (default both)\n"
      "  --rounds N       soak rounds per engine (default 3)\n"
      "  --tasks N        tasks per round (default 24)\n"
      "  --ops N          versioned ops per task (default 300)\n"
      "  --workers N      concurrent pool threads (default 8)\n"
      "  --retries N      per-task retry cap (default 8)\n"
      "  --seed N         master seed; round r derives seed+r (default 1)\n"
      "  --inject SPEC    fixed fault plan for every round (default: a\n"
      "                   derived rate plan over pool/slots/deadlock)\n"
      "  --json PATH      merge results into the bench JSON (chaos_soak)\n");
  std::exit(code);
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::size_t kSlots = 64;

/// Version namespace of task `t`: disjoint per task, so a version absent
/// after a giveup can only have been created by that task.
Ver ver_base(TaskId t) { return static_cast<Ver>(t) * 100000 + 2; }

std::uint64_t task_seed(std::uint64_t round_seed, TaskId t) {
  std::uint64_t s = round_seed ^ (static_cast<std::uint64_t>(t) *
                                  0xD1B54A32D192ED03ull);
  return splitmix64(s);
}

std::uint64_t chaos_data(std::uint64_t slot, Ver v) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot * 0xBF58476D1CE4E5B9ull) ^
         0x5A5A5A5A5A5A5A5Aull;
}

struct Store3 {
  std::uint64_t slot;
  Ver v;
  std::uint64_t data;
};

/// The slot of task `t`'s first op — always a store of ver_base(t), so a
/// later task can name it for a cross-task (potentially blocking) read.
std::uint64_t first_store_slot(std::uint64_t round_seed, TaskId t) {
  std::uint64_t s = task_seed(round_seed, t);
  return (splitmix64(s) >> 8) % kSlots;
}

/// One task body, identical for both engines and deterministic per
/// (round, task): a mix of stores, validated reads of its own versions and
/// the setup version, lock/unlock round-trips, renames, and an occasional
/// read of the *previous* task's first store (the one op that can block in
/// the concurrent engine). `mine` is rebuilt from scratch on every attempt
/// — a retry replays the exact same effects the abort undid. Takes the
/// facade, not a template, and issues one call per op: a fault must unwind
/// to the retry machinery mid-body.
void run_body(VersionEngine& st, OAddr base, TaskId t,
              std::uint64_t round_seed, int ops, std::vector<Store3>& mine) {
  mine.clear();
  std::uint64_t s = task_seed(round_seed, t);
  Ver vnext = ver_base(t);
  auto check_read = [](std::uint64_t got, std::uint64_t want,
                       std::uint64_t slot, Ver v) {
    if (got != want) {
      throw std::runtime_error("chaos: torn read: slot " +
                               std::to_string(slot) + " version " +
                               std::to_string(v) + " returned " +
                               std::to_string(got));
    }
  };
  for (int j = 0; j < ops; ++j) {
    const std::uint64_t r = splitmix64(s);
    const std::uint64_t slot = (r >> 8) % kSlots;
    const OAddr a = base + 8 * slot;
    const unsigned k = static_cast<unsigned>(r % 100);
    if (k < 40 || mine.empty()) {
      const Ver v = vnext++;
      st.store_version(a, v, chaos_data(slot, v));
      mine.push_back({slot, v, chaos_data(slot, v)});
    } else if (k < 65) {
      const Store3& m = mine[(r >> 16) % mine.size()];
      check_read(st.load_version(base + 8 * m.slot, m.v), m.data, m.slot,
                 m.v);
    } else if (k < 75) {
      check_read(st.load_version(a, 1), chaos_data(slot, 1), slot, 1);
    } else if (k < 80 && t > 1) {
      const std::uint64_t ps = first_store_slot(round_seed, t - 1);
      const Ver pv = ver_base(t - 1);
      check_read(st.load_version(base + 8 * ps, pv), chaos_data(ps, pv), ps,
                 pv);
    } else if (k < 90) {
      const Store3& m = mine.back();
      check_read(st.lock_load_version(base + 8 * m.slot, m.v, t), m.data,
                 m.slot, m.v);
      st.unlock_version(base + 8 * m.slot, m.v, t);
    } else {
      // Lock an own version and release it renaming: the renamed version
      // carries the same value and joins the rollback journal.
      const Store3& m = mine[(r >> 16) % mine.size()];
      const Ver nv = vnext++;
      check_read(st.lock_load_version(base + 8 * m.slot, m.v, t), m.data,
                 m.slot, m.v);
      st.unlock_version(base + 8 * m.slot, m.v, t, nv);
      mine.push_back({m.slot, nv, m.data});
    }
  }
}

bool recoverable(const OFault& f) {
  return f.kind() == FaultKind::kWouldBlock ||
         f.kind() == FaultKind::kResourceExhausted;
}

/// One commit flag per task, a byte each: the concurrent round's workers
/// set their own tasks' flags at once, and distinct std::vector<bool>
/// elements share memory locations.
using CommitFlags = std::vector<std::uint8_t>;

/// FNV over the committed (slot, version, data) triples in task order —
/// comparable across engines when both converged without giveups.
std::uint64_t committed_checksum(const std::vector<std::vector<Store3>>& per,
                                 const CommitFlags& committed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t t = 0; t < per.size(); ++t) {
    if (!committed[t]) continue;
    for (const Store3& m : per[t]) {
      h = (h ^ m.slot) * 0x100000001b3ull;
      h = (h ^ m.v) * 0x100000001b3ull;
      h = (h ^ m.data) * 0x100000001b3ull;
    }
  }
  return h;
}

struct RoundResult {
  CellResult cell;
  std::uint64_t giveups = 0;
  bool clean = true;          ///< checker + state verification passed
  std::string first_problem;  ///< empty when clean
};

void note(RoundResult& rr, const std::string& what) {
  rr.clean = false;
  if (rr.first_problem.empty()) rr.first_problem = what;
}

/// Record the checker's verdict on the round: any finding fails it,
/// warnings included. The one exception is a concurrent round whose
/// pool.run() unwound after a giveup (`gave_up_run`): the tasks that run
/// never started stay created but unended, which the end-of-run pass
/// reports as ST-TASK-PAIRING warnings, so that round fails on errors only.
void protocol_verdict(RoundResult& rr, analysis::Checker& checker,
                      bool gave_up_run) {
  bench::fill_check(checker, rr.cell);
  const std::uint64_t warnings = gave_up_run ? 0 : checker.warning_count();
  if (checker.error_count() != 0 || warnings != 0) {
    note(rr, "protocol checker found " +
                 std::to_string(checker.error_count()) + " error(s), " +
                 std::to_string(warnings) + " warning(s)");
  }
}

/// Verify surviving state against the commit record through `peek`:
/// committed stores present with the right data, giveup-only versions gone.
template <typename Peek>
void verify_state(RoundResult& rr, const std::vector<std::vector<Store3>>& per,
                  const CommitFlags& committed, Peek&& peek) {
  for (std::size_t t = 0; t < per.size(); ++t) {
    for (const Store3& m : per[t]) {
      const std::optional<std::uint64_t> got = peek(m.slot, m.v);
      if (committed[t]) {
        if (!got || *got != m.data) {
          note(rr, "committed version " + std::to_string(m.v) + " of slot " +
                       std::to_string(m.slot) +
                       (got ? " has wrong data" : " is missing"));
        }
      } else if (got) {
        note(rr, "aborted version " + std::to_string(m.v) + " of slot " +
                     std::to_string(m.slot) + " survived its rollback");
      }
    }
  }
}

RoundResult run_serial_round(const ChaosOptions& opt, std::uint64_t round_seed,
                             const std::string& spec) {
  RoundResult rr;
  telemetry::MetricRegistry reg(1);
  FunctionalTiming timing;
  OStructConfig ocfg;
  // Every version stays probeable: the watermark never triggers a
  // collection, and the pool never runs dry, because it holds the setup
  // stores plus one version per op (an aborted attempt frees its blocks
  // before the retry).
  ocfg.initial_pool_blocks =
      kSlots + static_cast<std::size_t>(opt.tasks) *
                   static_cast<std::size_t>(opt.ops);
  ocfg.gc_watermark = 0;
  ocfg.track_aborts = true;
  VersionStore vs(ocfg, 1, reg, timing);
  // Armed after setup (below): a fault during the setup stores has no
  // task to absorb it by aborting.
  FaultInjector inj(FaultPlan::parse(spec));

  analysis::CheckerSink* checker = analysis::attach_checker(vs, 1);

  timing.set_core(0);
  const OAddr base = vs.alloc(kSlots);
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    vs.store_version(base + 8 * s, 1, chaos_data(s, 1));
  }
  vs.attach_fault_injector(&inj);

  const std::size_t nt = static_cast<std::size_t>(opt.tasks);
  std::vector<std::vector<Store3>> per(nt + 1);
  CommitFlags committed(nt + 1, 0);
  std::uint64_t retries = 0, giveups = 0;
  for (TaskId t = 1; t <= static_cast<TaskId>(opt.tasks); ++t) {
    vs.task_created(t);
    for (int attempt = 0;; ++attempt) {
      vs.task_begin(t);
      try {
        run_body(vs, base, t, round_seed, opt.ops, per[t]);
        vs.task_end(t);
        committed[t] = 1;
        break;
      } catch (const OFault& f) {
        if (!recoverable(f)) throw;
        vs.abort_task(t);
        if (attempt >= opt.retries) {
          // Give up clean: the rollback above already undid the attempt;
          // retiring the task keeps the checker's task pairing balanced.
          vs.task_end(t);
          ++giveups;
          break;
        }
        ++retries;
      }
    }
  }

  verify_state(rr, per, committed, [&](std::uint64_t slot, Ver v) {
    return vs.peek_version(base + 8 * slot, v);
  });
  protocol_verdict(rr, checker->checker(), /*gave_up_run=*/false);

  rr.giveups = giveups;
  rr.cell.backend = "functional";
  rr.cell.ops = static_cast<std::uint64_t>(opt.tasks) *
                static_cast<std::uint64_t>(opt.ops);
  rr.cell.checksum = giveups == 0 ? committed_checksum(per, committed) : 0;
  // Facade-level accounting: the same keys, from the same EngineStats
  // fields, as the concurrent round below — osim-report's degradation
  // table reads one schema for both engines.
  const EngineStats es = vs.engine_stats();
  rr.cell.metrics = bench::Json::object();
  rr.cell.metrics["chaos/aborts"] = bench::Json::number(es.tasks_aborted);
  rr.cell.metrics["chaos/aborted_blocks"] =
      bench::Json::number(es.aborted_blocks);
  rr.cell.metrics["chaos/aborted_locks"] =
      bench::Json::number(es.aborted_locks);
  rr.cell.metrics["chaos/retries"] = bench::Json::number(retries);
  rr.cell.metrics["chaos/giveups"] = bench::Json::number(giveups);
  rr.cell.metrics["chaos/backoff_us"] = bench::Json::number(std::uint64_t{0});
  rr.cell.metrics["chaos/inject"] = bench::Json::string(spec);
  return rr;
}

RoundResult run_concurrent_round(const ChaosOptions& opt,
                                 std::uint64_t round_seed,
                                 const std::string& spec) {
  RoundResult rr;
  ConcurrencyConfig cfg;
  cfg.track_aborts = true;
  // Short timeout: an injected-deadlock victim's waiters must fail over to
  // their own abort/retry quickly for the soak to converge.
  cfg.deadlock_timeout_ms = 500;
  cfg.max_threads = opt.workers + 2;
  ConcurrentVersionStore store(cfg);
  FaultInjector inj(FaultPlan::parse(spec));  // armed after setup

  // engine.tracer() switches the concurrent store into linearized-trace
  // mode; attach before any ISA op so setup stores are checked too.
  analysis::CheckerSink* checker =
      analysis::attach_checker(store, opt.workers + 1);

  const OAddr base = store.alloc(kSlots);
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    store.store_version(base + 8 * s, 1, chaos_data(s, 1));
  }
  store.attach_fault_injector(&inj);

  const std::size_t nt = static_cast<std::size_t>(opt.tasks);
  std::vector<std::vector<Store3>> per(nt + 1);
  CommitFlags committed(nt + 1, 0);

  ConcurrentTaskPool pool(store, opt.workers);
  ConcurrentTaskPool::RetryPolicy retry;
  retry.max_retries = opt.retries;
  retry.backoff_base_us = 50;
  retry.backoff_cap_us = 2000;
  pool.set_retry_policy(retry);
  for (TaskId t = 1; t <= static_cast<TaskId>(opt.tasks); ++t) {
    pool.create_task(t, [&, t](TaskId) {
      run_body(store, base, t, round_seed, opt.ops, per[t]);
      committed[t] = 1;
    });
  }
  bool run_failed = false;
  std::string run_error;
  try {
    pool.run();
  } catch (const std::exception& e) {
    // A task past its retry cap unwinds the run — degraded, not corrupted:
    // every incomplete task was rolled back on its way out, which is
    // exactly what the state verification below asserts.
    run_failed = true;
    run_error = e.what();
  }

  const ConcurrentVersionStore::IntegrityReport ir = store.check_integrity();
  if (!ir.ok) note(rr, "integrity: " + ir.detail);
  verify_state(rr, per, committed, [&](std::uint64_t slot, Ver v) {
    return store.peek_version(base + 8 * slot, v);
  });
  const ConcurrentTaskPool::RecoveryStats rs = pool.recovery_stats();
  // Only a giveup may unwind the run: anything else is a real failure.
  if (run_failed && rs.giveups == 0) note(rr, "run failed: " + run_error);
  protocol_verdict(rr, checker->checker(), run_failed && rs.giveups != 0);

  const EngineStats es = store.engine_stats();
  rr.giveups = rs.giveups;
  rr.cell.backend = "functional";
  rr.cell.ops = static_cast<std::uint64_t>(opt.tasks) *
                static_cast<std::uint64_t>(opt.ops);
  rr.cell.checksum =
      rs.giveups == 0 && !run_failed ? committed_checksum(per, committed) : 0;
  rr.cell.metrics = bench::Json::object();
  rr.cell.metrics["chaos/aborts"] = bench::Json::number(es.tasks_aborted);
  rr.cell.metrics["chaos/aborted_blocks"] =
      bench::Json::number(es.aborted_blocks);
  rr.cell.metrics["chaos/aborted_locks"] =
      bench::Json::number(es.aborted_locks);
  rr.cell.metrics["chaos/retries"] = bench::Json::number(rs.retries);
  rr.cell.metrics["chaos/giveups"] = bench::Json::number(rs.giveups);
  rr.cell.metrics["chaos/backoff_us"] = bench::Json::number(rs.backoff_us);
  rr.cell.metrics["chaos/run_failed"] =
      bench::Json::number(std::uint64_t{run_failed ? 1u : 0u});
  rr.cell.metrics["chaos/inject"] = bench::Json::string(spec);
  if (run_failed) {
    rr.cell.metrics["chaos/run_error"] = bench::Json::string(run_error);
  }
  return rr;
}

int run(const ChaosOptions& opt) {
  Driver driver("chaos_soak", opt.bench);
  std::printf("chaos soak: %d round(s), %d tasks x %d ops, retry cap %d\n\n",
              opt.rounds, opt.tasks, opt.ops, opt.retries);
  for (int r = 0; r < opt.rounds; ++r) {
    const std::uint64_t round_seed = opt.seed + static_cast<std::uint64_t>(r);
    const std::string spec =
        !opt.inject.empty()
            ? opt.inject
            : "pool:0.002,slots:0.0005,deadlock:0.001,gc-delay:0.005,seed=" +
                  std::to_string(round_seed);
    // Each round runs here, once; the driver cell just records the result
    // (the RoundResult verdict fields don't fit through CellFn).
    RoundResult serial, conc;
    if (opt.serial) {
      serial = run_serial_round(opt, round_seed, spec);
      const CellResult cell = serial.cell;
      driver.add("r" + std::to_string(r) + "/serial",
                 [cell] { return cell; });
      driver.run_all();
    }
    if (opt.concurrent) {
      conc = run_concurrent_round(opt, round_seed, spec);
      const CellResult cell = conc.cell;
      driver.add("r" + std::to_string(r) + "/conc", [cell] { return cell; });
      driver.run_all();
    }
    std::printf("round %d  inject %s\n", r, spec.c_str());
    auto metric = [](const CellResult& c, const char* key) {
      const bench::Json* v = c.metrics.find(key);
      return v != nullptr ? v->as_u64() : 0;
    };
    if (opt.serial) {
      std::printf("  serial      aborts=%llu retries=%llu giveups=%llu  %s\n",
                  static_cast<unsigned long long>(
                      metric(serial.cell, "chaos/aborts")),
                  static_cast<unsigned long long>(
                      metric(serial.cell, "chaos/retries")),
                  static_cast<unsigned long long>(serial.giveups),
                  serial.clean ? "clean" : serial.first_problem.c_str());
      driver.check("r" + std::to_string(r) + " serial converged clean",
                   serial.clean);
    }
    if (opt.concurrent) {
      std::printf("  concurrent  aborts=%llu retries=%llu giveups=%llu  %s\n",
                  static_cast<unsigned long long>(
                      metric(conc.cell, "chaos/aborts")),
                  static_cast<unsigned long long>(
                      metric(conc.cell, "chaos/retries")),
                  static_cast<unsigned long long>(conc.giveups),
                  conc.clean ? "clean" : conc.first_problem.c_str());
      driver.check("r" + std::to_string(r) + " concurrent converged clean",
                   conc.clean);
    }
    if (opt.serial && opt.concurrent && serial.giveups == 0 &&
        conc.giveups == 0) {
      driver.check(
          "r" + std::to_string(r) +
              " committed state identical across engines",
          serial.cell.checksum == conc.cell.checksum);
    }
  }
  std::printf("\n");
  return driver.finish();
}

}  // namespace
}  // namespace osim

int main(int argc, char** argv) {
  using namespace osim;
  ChaosOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "osim-chaos: %s needs a value\n", flag);
        usage(2);
      }
      return argv[i];
    };
    auto number = [&](const char* flag, long long max) {
      const char* v = value(flag);
      char* end = nullptr;
      const long long n = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0 || n > max) {
        std::fprintf(stderr, "osim-chaos: bad %s value '%s'\n", flag, v);
        usage(2);
      }
      return n;
    };
    auto count = [&](const char* flag) {
      return static_cast<int>(number(flag, INT_MAX));
    };
    if (std::strcmp(a, "--backend") == 0) {
      const std::string b = value(a);
      opt.serial = b == "serial" || b == "both";
      opt.concurrent = b == "concurrent" || b == "both";
      if (!opt.serial && !opt.concurrent) {
        std::fprintf(stderr, "osim-chaos: bad --backend '%s'\n", b.c_str());
        usage(2);
      }
    } else if (std::strcmp(a, "--rounds") == 0) {
      opt.rounds = count(a);
    } else if (std::strcmp(a, "--tasks") == 0) {
      opt.tasks = count(a);
    } else if (std::strcmp(a, "--ops") == 0) {
      opt.ops = count(a);
    } else if (std::strcmp(a, "--workers") == 0) {
      opt.workers = count(a);
    } else if (std::strcmp(a, "--retries") == 0) {
      opt.retries = count(a);
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = static_cast<std::uint64_t>(number(a, LLONG_MAX));
    } else if (std::strcmp(a, "--inject") == 0) {
      opt.inject = value(a);
      try {
        (void)FaultPlan::parse(opt.inject);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osim-chaos: %s\n", e.what());
        usage(2);
      }
    } else if (std::strcmp(a, "--json") == 0) {
      opt.bench.json_path = value(a);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "osim-chaos: unknown argument '%s'\n", a);
      usage(2);
    }
  }
  opt.bench.threads = 1;  // soak rounds must not share the host
  return run(opt);
}
