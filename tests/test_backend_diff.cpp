// Differential test: the functional backend must agree with the
// cycle-accurate machine on everything semantic. Random versioned-op
// streams (and the opgen-driven structure workloads) run on both backends —
// including the truly concurrent engine on real host threads — and every
// read value, the final latest-version map of every slot, the multiset of
// protocol faults, and the osim-check strict verdict must be identical —
// only the clocks may differ.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checker.hpp"
#include "core/concurrent_store.hpp"
#include "core/version_engine.hpp"
#include "engine_exec.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/env.hpp"
#include "runtime/task.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/rb_tree.hpp"
#include "workloads/runner.hpp"

namespace osim {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One planned versioned-ISA operation. Streams are generated host-side so
// that every operation is determinate under ANY legal schedule: exact
// loads/locks only target versions some earlier task publishes (they block
// until it exists), and the deliberate fault ops are constructed so their
// outcome cannot depend on cross-task timing (see each kind).
struct PlannedOp {
  enum Kind {
    kStore,             // publish version tid on a slot
    kLoad,              // exact load of an earlier task's version
    kLockRename,        // lock an earlier version, unlock-rename to tid
    kLoadLatestSetup,   // LOAD-LATEST capped at the setup version
    kDupStore,          // second store of tid by the same task -> fault
    kWrongOwnerUnlock,  // unlock of a never-locked version -> fault
    kUnlockNonexistent, // unlock of a version nobody stores -> fault
    kBadVersionedAddr,  // versioned op outside the allocation -> fault
    kBadConventional,   // conventional access to a slot -> fault
  };
  Kind kind;
  std::uint32_t slot = 0;
  Ver ver = 0;
};

struct Stream {
  int slots;
  int tasks;
  std::vector<std::vector<PlannedOp>> ops;  // per task, executed in order
};

/// Never-stored version used by kUnlockNonexistent.
constexpr Ver kGhostVersion = 999999999;

// `unlock_violations` adds unlock ops that break the locking protocol.
// osim-check (correctly) reports those as LK-UNHELD errors, so streams
// containing them cannot expect a clean strict verdict — instead the test
// asserts both backends produce the SAME verdict. Streams without them
// must be strict-clean everywhere.
Stream make_stream(int slots, int tasks, std::uint64_t seed,
                   bool unlock_violations) {
  Stream st;
  st.slots = slots;
  st.tasks = tasks;
  st.ops.resize(static_cast<std::size_t>(tasks));
  // Published (version) list per slot, in creation order. Slot s is
  // "lockable" iff s < slots/2: lock ops stay on the lockable half, so the
  // setup versions of the other half are never locked and a wrong-owner
  // unlock there has exactly one possible outcome.
  std::vector<std::vector<Ver>> published(static_cast<std::size_t>(slots));
  for (int s = 0; s < slots; ++s) published[s].push_back(kSetupVersion);
  const int lockable = slots / 2;

  for (int i = 0; i < tasks; ++i) {
    const TaskId tid = kFirstTaskId + static_cast<TaskId>(i);
    auto& ops = st.ops[static_cast<std::size_t>(i)];
    bool stored = false;
    // At most one publishing op per task (versions are task ids).
    if (splitmix(seed) % 10 < 6) {
      const auto s =
          static_cast<std::uint32_t>(splitmix(seed) %
                                     static_cast<std::uint64_t>(slots));
      if (s < static_cast<std::uint32_t>(lockable) &&
          splitmix(seed) % 2 == 0) {
        const auto& pub = published[s];
        const Ver from = pub[splitmix(seed) % pub.size()];
        ops.push_back({PlannedOp::kLockRename, s, from});
      } else {
        ops.push_back({PlannedOp::kStore, s, tid});
        stored = true;
      }
      published[s].push_back(tid);
    }
    const std::uint64_t reads = splitmix(seed) % 3;
    for (std::uint64_t r = 0; r < reads; ++r) {
      const auto s =
          static_cast<std::uint32_t>(splitmix(seed) %
                                     static_cast<std::uint64_t>(slots));
      if (splitmix(seed) % 5 == 0) {
        ops.push_back({PlannedOp::kLoadLatestSetup, s, kSetupVersion});
      } else {
        // Exact read of a version published by this or an earlier task; the
        // op blocks until the version exists, so the value is determined.
        const auto& pub = published[s];
        ops.push_back({PlannedOp::kLoad, s,
                       pub[splitmix(seed) % pub.size()]});
      }
    }
    if (splitmix(seed) % 7 == 0) {
      switch (splitmix(seed) % 5) {
        case 0:
          if (stored) {
            ops.push_back({PlannedOp::kDupStore,
                           ops.front().slot, tid});
            break;
          }
          [[fallthrough]];
        case 1:
          if (unlock_violations) {
            ops.push_back(
                {PlannedOp::kWrongOwnerUnlock,
                 static_cast<std::uint32_t>(
                     lockable +
                     static_cast<int>(splitmix(seed) %
                                      static_cast<std::uint64_t>(
                                          slots - lockable))),
                 kSetupVersion});
            break;
          }
          [[fallthrough]];
        case 2:
          if (unlock_violations) {
            ops.push_back({PlannedOp::kUnlockNonexistent,
                           static_cast<std::uint32_t>(
                               splitmix(seed) %
                               static_cast<std::uint64_t>(slots)),
                           kGhostVersion});
            break;
          }
          [[fallthrough]];
        case 3:
          ops.push_back({PlannedOp::kBadVersionedAddr, 0, kSetupVersion});
          break;
        default:
          ops.push_back({PlannedOp::kBadConventional,
                         static_cast<std::uint32_t>(
                             splitmix(seed) %
                             static_cast<std::uint64_t>(slots)),
                         0});
      }
    }
  }
  return st;
}

/// One lowered step of a task body: either a facade op record destined
/// for execute() (engine_exec.hpp), or a conventional-access probe (the one
/// PlannedOp with no versioned-ISA encoding, issued between batches).
struct LoweredItem {
  bool conventional = false;
  Addr conv_addr = 0;
  VersionEngine::Op op;
};

/// Lower one planned op into facade records — the single source of truth
/// for how a PlannedOp maps onto the versioned ISA, shared by every
/// backend (the timed machine, the functional backend, and the concurrent
/// engine used to carry three copies of this switch).
void lower_into(std::vector<LoweredItem>& out, const PlannedOp& op,
                TaskId tid, OAddr base, int slots) {
  const OAddr a = base + 8 * static_cast<OAddr>(op.slot);
  LoweredItem it;
  switch (op.kind) {
    case PlannedOp::kStore:
      it.op.op = OpCode::kStoreVersion;
      it.op.addr = a;
      it.op.version = tid;
      it.op.data = tid * 7 + op.slot;
      break;
    case PlannedOp::kLoad:
      it.op.op = OpCode::kLoadVersion;
      it.op.addr = a;
      it.op.version = op.ver;
      break;
    case PlannedOp::kLockRename: {
      it.op.op = OpCode::kLockLoadVersion;
      it.op.addr = a;
      it.op.version = op.ver;
      it.op.task = tid;
      out.push_back(it);
      it = LoweredItem{};
      it.op.op = OpCode::kUnlockVersion;
      it.op.addr = a;
      it.op.version = op.ver;
      it.op.task = tid;
      it.op.rename_to = tid;
      break;
    }
    case PlannedOp::kLoadLatestSetup:
      it.op.op = OpCode::kLoadLatest;
      it.op.addr = a;
      it.op.cap = kSetupVersion;
      break;
    case PlannedOp::kDupStore:
      it.op.op = OpCode::kStoreVersion;
      it.op.addr = a;
      it.op.version = tid;
      it.op.data = 1;
      break;
    case PlannedOp::kWrongOwnerUnlock:
    case PlannedOp::kUnlockNonexistent:
      it.op.op = OpCode::kUnlockVersion;
      it.op.addr = a;
      it.op.version = op.ver;
      it.op.task = tid;
      break;
    case PlannedOp::kBadVersionedAddr:
      it.op.op = OpCode::kLoadVersion;
      it.op.addr = base + 8 * static_cast<OAddr>(slots + 100);
      it.op.version = op.ver;
      break;
    case PlannedOp::kBadConventional:
      it.conventional = true;
      it.conv_addr = a;
      break;
  }
  out.push_back(it);
}

std::vector<LoweredItem> lower_task(const Stream& st, int i, TaskId tid,
                                    OAddr base) {
  std::vector<LoweredItem> prog;
  for (const PlannedOp& op : st.ops[static_cast<std::size_t>(i)]) {
    lower_into(prog, op, tid, base, st.slots);
  }
  return prog;
}

/// Run one task's lowered program on any engine: facade records go through
/// execute() in maximal batches; conventional probes flush the batch and
/// run between them so per-task fault order is preserved. Faults land as
/// kinds, exactly as the old per-op catch blocks recorded them.
void exec_program(VersionEngine& st, const std::vector<LoweredItem>& prog,
                  std::vector<std::uint64_t>& reads, std::vector<Ver>& found,
                  std::vector<int>& faults) {
  std::vector<VersionEngine::Op> batch;
  Results res;
  auto flush = [&] {
    if (batch.empty()) return;
    res.clear();
    execute(st, batch, res);
    reads.insert(reads.end(), res.reads.begin(), res.reads.end());
    found.insert(found.end(), res.found.begin(), res.found.end());
    for (const Results::Fault& f : res.faults) {
      faults.push_back(static_cast<int>(f.kind));
    }
    batch.clear();
  };
  for (const LoweredItem& it : prog) {
    if (it.conventional) {
      flush();
      try {
        st.check_conventional(it.conv_addr);
      } catch (const OFault& f) {
        faults.push_back(static_cast<int>(f.kind()));
      }
    } else {
      batch.push_back(it.op);
    }
  }
  flush();
}

/// Everything a backend run observes, flattened in task-creation order so
/// the comparison is schedule-independent.
struct Observed {
  std::vector<std::uint64_t> reads;
  std::vector<Ver> found;   // LOAD-LATEST observed versions, in op order
  std::vector<int> faults;  // FaultKind per caught fault
  std::vector<std::pair<std::optional<Ver>, std::optional<std::uint64_t>>>
      latest;  // per slot: newest version and its value
  bool check_clean = false;
  std::uint64_t check_errors = 0, check_warnings = 0;
  /// Blocks the run's collector gave back. NOT part of ==: the GcPolicy
  /// seam guarantees identical semantics, not identical reclaim timing.
  std::uint64_t blocks_freed = 0;

  bool operator==(const Observed& o) const {
    return reads == o.reads && found == o.found && faults == o.faults &&
           latest == o.latest &&
           check_clean == o.check_clean && check_errors == o.check_errors &&
           check_warnings == o.check_warnings;
  }
};

Observed run_stream(const Stream& st, BackendKind backend, int cores,
                    GcPolicyKind gc = GcPolicyKind::kPaper,
                    bool tight_pool = false) {
  MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.backend = backend;
  cfg.ostruct.check_mode = 2;  // strict osim-check, online
  cfg.ostruct.gc_policy = gc;
  if (tight_pool) {
    // Starve the pool so whichever policy is installed must actually run
    // (watermark phases for paper, amortized sweeps for bounded).
    cfg.ostruct.initial_pool_blocks = 96;
    cfg.ostruct.trap_grow_blocks = 64;
    cfg.ostruct.gc_watermark = 48;
    cfg.ostruct.gc_bounded_batch = 16;
  }
  Env env(cfg);

  std::vector<std::vector<std::uint64_t>> reads(
      static_cast<std::size_t>(st.tasks));
  std::vector<std::vector<Ver>> found(static_cast<std::size_t>(st.tasks));
  std::vector<std::vector<int>> faults(static_cast<std::size_t>(st.tasks));

  OAddr base = 0;
  {
    TaskRuntime rt(env, cores);
    base = env.store().alloc(static_cast<std::size_t>(st.slots));
    rt.set_setup([&] {
      for (int s = 0; s < st.slots; ++s) {
        env.store().store_version(base + 8 * static_cast<OAddr>(s),
                                  kSetupVersion,
                                  5000 + static_cast<std::uint64_t>(s));
      }
    });
    for (int i = 0; i < st.tasks; ++i) {
      const TaskId tid = kFirstTaskId + static_cast<TaskId>(i);
      rt.create_task(tid, [&, i, tid](TaskId) {
        exec_program(env.engine(), lower_task(st, i, tid, base), reads[i],
                     found[i], faults[i]);
      });
    }
    rt.run();
  }

  Observed o;
  for (int i = 0; i < st.tasks; ++i) {
    o.reads.insert(o.reads.end(), reads[i].begin(), reads[i].end());
    o.found.insert(o.found.end(), found[i].begin(), found[i].end());
    o.faults.insert(o.faults.end(), faults[i].begin(), faults[i].end());
  }
  for (int s = 0; s < st.slots; ++s) {
    const OAddr a = base + 8 * static_cast<OAddr>(s);
    const std::optional<Ver> newest = env.store().newest_version(a);
    std::optional<std::uint64_t> val;
    if (newest.has_value()) val = env.store().peek_version(a, *newest);
    o.latest.emplace_back(newest, val);
  }
  env.checker()->finish();
  o.check_clean = env.checker()->clean();
  o.check_errors = env.checker()->error_count();
  o.check_warnings = env.checker()->warning_count();
  o.blocks_freed =
      env.metrics().total(telemetry::Component::kOsm, "blocks_freed");
  return o;
}

/// The same planned stream on the concurrent engine: ConcurrentVersionStore
/// driven by a work-stealing pool of real host threads, with the strict
/// checker riding the store's tracer.
/// Streams are determinate under any legal schedule (see PlannedOp), so the
/// observation must match the timed backend's exactly.
Observed run_stream_concurrent(const Stream& st, int threads,
                               GcPolicyKind gc = GcPolicyKind::kPaper,
                               std::size_t reclaim_threshold = 0) {
  ConcurrencyConfig ccfg;
  // A blocked op may legally wait for a store by a much-later task on an
  // oversubscribed host; give real room before declaring deadlock.
  ccfg.deadlock_timeout_ms = 20000;
  ccfg.gc_policy = gc;
  if (reclaim_threshold != 0) ccfg.reclaim_threshold = reclaim_threshold;
  ConcurrentVersionStore store(ccfg);
  analysis::CheckerOptions copt;
  copt.strict = true;
  analysis::CheckerSink* checker =
      analysis::attach_checker(store, threads + 1, copt);

  const OAddr base = store.alloc(static_cast<std::size_t>(st.slots));
  for (int s = 0; s < st.slots; ++s) {
    store.store_version(base + 8 * static_cast<OAddr>(s), kSetupVersion,
                        5000 + static_cast<std::uint64_t>(s));
  }

  std::vector<std::vector<std::uint64_t>> reads(
      static_cast<std::size_t>(st.tasks));
  std::vector<std::vector<Ver>> found(static_cast<std::size_t>(st.tasks));
  std::vector<std::vector<int>> faults(static_cast<std::size_t>(st.tasks));

  ConcurrentTaskPool pool(store, threads);
  for (int i = 0; i < st.tasks; ++i) {
    const TaskId tid = kFirstTaskId + static_cast<TaskId>(i);
    pool.create_task(tid, [&, i, tid](TaskId) {
      exec_program(store, lower_task(st, i, tid, base), reads[i], found[i],
                   faults[i]);
    });
  }
  pool.run();

  Observed o;
  for (int i = 0; i < st.tasks; ++i) {
    o.reads.insert(o.reads.end(), reads[i].begin(), reads[i].end());
    o.found.insert(o.found.end(), found[i].begin(), found[i].end());
    o.faults.insert(o.faults.end(), faults[i].begin(), faults[i].end());
  }
  for (int s = 0; s < st.slots; ++s) {
    const OAddr a = base + 8 * static_cast<OAddr>(s);
    const std::optional<Ver> newest = store.newest_version(a);
    std::optional<std::uint64_t> val;
    if (newest.has_value()) val = store.peek_version(a, *newest);
    o.latest.emplace_back(newest, val);
  }
  checker->checker().finish();
  o.check_clean = checker->checker().clean();
  o.check_errors = checker->checker().error_count();
  o.check_warnings = checker->checker().warning_count();
  o.blocks_freed = store.stats().blocks_reclaimed;
  return o;
}

// A planned stream whose reads stay legal under ANY reclamation policy.
// Exact loads and lock ops may name versions the bounded policy has every
// right to reclaim mid-run (they read below their task's own cap), so the
// cross-policy streams split the slots into three classes:
//   * read-only  — never stored past setup; version kSetupVersion is never
//                  shadowed, so exact and capped reads of it are stable,
//   * archive    — exactly one store, by a designated early task; its
//                  version is the slot's head forever, hence unreclaimable,
//   * churn      — store-only traffic whose shadowed predecessors are the
//                  reclamation fodder that makes the differential real.
// Everything observable (reads, faults, final latest map, strict verdict)
// is schedule- and policy-independent; only reclaim timing may differ.
Stream make_policy_safe_stream(int readonly, int archive, int churn,
                               int tasks, std::uint64_t seed) {
  Stream st;
  st.slots = readonly + archive + churn;
  st.tasks = tasks;
  st.ops.resize(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    const TaskId tid = kFirstTaskId + static_cast<TaskId>(i);
    auto& ops = st.ops[static_cast<std::size_t>(i)];
    bool stored = false;
    std::uint32_t stored_slot = 0;
    if (i < archive) {
      // The first `archive` tasks each publish their archive slot.
      stored_slot = static_cast<std::uint32_t>(readonly + i);
      ops.push_back({PlannedOp::kStore, stored_slot, tid});
      stored = true;
    } else if (splitmix(seed) % 10 < 7) {
      stored_slot = static_cast<std::uint32_t>(
          readonly + archive +
          static_cast<int>(splitmix(seed) %
                           static_cast<std::uint64_t>(churn)));
      ops.push_back({PlannedOp::kStore, stored_slot, tid});
      stored = true;
    }
    const std::uint64_t reads = splitmix(seed) % 3;
    for (std::uint64_t r = 0; r < reads; ++r) {
      if (splitmix(seed) % 2 == 0) {
        const auto s = static_cast<std::uint32_t>(
            splitmix(seed) % static_cast<std::uint64_t>(readonly));
        ops.push_back(splitmix(seed) % 2 == 0
                          ? PlannedOp{PlannedOp::kLoad, s, kSetupVersion}
                          : PlannedOp{PlannedOp::kLoadLatestSetup, s,
                                      kSetupVersion});
      } else if (i > 0) {
        // Exact read of an archive version whose one publisher is an
        // earlier task; the op blocks until it exists, so the value is
        // determined.
        const int visible = std::min(archive, i);
        const auto j = static_cast<std::uint32_t>(
            splitmix(seed) % static_cast<std::uint64_t>(visible));
        ops.push_back({PlannedOp::kLoad,
                       static_cast<std::uint32_t>(readonly) + j,
                       kFirstTaskId + j});
      }
    }
    if (splitmix(seed) % 7 == 0) {
      switch (splitmix(seed) % 3) {
        case 0:
          if (stored) {
            ops.push_back({PlannedOp::kDupStore, stored_slot, tid});
            break;
          }
          [[fallthrough]];
        case 1:
          ops.push_back({PlannedOp::kBadVersionedAddr, 0, kSetupVersion});
          break;
        default:
          ops.push_back(
              {PlannedOp::kBadConventional,
               static_cast<std::uint32_t>(
                   splitmix(seed) %
                   static_cast<std::uint64_t>(st.slots)),
               0});
      }
    }
  }
  return st;
}

TEST(BackendDiff, RandomStreamsAgreeAndCheckClean) {
  for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
    const Stream st = make_stream(/*slots=*/24, /*tasks=*/400, seed,
                                  /*unlock_violations=*/false);
    const Observed timed = run_stream(st, BackendKind::kTimed, /*cores=*/4);
    const Observed func =
        run_stream(st, BackendKind::kFunctional, /*cores=*/4);
    EXPECT_FALSE(timed.reads.empty());
    EXPECT_FALSE(timed.faults.empty());
    EXPECT_TRUE(timed.check_clean) << "seed " << seed;
    EXPECT_TRUE(func.check_clean) << "seed " << seed;
    EXPECT_EQ(timed.reads, func.reads) << "seed " << seed;
    EXPECT_EQ(timed.found, func.found) << "seed " << seed;
    EXPECT_EQ(timed.faults, func.faults) << "seed " << seed;
    EXPECT_EQ(timed.latest, func.latest) << "seed " << seed;
  }
}

// Unlock protocol violations fault at the ISA level AND get reported by the
// strict checker; both backends must fault identically and the checker must
// reach the same (non-clean) verdict on each.
TEST(BackendDiff, UnlockViolationsFlaggedIdentically) {
  const Stream st = make_stream(/*slots=*/24, /*tasks=*/400, /*seed=*/31,
                                /*unlock_violations=*/true);
  const Observed timed = run_stream(st, BackendKind::kTimed, /*cores=*/4);
  const Observed func = run_stream(st, BackendKind::kFunctional, /*cores=*/4);
  EXPECT_FALSE(timed.check_clean);
  EXPECT_GT(timed.check_errors, 0u);
  EXPECT_EQ(timed.reads, func.reads);
  EXPECT_EQ(timed.faults, func.faults);
  EXPECT_EQ(timed.latest, func.latest);
  EXPECT_EQ(timed.check_errors, func.check_errors);
  EXPECT_EQ(timed.check_warnings, func.check_warnings);
}

TEST(BackendDiff, StreamsAgreeAcrossCoreCounts) {
  const Stream st = make_stream(/*slots=*/16, /*tasks=*/250, /*seed=*/5,
                                /*unlock_violations=*/false);
  const Observed func = run_stream(st, BackendKind::kFunctional, 1);
  for (int cores : {1, 3, 8}) {
    EXPECT_TRUE(run_stream(st, BackendKind::kTimed, cores) == func)
        << cores << " cores";
  }
}

// The concurrent engine on real host threads must observe exactly what the
// timed machine observes: every read value, every fault, the final
// latest-version map — and a clean strict checker verdict — regardless of
// thread count (streams are determinate under any legal schedule).
TEST(BackendDiff, ConcurrentEngineAgreesWithTimed) {
  for (std::uint64_t seed : {11ull, 47ull}) {
    const Stream st = make_stream(/*slots=*/24, /*tasks=*/400, seed,
                                  /*unlock_violations=*/false);
    const Observed timed = run_stream(st, BackendKind::kTimed, /*cores=*/4);
    for (int threads : {1, 4}) {
      const Observed conc = run_stream_concurrent(st, threads);
      EXPECT_TRUE(conc.check_clean)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(timed.reads, conc.reads)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(timed.found, conc.found)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(timed.faults, conc.faults)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(timed.latest, conc.latest)
          << "seed " << seed << ", " << threads << " threads";
    }
  }
}

// Protocol violations fault identically on the concurrent engine and are
// flagged by the checker with the same error count (each illegal unlock is
// caught at its ISA event, which is schedule-independent).
TEST(BackendDiff, ConcurrentEngineFlagsUnlockViolations) {
  const Stream st = make_stream(/*slots=*/24, /*tasks=*/400, /*seed=*/31,
                                /*unlock_violations=*/true);
  const Observed timed = run_stream(st, BackendKind::kTimed, /*cores=*/4);
  const Observed conc = run_stream_concurrent(st, /*threads=*/4);
  EXPECT_FALSE(conc.check_clean);
  EXPECT_EQ(timed.check_errors, conc.check_errors);
  EXPECT_EQ(timed.reads, conc.reads);
  EXPECT_EQ(timed.faults, conc.faults);
  EXPECT_EQ(timed.latest, conc.latest);
}

// Cross-policy differential (the GcPolicy seam): on policy-safe streams,
// paper and bounded reclamation must observe identical reads, faults,
// final latest maps, and strict checker verdicts on both serial backends —
// while the bounded runs demonstrably reclaim mid-run (the pool is starved
// so both collectors actually work).
TEST(BackendDiff, GcPoliciesObserveIdenticalStreams) {
  for (std::uint64_t seed : {13ull, 29ull}) {
    const Stream st = make_policy_safe_stream(/*readonly=*/6, /*archive=*/6,
                                              /*churn=*/12, /*tasks=*/400,
                                              seed);
    const Observed ref = run_stream(st, BackendKind::kTimed, /*cores=*/4,
                                    GcPolicyKind::kPaper, /*tight_pool=*/true);
    EXPECT_TRUE(ref.check_clean) << "seed " << seed;
    EXPECT_FALSE(ref.reads.empty());
    const Observed timed_bounded =
        run_stream(st, BackendKind::kTimed, /*cores=*/4,
                   GcPolicyKind::kBounded, /*tight_pool=*/true);
    const Observed func_paper =
        run_stream(st, BackendKind::kFunctional, /*cores=*/4,
                   GcPolicyKind::kPaper, /*tight_pool=*/true);
    const Observed func_bounded =
        run_stream(st, BackendKind::kFunctional, /*cores=*/4,
                   GcPolicyKind::kBounded, /*tight_pool=*/true);
    EXPECT_TRUE(timed_bounded == ref) << "timed bounded, seed " << seed;
    EXPECT_TRUE(func_paper == ref) << "functional paper, seed " << seed;
    EXPECT_TRUE(func_bounded == ref) << "functional bounded, seed " << seed;
    // The differential is only meaningful if the bounded collector really
    // ran; only reclaim *timing* may differ, never the observation above.
    EXPECT_GT(timed_bounded.blocks_freed, 0u) << "seed " << seed;
    EXPECT_GT(func_bounded.blocks_freed, 0u) << "seed " << seed;
  }
}

// Same differential on the truly concurrent engine: real threads, the
// bounded range rule deciding reclaims under the shard lock, and a strict
// checker riding the trace — all observations must match the timed
// machine's under either policy.
TEST(BackendDiff, ConcurrentEngineAgreesAcrossGcPolicies) {
  const Stream st = make_policy_safe_stream(/*readonly=*/6, /*archive=*/6,
                                            /*churn=*/12, /*tasks=*/400,
                                            /*seed=*/13);
  const Observed ref = run_stream(st, BackendKind::kTimed, /*cores=*/4,
                                  GcPolicyKind::kPaper, /*tight_pool=*/true);
  for (GcPolicyKind gc : {GcPolicyKind::kPaper, GcPolicyKind::kBounded}) {
    const Observed conc = run_stream_concurrent(st, /*threads=*/4, gc,
                                                /*reclaim_threshold=*/64);
    EXPECT_TRUE(conc.check_clean) << to_string(gc);
    EXPECT_TRUE(conc == ref) << to_string(gc);
  }
}

// An op no earlier task can ever satisfy is a deadlock on the timed
// backend; the functional backend reports it synchronously as kWouldBlock,
// and the report names the op and the blocked task.
TEST(BackendDiff, FunctionalWouldBlockFault) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  cfg.backend = BackendKind::kFunctional;
  Env env(cfg);
  TaskRuntime rt(env, 2);
  const OAddr a = env.store().alloc(1);
  bool faulted = false;
  std::string message;
  rt.create_task(kFirstTaskId, [&](TaskId) {
    // Through the batched facade: the per-op fault is captured into
    // Results with the engine's full report text, so batch drivers see
    // the same diagnostics per-op callers get from OFault::what().
    VersionEngine::Op op;
    op.op = OpCode::kLoadVersion;
    op.addr = a;
    op.version = kGhostVersion;
    Results res;
    execute(env.engine(), {&op, 1}, res);
    if (res.faults.size() == 1) {
      faulted = res.faults.front().kind == FaultKind::kWouldBlock;
      message = res.faults.front().message;
    }
  });
  rt.run();
  EXPECT_TRUE(faulted);
  EXPECT_NE(message.find("LOAD-VERSION"), std::string::npos) << message;
  EXPECT_NE(message.find("task " + std::to_string(kFirstTaskId)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(kGhostVersion)), std::string::npos)
      << message;
}

// The opgen-driven structure workloads must produce bit-identical
// checksums on both backends, with a clean strict check verdict.
TEST(BackendDiff, WorkloadChecksumsAgree) {
  DsSpec spec;
  spec.initial_size = 60;
  spec.ops = 600;
  spec.reads_per_write = 2;
  using Fn = RunResult (*)(Env&, const DsSpec&, int);
  const std::pair<const char*, Fn> workloads[] = {
      {"linked_list", linked_list_versioned},
      {"hash_table", hash_table_versioned},
      {"binary_tree", binary_tree_versioned},
      {"rb_tree", rb_tree_versioned},
  };
  for (const auto& [name, fn] : workloads) {
    std::uint64_t sums[2];
    for (BackendKind b : {BackendKind::kTimed, BackendKind::kFunctional}) {
      MachineConfig cfg;
      cfg.num_cores = 4;
      cfg.backend = b;
      cfg.ostruct.check_mode = 2;
      Env env(cfg);
      sums[b == BackendKind::kFunctional] = fn(env, spec, 4).checksum;
      env.checker()->finish();
      EXPECT_TRUE(env.checker()->clean())
          << name << " on " << to_string(b);
    }
    EXPECT_EQ(sums[0], sums[1]) << name;
  }
}

// An attached-but-inert injector (--inject none) must be invisible: every
// injection site is consulted but never fires, and the timed machine's
// cycles and checksums stay bit-identical to a run with no injector at
// all. This is the guard that lets production configs keep --inject wired
// without perturbing any published figure.
TEST(BackendDiff, InertInjectorIsBitIdentical) {
  DsSpec spec;
  spec.initial_size = 40;
  spec.ops = 400;
  spec.reads_per_write = 2;
  for (BackendKind b : {BackendKind::kTimed, BackendKind::kFunctional}) {
    RunResult r[2];
    int i = 0;
    for (const char* inject : {"", "none"}) {
      MachineConfig cfg;
      cfg.num_cores = 4;
      cfg.backend = b;
      cfg.ostruct.check_mode = 2;
      cfg.ostruct.inject_spec = inject;
      Env env(cfg);
      // "" leaves the seam detached; "none" attaches a real injector whose
      // plan never fires — the two runs must be indistinguishable.
      EXPECT_EQ(env.store().fault_injector() != nullptr, *inject != '\0');
      r[i] = linked_list_versioned(env, spec, 4);
      env.checker()->finish();
      EXPECT_TRUE(env.checker()->clean()) << to_string(b);
      ++i;
    }
    EXPECT_EQ(r[0].cycles, r[1].cycles) << to_string(b);
    EXPECT_EQ(r[0].checksum, r[1].checksum) << to_string(b);
  }
}

}  // namespace
}  // namespace osim
