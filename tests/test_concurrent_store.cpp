// Stress and correctness tests for the thread-safe engine
// (core/concurrent_store.hpp): final-state equivalence across worker
// counts, mutual exclusion through version locks, seqlock torn-read
// detection, reclamation under concurrent optimistic readers, the
// deadlock fault diagnostics, fault parity with the serial engine,
// release()'s range check on both engines, and locked lookups on a long
// chain. tools/run-sanitizers.sh runs this binary under TSan — the
// seqlock and epoch machinery is designed to be data-race-free at the C++
// memory-model level, not merely "works on x86".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/env.hpp"
#include "sim/machine.hpp"

namespace osim {
namespace {

std::uint64_t mix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t data_for(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot << 17) ^ 0x5DEECE66Dull;
}

/// A randomized but deterministic op stream: thread t's ops depend only on
/// (t, nthreads, seed), never on scheduling. Stores get globally unique
/// versions (2 + t + i*nthreads); reads name a version thread t itself
/// stored earlier, so they never block.
struct PlannedStream {
  struct Op {
    std::uint64_t slot;
    Ver store_version;  ///< nonzero: store; zero: read `read_version`
    Ver read_version;
  };
  std::vector<Op> ops;
};

PlannedStream plan_stream(int t, int nthreads, int nops,
                          std::uint64_t nslots) {
  PlannedStream st;
  std::uint64_t seed = 0xC0FFEEull + static_cast<std::uint64_t>(t) * 7919;
  std::vector<std::pair<std::uint64_t, Ver>> mine;  // (slot, version) stored
  for (int i = 0; i < nops; ++i) {
    PlannedStream::Op op;
    const bool is_store = mine.empty() || mix64(seed) % 100 < 60;
    if (is_store) {
      op.store_version = 2 + static_cast<Ver>(t) +
                         static_cast<Ver>(mine.size()) *
                             static_cast<Ver>(nthreads);
      op.slot = mix64(seed) % nslots;
      op.read_version = 0;
      mine.emplace_back(op.slot, op.store_version);
    } else {
      const auto& prev = mine[mix64(seed) % mine.size()];
      op.slot = prev.first;
      op.store_version = 0;
      op.read_version = prev.second;
    }
    st.ops.push_back(op);
  }
  return st;
}

/// The global-script input: ONE op stream, generated once for every worker
/// count and split round-robin into one stream per worker. Slots are
/// Zipf(1.0)-hot, half the ops are stores with globally unique versions
/// (dense from 2), and each read is LOAD-VERSION of the latest scripted
/// store on its slot (setup version 1 before the first). That store may
/// belong to another worker that has not issued it yet, so reads wait on
/// other workers' stores.
std::vector<PlannedStream> plan_script(int workers, int nops,
                                       std::uint64_t nslots) {
  std::vector<double> cum(nslots);  // Zipf(1.0) cumulative weights
  double total = 0;
  for (std::uint64_t i = 0; i < nslots; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cum[i] = total;
  }
  std::vector<PlannedStream> streams(static_cast<std::size_t>(workers));
  std::vector<Ver> last_store(nslots, 1);
  Ver next_version = 2;
  std::uint64_t seed = 0xD00DF00Dull;
  for (int j = 0; j < nops; ++j) {
    // u <= total == cum.back(), so the slot index stays below nslots.
    const double u =
        static_cast<double>(mix64(seed) >> 11) * 0x1p-53 * total;
    PlannedStream::Op op;
    op.slot = static_cast<std::uint64_t>(
        std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
    if (mix64(seed) % 2 == 0) {
      op.store_version = next_version++;
      op.read_version = 0;
      last_store[op.slot] = op.store_version;
    } else {
      op.store_version = 0;
      op.read_version = last_store[op.slot];
    }
    streams[static_cast<std::size_t>(j % workers)].ops.push_back(op);
  }
  return streams;
}

/// Runs the streams on `workers` host threads. Read results are validated
/// against data_for() via an atomic mismatch counter rather than gtest
/// assertions: ASSERT/EXPECT are only safe on the main thread, so worker
/// threads record failures and the caller asserts the count is zero.
std::uint64_t run_streams(ConcurrentVersionStore& store, OAddr base,
                          const std::vector<PlannedStream>& streams,
                          int workers) {
  std::atomic<std::uint64_t> mismatches{0};
  ConcurrentTaskPool pool(store, workers);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const PlannedStream& st = streams[t];
    pool.create_task(static_cast<TaskId>(t + 1),
                     [&st, &store, base, &mismatches](TaskId) {
      for (const auto& op : st.ops) {
        const OAddr a = base + 8 * op.slot;
        if (op.store_version != 0) {
          store.store_version(a, op.store_version,
                              data_for(op.store_version, op.slot));
        } else if (store.load_version(a, op.read_version) !=
                   data_for(op.read_version, op.slot)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  pool.run();
  return mismatches.load(std::memory_order_relaxed);
}

using SlotStates = std::vector<std::vector<std::pair<Ver, std::uint64_t>>>;

/// Final state of running `streams` on `workers` host threads against a
/// fresh store whose slots all hold setup version 1: every slot's live
/// versions. Every load is checked against its version's data.
SlotStates final_state(const std::vector<PlannedStream>& streams, int workers,
                       std::uint64_t nslots) {
  ConcurrencyConfig cfg;
  // A read may wait on another worker's store for as long as that worker
  // is descheduled; on an oversubscribed or TSan-slowed host give it real
  // room before the engine declares deadlock.
  cfg.deadlock_timeout_ms = 10000;
  ConcurrentVersionStore store(cfg);
  const OAddr base = store.alloc(nslots);
  for (std::uint64_t s = 0; s < nslots; ++s) {
    store.store_version(base + 8 * s, 1, data_for(1, s));
  }
  EXPECT_EQ(run_streams(store, base, streams, workers), 0u)
      << "loads returned wrong data at " << workers << " worker(s)";
  SlotStates state;
  for (std::uint64_t s = 0; s < nslots; ++s) {
    state.push_back(store.slot_versions(base + 8 * s));
  }
  return state;
}

// The parallel engine must produce exactly the final O-structure state of a
// single-threaded replay of the same ops: the store *set* determines the
// state, not the interleaving. Two inputs: per-thread streams whose reads
// name the reading thread's own earlier stores (they never block), and the
// global script, whose reads wait on other workers' stores.
TEST(ConcurrentStore, FinalStateMatchesSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr std::uint64_t kSlots = 64;
  std::vector<PlannedStream> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(plan_stream(t, kThreads, kOps, kSlots));
  }
  EXPECT_EQ(final_state(streams, kThreads, kSlots),
            final_state(streams, /*workers=*/1, kSlots));

  constexpr int kScriptOps = 20000;
  constexpr std::uint64_t kScriptSlots = 512;
  const SlotStates serial =
      final_state(plan_script(1, kScriptOps, kScriptSlots), 1, kScriptSlots);
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(final_state(plan_script(workers, kScriptOps, kScriptSlots),
                          workers, kScriptSlots),
              serial)
        << workers << " workers";
  }
}

// Version locks must give real mutual exclusion across host threads: N
// threads increment a plain (non-atomic) counter under LOCK-LOAD /
// UNLOCK(rename) chains; any lost update means two threads were inside the
// critical section at once.
TEST(ConcurrentStore, ContendedCounterLockMutualExclusion) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 500;
  ConcurrentVersionStore store;
  const OAddr counter = store.alloc(1);
  store.store_version(counter, 1, 0);

  std::uint64_t plain_counter = 0;  // deliberately unprotected
  std::atomic<Ver> next_rename{2};

  ConcurrentTaskPool pool(store, kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.create_task(
        static_cast<TaskId>(t + 1),
        [&store, counter, &plain_counter, &next_rename](TaskId me) {
          for (int i = 0; i < kIncrements; ++i) {
            Ver got = 0;
            store.lock_load_latest(counter, ~Ver{0}, me, &got);
            plain_counter += 1;  // the protected region
            const Ver fresh =
                next_rename.fetch_add(1, std::memory_order_relaxed);
            // Rename forward so the latest version is always the one the
            // next locker grabs; the old version stays (immutable history).
            store.unlock_version(counter, got, me, fresh);
          }
        });
  }
  pool.run();
  EXPECT_EQ(plain_counter,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(store.version_count(counter), 1 + kThreads * kIncrements);
}

// Seqlock validation: concurrent writers keep prepending versions while
// readers hammer optimistic LOAD-VERSION walks. Every read must return the
// data stored for exactly that version — a torn walk (pointer from one
// write window, data from another) would break the pairing.
TEST(ConcurrentStore, SeqlockTornReadDetection) {
  constexpr std::uint64_t kSlots = 4;  // few slots = maximal seq churn
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kVersionsPerWriter = 3000;
  ConcurrentVersionStore store;
  const OAddr base = store.alloc(kSlots);
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    store.store_version(base + 8 * s, 1, data_for(1, s));
  }

  // Each reader keeps going until the writers are done AND it has made at
  // least kMinReadsPerReader validated reads — a starved reader (plausible
  // on a loaded single-core host) must not end the test with zero reads.
  // Validation failures are counted atomically and asserted on the main
  // thread; gtest ASSERT/EXPECT are not safe from spawned threads.
  constexpr std::uint64_t kMinReadsPerReader = 1000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, base, w] {
      for (int i = 0; i < kVersionsPerWriter; ++i) {
        const Ver v = 2 + static_cast<Ver>(w) +
                      static_cast<Ver>(i) * kWriters;
        const std::uint64_t slot = v % kSlots;
        store.store_version(base + 8 * slot, v, data_for(v, slot));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, base, &stop, &reads_done, &torn_reads, r] {
      std::uint64_t seed = 0xFACEull + static_cast<std::uint64_t>(r);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire) ||
             local < kMinReadsPerReader) {
        const std::uint64_t slot = mix64(seed) % kSlots;
        Ver got = 0;
        const std::uint64_t d =
            store.load_latest(base + 8 * slot, ~Ver{0}, &got);
        // The pair (got, d) must be internally consistent no matter how
        // many write windows the walk raced with.
        if (d != data_for(got, slot)) {
          torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
        ++local;
      }
      reads_done.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_GE(reads_done.load(), kMinReadsPerReader * kReaders);
}

// Epoch-based reclamation must recycle shadowed blocks while optimistic
// readers are in flight, without ever handing a reader freed memory. Tasks
// finish in waves so the GC fence keeps advancing.
TEST(ConcurrentStore, ReclamationUnderReaders) {
  ConcurrencyConfig cfg;
  cfg.reclaim_threshold = 16;  // reclaim aggressively
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, data_for(1, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_reads{0};  // asserted on the main thread
  std::thread reader([&store, a, &stop, &torn_reads] {
    while (!stop.load(std::memory_order_acquire)) {
      Ver got = 0;
      const std::uint64_t d = store.load_latest(a, ~Ver{0}, &got);
      if (d != data_for(got, 0)) {
        torn_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Each short task stores one newer version (shadowing the previous
  // head) and immediately ends, advancing the fence so the shadowed block
  // becomes reclaimable.
  constexpr int kTasks = 4000;
  for (int t = 1; t <= kTasks; ++t) {
    const TaskId tid = static_cast<TaskId>(t);
    store.task_created(tid);
    store.task_begin(tid);
    const Ver v = 1 + static_cast<Ver>(t);
    store.store_version(a, v, data_for(v, 0));
    store.task_end(tid);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0u);

  const auto stats = store.stats();
  EXPECT_GT(stats.blocks_reclaimed, 0u);
  // The newest version is always intact and the chain is far shorter than
  // the kTasks+1 versions ever stored.
  EXPECT_EQ(store.newest_version(a), Ver{1 + kTasks});
  EXPECT_LT(store.version_count(a), kTasks / 2);
  EXPECT_EQ(store.peek_version(a, 1 + kTasks),
            std::optional<std::uint64_t>(data_for(1 + kTasks, 0)));
}

// A genuinely unsatisfiable wait must fault kWouldBlock after the timeout,
// and the diagnostic must name the op and the parked task (satellite of the
// functional backend's instant-fault message).
TEST(ConcurrentStore, DeadlockFaultReportsTaskAndOp) {
  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 100;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, 7);

  ConcurrentTaskPool pool(store, 1);
  pool.create_task(42, [&store, a](TaskId) {
    store.load_version(a, 999);  // never stored by anyone
  });
  try {
    pool.run();
    FAIL() << "expected SimError from the deadlocked load";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("LOAD-VERSION"), std::string::npos) << msg;
    EXPECT_NE(msg.find("task 42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("address " + std::to_string(a)), std::string::npos)
        << msg;
    // The reported timeout is ConcurrencyConfig's, not a hard-wired value.
    EXPECT_NE(msg.find("after 100ms"), std::string::npos) << msg;
  }
}

// request_stop() unwinds every parked waiter promptly (the pool uses it to
// abort a run after a worker error) and reset_stop() re-arms the store.
TEST(ConcurrentStore, WorkerErrorAbortsParkedWaiters) {
  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 30000;  // parked op must NOT wait this out
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, 7);

  ConcurrentTaskPool pool(store, 2);
  pool.create_task(1, [&store, a](TaskId) {
    store.load_version(a, 999);  // parks forever
  });
  pool.create_task(2, [](TaskId) {
    throw std::runtime_error("worker exploded");
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.run(), SimError);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 10.0) << "stop request did not unwind the parked waiter";

  // The store re-arms: the same op now faults only via its own timeout
  // path, and satisfiable ops succeed.
  store.store_version(a, 2, 9);
  EXPECT_EQ(store.load_version(a, 2), 9u);
}

/// The task-order sequence of TaskOrderRulesMatchSerialEngine on slot `a` of
/// either engine (tracking aborts); returns the two fault texts. Creating a
/// task older than the oldest unfinished one faults, and so does TASK-END of
/// a task that is not running — without unbinding the caller's task 5, so
/// aborting it still rolls back its store.
std::vector<std::string> task_order_sequence(VersionEngine& e, OAddr a) {
  std::vector<std::string> texts;
  auto fault_text = [&texts](auto&& op, const std::string& want) {
    try {
      op();
      ADD_FAILURE() << "expected kTaskOrderViolation";
    } catch (const OFault& f) {
      EXPECT_EQ(f.kind(), FaultKind::kTaskOrderViolation);
      EXPECT_NE(std::string(f.what()).find(want), std::string::npos)
          << f.what();
      texts.emplace_back(f.what());
    }
  };
  e.task_created(5);
  fault_text([&] { e.task_created(3); }, "older than the oldest unfinished");
  e.task_begin(5);
  e.store_version(a, 7, 70);
  fault_text([&] { e.task_end(99); }, "which is not running");
  e.abort_task(5);
  EXPECT_FALSE(e.peek_version(a, 7).has_value());
  EXPECT_EQ(e.engine_stats().aborted_blocks, 1u);
  return texts;
}

// Task bookkeeping mirrors the serial GC rules, with the serial engine's
// fault texts, and a failed TASK-END leaves the caller's task to abort.
TEST(ConcurrentStore, TaskOrderRulesMatchSerialEngine) {
  ConcurrencyConfig ccfg;
  ccfg.track_aborts = true;
  ConcurrentVersionStore store(ccfg);
  std::vector<std::string> concurrent;
  {
    SCOPED_TRACE("concurrent engine");
    concurrent = task_order_sequence(store, store.alloc(1));
  }
  MachineConfig cfg;
  cfg.num_cores = 1;
  cfg.backend = BackendKind::kFunctional;
  cfg.ostruct.track_aborts = true;
  Env env(cfg);
  std::vector<std::string> serial;
  {
    SCOPED_TRACE("functional serial engine");
    serial = task_order_sequence(env.engine(), env.engine().alloc(1));
  }
  EXPECT_EQ(concurrent, serial);
}

/// Runs `scenario` on a fresh concurrent engine and on a fresh functional
/// serial engine.
template <typename Fn>
void on_both_engines(Fn&& scenario) {
  {
    SCOPED_TRACE("concurrent engine");
    ConcurrentVersionStore store;
    scenario(store);
  }
  MachineConfig cfg;
  cfg.num_cores = 1;
  cfg.backend = BackendKind::kFunctional;
  Env env(cfg);
  SCOPED_TRACE("functional serial engine");
  scenario(env.engine());
}

/// release(base, n) must fault kVersionedAccessToUnversionedPage with `want`.
void expect_release_fault(VersionEngine& e, OAddr base, std::size_t n,
                          const std::string& want) {
  try {
    e.release(base, n);
    ADD_FAILURE() << "release of " << n << " slots must fault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kVersionedAccessToUnversionedPage);
    EXPECT_NE(std::string(f.what()).find(want), std::string::npos)
        << f.what();
  }
}

/// No slot address lies in two of the (base, slots) ranges.
void expect_disjoint(const std::vector<std::pair<OAddr, std::size_t>>& ranges) {
  std::vector<OAddr> seen;
  for (const auto& [base, n] : ranges) {
    for (std::size_t i = 0; i < n; ++i) seen.push_back(base + 8 * i);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "two allocations share a slot";
}

// release() checks its whole range before it moves any state, on both
// engines: a range that runs into a free slot, or past the slot table,
// faults naming the first such slot and leaves every slot as it was, so
// later allocations stay disjoint.
TEST(ConcurrentStore, ReleaseChecksWholeRangeFirst) {
  // Double release: after release(a1, 1), release(a0, 2) would free slot 1
  // a second time, and alloc(2) and alloc(1) would both hand it out.
  on_both_engines([](VersionEngine& e) {
    const OAddr a0 = e.alloc(1);
    const OAddr a1 = e.alloc(1);
    e.store_version(a0, 1, 10);
    e.release(a1, 1);
    expect_release_fault(e, a0, 2, "slot 1 is not allocated");
    ASSERT_TRUE(e.is_versioned_addr(a0));
    EXPECT_FALSE(e.is_versioned_addr(a1));
    EXPECT_EQ(e.peek_version(a0, 1), std::optional<std::uint64_t>(10));
    const OAddr pair = e.alloc(2);
    const OAddr single = e.alloc(1);
    expect_disjoint({{a0, 1}, {pair, 2}, {single, 1}});
  });
  // Past the table: on a one-slot table, release(a, 3) names slot 1.
  on_both_engines([](VersionEngine& e) {
    const OAddr a = e.alloc(1);
    e.store_version(a, 1, 10);
    expect_release_fault(e, a, 3, "slot 1 is not allocated");
    ASSERT_TRUE(e.is_versioned_addr(a));
    EXPECT_EQ(e.peek_version(a, 1), std::optional<std::uint64_t>(10));
    expect_disjoint({{a, 1}, {e.alloc(1), 1}});
  });
}

/// What one op did: "ok", or the name of the FaultKind it raised.
template <typename Op>
std::string outcome(Op&& op) {
  try {
    op();
  } catch (const OFault& f) {
    return to_string(f.kind());
  }
  return "ok";
}

/// The unlock fault sequence of FaultParityWithSerialEngine, on slot `a` of
/// either engine; returns every step's outcome in order. On the chain
/// 9, 7, 5, 3 with 7 locked by task 3, the unlock checks run in the serial
/// engine's order (version exists, then owner, then rename target), and a
/// rename target above, below or at the locked version all exist.
std::vector<std::string> unlock_fault_sequence(VersionEngine& e, OAddr a) {
  const std::string ok = "ok";
  const std::string exists = to_string(FaultKind::kVersionAlreadyExists);
  const std::string unversioned =
      to_string(FaultKind::kVersionedAccessToUnversionedPage);
  const std::string not_owner = to_string(FaultKind::kNotLockOwner);
  const std::string target_exists =
      to_string(FaultKind::kRenameTargetExists);
  std::vector<std::string> got;
  auto step = [&got](const std::string& want, auto&& op) {
    got.push_back(outcome(op));
    EXPECT_EQ(got.back(), want) << "step " << got.size();
  };
  step(ok, [&] { e.store_version(a, 7, 70); });
  step(exists, [&] { e.store_version(a, 7, 71); });
  step(unversioned, [&] { e.load_version(a + 8, 1); });  // unallocated slot
  step(not_owner, [&] { e.unlock_version(a, 7, 3); });   // never locked
  step(ok, [&] { e.lock_load_version(a, 7, /*locker=*/3); });
  step(not_owner, [&] { e.unlock_version(a, 7, /*owner=*/4); });
  for (const Ver v : {9, 5, 3}) {
    step(ok, [&] { e.store_version(a, v, 10 * v); });
  }
  step(not_owner, [&] { e.unlock_version(a, 6, 3, Ver{9}); });  // absent
  step(not_owner, [&] { e.unlock_version(a, 7, 4, Ver{9}); });  // not owner
  for (const Ver target : {9, 5, 3, 7}) {
    step(target_exists, [&] { e.unlock_version(a, 7, 3, target); });
    EXPECT_EQ(e.lock_holder(a, 7), std::optional<TaskId>(3))
        << "after renaming onto " << target;
  }
  step(ok, [&] { e.unlock_version(a, 7, 3, Ver{6}); });  // absent target
  EXPECT_FALSE(e.lock_holder(a, 7).has_value());
  EXPECT_EQ(e.peek_version(a, 6), std::optional<std::uint64_t>(70));
  EXPECT_EQ(e.version_count(a), 5);
  return got;
}

// Serial-engine fault parity for the cases the diff test cannot reach
// concurrently: duplicate stores, unversioned accesses, and every unlock
// fault with its exact kind. The same sequence runs on a functional serial
// VersionStore, and the two engines' outcomes must be equal step by step.
TEST(ConcurrentStore, FaultParityWithSerialEngine) {
  ConcurrentVersionStore store;
  const OAddr a = store.alloc(1);
  std::vector<std::string> concurrent;
  {
    SCOPED_TRACE("concurrent engine");
    concurrent = unlock_fault_sequence(store, a);
  }
  MachineConfig cfg;
  cfg.num_cores = 1;
  cfg.backend = BackendKind::kFunctional;
  Env env(cfg);
  std::vector<std::string> serial;
  {
    SCOPED_TRACE("functional serial engine");
    serial = unlock_fault_sequence(env.engine(), env.engine().alloc(1));
  }
  EXPECT_EQ(concurrent, serial);
  // The op counts perfbench checks each round against: every ISA call
  // counts once, faulted calls and rename unlocks included.
  ConcurrentVersionStore::Stats s = store.stats();
  EXPECT_EQ(s.ops, concurrent.size());
  EXPECT_EQ(s.ops, s.loads + s.stores + s.lock_ops);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.stores, 5u);
  EXPECT_EQ(s.lock_ops, 10u);

  store.release(a, 1);
  EXPECT_EQ(outcome([&] { store.load_version(a, 7); }),
            to_string(FaultKind::kVersionedAccessToUnversionedPage));
  EXPECT_FALSE(store.is_versioned_addr(a));
  s = store.stats();
  EXPECT_EQ(s.ops, concurrent.size() + 1);
  EXPECT_EQ(s.ops, s.loads + s.stores + s.lock_ops);
}

// Every locked lookup on one long chain built mostly by mid-list inserts:
// 4096 versions stored in a seeded shuffled order, then peek, lock_holder,
// version_count, LOAD-LATEST, LOCK-LOAD and LOCK-LOAD-LATEST (each unlocked
// with and without a rename) at seeded random keys, each against a
// std::map model. A lookup that stops one block early or late shows here.
TEST(ConcurrentStore, LockedLookupsOnLongShuffledChainMatchModel) {
  ConcurrentVersionStore store;
  const OAddr a = store.alloc(1);
  std::map<Ver, std::uint64_t> model;
  // Even versions 2..8192, so every odd key is an absent one between two
  // stored versions until a rename fills it.
  constexpr Ver kNewest = 8192;
  std::vector<Ver> order;
  for (Ver v = 2; v <= kNewest; v += 2) order.push_back(v);
  std::uint64_t seed = 0x5EEDC4A1ull;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[mix64(seed) % (i + 1)]);
  }
  for (const Ver v : order) {
    store.store_version(a, v, data_for(v, 0));
    model[v] = data_for(v, 0);
  }
  ASSERT_EQ(store.version_count(a), static_cast<int>(model.size()));

  // The model's newest version <= cap (version 2 is stored, so any cap >= 2
  // has one).
  auto latest = [&model](Ver cap) {
    return *std::prev(model.upper_bound(cap));
  };
  // Unlock `v`; with `rename`, rename it onto v + 1 when that is free — a
  // mid-list insert right above it, or a head insert past the newest.
  auto unlock = [&](Ver v, TaskId owner, bool rename) {
    std::optional<Ver> to;
    if (rename && model.count(v + 1) == 0) to = v + 1;
    store.unlock_version(a, v, owner, to);
    if (to.has_value()) model[*to] = model[v];
    EXPECT_FALSE(store.lock_holder(a, v).has_value()) << v;
  };
  TaskId locker = 1000;
  for (int i = 0; i < 512; ++i) {
    const Ver k = mix64(seed) % (kNewest + 64);  // a little past the newest
    const auto it = model.find(k);
    EXPECT_EQ(store.peek_version(a, k),
              it == model.end() ? std::nullopt
                                : std::optional<std::uint64_t>(it->second))
        << k;
    EXPECT_FALSE(store.lock_holder(a, k).has_value()) << k;
    if (k < 2) continue;  // nothing at or below the cap: the op would block
    Ver found = 0;
    EXPECT_EQ(store.load_latest(a, k, &found), latest(k).second) << k;
    EXPECT_EQ(found, latest(k).first) << k;

    const Ver exact = latest(k).first;
    ++locker;
    EXPECT_EQ(store.lock_load_version(a, exact, locker), model[exact]) << k;
    EXPECT_EQ(store.lock_holder(a, exact), std::optional<TaskId>(locker));
    unlock(exact, locker, i % 2 == 0);

    const auto [want_v, want_data] = latest(k);
    ++locker;
    found = 0;
    EXPECT_EQ(store.lock_load_latest(a, k, locker, &found), want_data) << k;
    EXPECT_EQ(found, want_v) << k;
    EXPECT_EQ(store.lock_holder(a, want_v), std::optional<TaskId>(locker));
    unlock(want_v, locker, i % 3 == 0);
    EXPECT_EQ(store.version_count(a), static_cast<int>(model.size())) << k;
  }
  for (const auto& [v, d] : model) {
    ASSERT_EQ(store.peek_version(a, v), std::optional<std::uint64_t>(d)) << v;
  }
  const auto integrity = store.check_integrity();
  EXPECT_TRUE(integrity.ok) << integrity.detail;
}

}  // namespace
}  // namespace osim
