// abort_task rollback invariants on both engines: created versions are
// unlinked and freed, shadowed neighbours become the head again, held locks
// are released, and a retry (plain task_begin) finds exactly the
// pre-attempt state. Plus the degradation loop around it: injected
// kResourceExhausted absorbed by abort-and-retry, and deadlock-timeout
// diagnostics naming op/version/address/task.
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "analysis/checker.hpp"
#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "core/version_engine.hpp"
#include "core/version_store.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/functional.hpp"
#include "telemetry/metrics.hpp"

namespace osim {
namespace {

// Serial engine at litmus scale (the run_oracle setup): functional timing,
// no auto-GC, abort journal on.
struct SerialEngine {
  telemetry::MetricRegistry reg;
  FunctionalTiming timing;
  std::unique_ptr<VersionStore> vs;
  OAddr base = 0;

  explicit SerialEngine(bool track_aborts = true,
                        GcPolicyKind policy = GcPolicyKind::kPaper,
                        int cores = 2, std::size_t slots = 8)
      : reg(cores) {
    OStructConfig cfg;
    cfg.initial_pool_blocks = std::size_t{1} << 12;
    cfg.gc_watermark = 0;
    cfg.track_aborts = track_aborts;
    cfg.gc_policy = policy;
    vs = std::make_unique<VersionStore>(cfg, cores, reg, timing);
    base = vs->alloc(slots);
    timing.set_core(0);
  }
};

TEST(SerialAbort, RollsBackStoresAndRestoresShadowedHead) {
  SerialEngine e;
  VersionStore& vs = *e.vs;
  vs.task_created(1);
  vs.task_begin(1);
  vs.store_version(e.base, 1, 111);
  vs.task_end(1);

  const std::size_t free_before = vs.pool().free_count();
  vs.task_created(2);
  vs.task_begin(2);
  vs.store_version(e.base, 2, 222);      // shadows version 1
  vs.store_version(e.base + 8, 5, 555);
  ASSERT_EQ(vs.newest_version(e.base).value_or(0), 2u);

  vs.abort_task(2);
  EXPECT_FALSE(vs.peek_version(e.base, 2).has_value());
  EXPECT_FALSE(vs.peek_version(e.base + 8, 5).has_value());
  EXPECT_EQ(vs.newest_version(e.base).value_or(0), 1u);
  EXPECT_EQ(vs.peek_version(e.base, 1).value_or(0), 111u);
  EXPECT_EQ(vs.pool().free_count(), free_before);
  // Abort accounting through the backend-agnostic facade: these are the
  // fields bench JSON and osim-report read for BOTH engines.
  const EngineStats es = static_cast<VersionEngine&>(vs).engine_stats();
  EXPECT_EQ(es.tasks_aborted, 1u);
  EXPECT_EQ(es.aborted_blocks, 2u);
  EXPECT_EQ(es.aborted_locks, 0u);

  // The task is still unfinished: a plain task_begin retries it, and the
  // restored head accepts the same stores again.
  vs.task_begin(2);
  vs.store_version(e.base, 2, 223);
  vs.store_version(e.base + 8, 5, 556);
  vs.task_end(2);
  EXPECT_EQ(vs.peek_version(e.base, 2).value_or(0), 223u);
  EXPECT_EQ(vs.peek_version(e.base + 8, 5).value_or(0), 556u);
}

TEST(SerialAbort, ReleasesLocksAndUndoesRename) {
  SerialEngine e;
  VersionStore& vs = *e.vs;
  vs.task_created(1);
  vs.task_begin(1);
  vs.store_version(e.base, 1, 111);
  vs.task_end(1);

  vs.task_created(2);
  vs.task_begin(2);
  EXPECT_EQ(vs.lock_load_version(e.base, 1, 2), 111u);
  vs.unlock_version(e.base, 1, 2, Ver{5});  // rename: creates version 5
  EXPECT_EQ(vs.peek_version(e.base, 5).value_or(0), 111u);
  EXPECT_EQ(vs.lock_load_version(e.base, 5, 2), 111u);

  vs.abort_task(2);
  EXPECT_FALSE(vs.peek_version(e.base, 5).has_value());
  EXPECT_EQ(vs.peek_version(e.base, 1).value_or(0), 111u);
  EXPECT_FALSE(vs.lock_holder(e.base, 1).has_value());
  // Journal replay is newest-first: release the lock on 5, unlink the
  // renamed version 5 (one block), then skip the version-1 lock entry —
  // the rename-unlock already released it.
  const EngineStats es = static_cast<VersionEngine&>(vs).engine_stats();
  EXPECT_EQ(es.tasks_aborted, 1u);
  EXPECT_EQ(es.aborted_blocks, 1u);
  EXPECT_EQ(es.aborted_locks, 1u);
  vs.task_end(2);

  // Nothing left locked: a third task can lock version 1 immediately.
  vs.task_created(3);
  vs.task_begin(3);
  EXPECT_EQ(vs.lock_load_version(e.base, 1, 3), 111u);
  vs.unlock_version(e.base, 1, 3);
  vs.task_end(3);
}

TEST(SerialAbort, VictimUnlockFaultsDeterministically) {
  // Task 2 locked a version task 1 created; when task 1 aborts, the
  // version is gone and task 2's unlock must fault kNotLockOwner rather
  // than silently succeed or corrupt another block.
  SerialEngine e;
  VersionStore& vs = *e.vs;
  vs.task_created(1);
  vs.task_created(2);
  vs.task_begin(1);
  vs.store_version(e.base, 10, 123);

  e.timing.set_core(1);
  vs.task_begin(2);
  EXPECT_EQ(vs.lock_load_version(e.base, 10, 2), 123u);

  e.timing.set_core(0);
  vs.abort_task(1);
  vs.task_end(1);

  e.timing.set_core(1);
  try {
    vs.unlock_version(e.base, 10, 2);
    FAIL() << "unlock of an aborted version must fault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kNotLockOwner);
  }
  vs.task_end(2);
}

TEST(SerialAbort, RequiresTrackAborts) {
  SerialEngine e(/*track_aborts=*/false);
  e.vs->task_created(1);
  e.vs->task_begin(1);
  try {
    e.vs->abort_task(1);
    FAIL() << "abort without a journal must fault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kTaskOrderViolation);
  }
}

TEST(SerialAbort, InjectedExhaustionAbortRetryConvergesClean) {
  // The full degradation loop under the protocol checker: the 3rd
  // block-pool request fails (injected), the task aborts and retries, and
  // the event stream — kBlockFreed/kBlockRestored rollback events included
  // — must satisfy every checker invariant.
  SerialEngine e;
  VersionStore& vs = *e.vs;
  analysis::CheckerSink sink(2);
  vs.tracer().attach(&sink);
  FaultInjector inj(FaultPlan::parse("pool@3"));
  vs.attach_fault_injector(&inj);

  vs.task_created(1);
  int attempts = 0;
  for (;;) {
    vs.task_begin(1);
    ++attempts;
    try {
      for (Ver v = 1; v <= 4; ++v) {
        vs.store_version(e.base + 8 * (v - 1), v, 100 + v);
      }
      vs.task_end(1);
      break;
    } catch (const OFault& f) {
      ASSERT_EQ(f.kind(), FaultKind::kResourceExhausted);
      vs.abort_task(1);
    }
  }
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(vs.engine_stats().tasks_aborted, 1u);
  EXPECT_EQ(inj.fired(FaultSite::kBlockPool), 1u);
  for (Ver v = 1; v <= 4; ++v) {
    EXPECT_EQ(vs.peek_version(e.base + 8 * (v - 1), v).value_or(0), 100 + v);
  }
  sink.checker().finish();
  EXPECT_EQ(sink.checker().error_count(), 0u);
  EXPECT_EQ(sink.checker().warning_count(), 0u);
}

TEST(SerialAbort, BothGcPoliciesRestoreShadowedState) {
  for (const GcPolicyKind policy :
       {GcPolicyKind::kPaper, GcPolicyKind::kBounded}) {
    SerialEngine e(/*track_aborts=*/true, policy);
    VersionStore& vs = *e.vs;
    vs.task_created(1);
    vs.task_begin(1);
    vs.store_version(e.base, 1, 10);
    vs.task_end(1);

    vs.task_created(2);
    vs.task_begin(2);
    vs.store_version(e.base, 2, 20);  // shadows 1
    vs.store_version(e.base, 3, 30);  // shadows 2
    vs.abort_task(2);
    vs.task_end(2);

    EXPECT_EQ(vs.newest_version(e.base).value_or(0), 1u);
    EXPECT_EQ(vs.peek_version(e.base, 1).value_or(0), 10u);
    EXPECT_EQ(vs.version_count(e.base), 1);

    // The restored head must be fully live again: shadowing it anew and
    // finishing normally must not confuse the (un-registered) GC state.
    vs.task_created(3);
    vs.task_begin(3);
    vs.store_version(e.base, 2, 21);
    vs.task_end(3);
    EXPECT_EQ(vs.newest_version(e.base).value_or(0), 2u);
  }
}

// One scripted abort driven purely through the facade: task 1 seeds
// version 1, task 2 shadows it, stores a second slot, locks version 1,
// then aborts. Returns the facade-level accounting.
EngineStats scripted_abort(VersionEngine& eng) {
  const OAddr base = eng.alloc(2);
  eng.task_created(1);
  eng.task_begin(1);
  eng.store_version(base, 1, 111);
  eng.task_end(1);

  eng.task_created(2);
  eng.task_begin(2);
  eng.store_version(base, 2, 222);      // shadows version 1
  eng.store_version(base + 8, 4, 444);
  EXPECT_EQ(eng.lock_load_version(base, 1, 2), 111u);
  eng.abort_task(2);
  eng.task_end(2);

  EXPECT_FALSE(eng.peek_version(base, 2).has_value());
  EXPECT_EQ(eng.peek_version(base, 1).value_or(0), 111u);
  EXPECT_FALSE(eng.lock_holder(base, 1).has_value());
  return eng.engine_stats();
}

TEST(AbortStats, FacadeAccountingAgreesAcrossEngines) {
  // The drift this guards against: the engines once counted undone work in
  // backend-private structs with different field meanings. Identical op
  // streams must now yield field-for-field identical EngineStats.
  SerialEngine serial;
  const EngineStats from_serial = scripted_abort(*serial.vs);

  ConcurrencyConfig cfg;
  cfg.track_aborts = true;
  ConcurrentVersionStore conc(cfg);
  const EngineStats from_conc = scripted_abort(conc);

  EXPECT_EQ(from_serial.tasks_aborted, 1u);
  EXPECT_EQ(from_conc.tasks_aborted, from_serial.tasks_aborted);
  EXPECT_EQ(from_conc.aborted_blocks, from_serial.aborted_blocks);
  EXPECT_EQ(from_conc.aborted_locks, from_serial.aborted_locks);
}

TEST(ConcurrentAbort, RollsBackStoresLocksAndShadow) {
  ConcurrencyConfig cfg;
  cfg.track_aborts = true;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(2);
  store.store_version(a, 1, 111);  // host-side setup: no task, not journaled

  store.task_created(7);
  store.task_begin(7);
  store.store_version(a, 2, 222);      // shadows version 1
  store.store_version(a + 8, 4, 444);
  EXPECT_EQ(store.lock_load_version(a, 1, 7), 111u);

  store.abort_task(7);
  EXPECT_FALSE(store.peek_version(a, 2).has_value());
  EXPECT_FALSE(store.peek_version(a + 8, 4).has_value());
  EXPECT_EQ(store.newest_version(a).value_or(0), 1u);
  EXPECT_EQ(store.peek_version(a, 1).value_or(0), 111u);
  EXPECT_FALSE(store.lock_holder(a, 1).has_value());
  const auto s = store.stats();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.aborted_blocks, 2u);
  EXPECT_EQ(s.aborted_locks, 1u);
  // The facade view must spell the identical numbers under the identical
  // field names the serial engine uses (see SerialAbort tests above).
  const EngineStats es =
      static_cast<VersionEngine&>(store).engine_stats();
  EXPECT_EQ(es.tasks_aborted, s.aborts);
  EXPECT_EQ(es.aborted_blocks, s.aborted_blocks);
  EXPECT_EQ(es.aborted_locks, s.aborted_locks);
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;

  store.task_begin(7);  // retry
  store.store_version(a, 2, 223);
  store.task_end(7);
  EXPECT_EQ(store.peek_version(a, 2).value_or(0), 223u);
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;
}

TEST(ConcurrentAbort, PoolRetriesUnderInjectedExhaustion) {
  // ConcurrentTaskPool's abort-and-retry degradation under a block-pool
  // fault rate: every task must eventually commit (giveups == 0) and the
  // committed state must be exactly what a fault-free run produces.
  ConcurrencyConfig cfg;
  cfg.track_aborts = true;
  cfg.deadlock_timeout_ms = 2000;
  cfg.max_threads = 8;
  ConcurrentVersionStore store(cfg);
  constexpr int kTasks = 16;
  constexpr int kOps = 24;
  const OAddr base = store.alloc(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    store.store_version(base + 8 * static_cast<OAddr>(t), 1,
                        1000u + static_cast<std::uint64_t>(t));
  }
  // Armed only after setup: host-side setup has no task to absorb a fault.
  FaultInjector inj(FaultPlan::parse("pool:0.03,seed=9"));
  store.attach_fault_injector(&inj);

  ConcurrentTaskPool pool(store, 4);
  ConcurrentTaskPool::RetryPolicy rp;
  rp.max_retries = 200;
  rp.backoff_base_us = 1;
  rp.backoff_cap_us = 50;
  pool.set_retry_policy(rp);

  std::atomic<int> bad{0};
  for (int t = 0; t < kTasks; ++t) {
    pool.create_task(static_cast<TaskId>(t + 1), [&, t](TaskId tid) {
      const OAddr a = base + 8 * static_cast<OAddr>(t);
      const Ver v0 = static_cast<Ver>(tid) * 1000;
      for (int k = 0; k < kOps; ++k) {
        store.store_version(a, v0 + static_cast<Ver>(k) + 1,
                            v0 + 100 + static_cast<std::uint64_t>(k));
      }
      if (store.load_version(a, 1) !=
          1000u + static_cast<std::uint64_t>(t)) {
        bad.fetch_add(1);
      }
    });
  }
  pool.run();

  EXPECT_EQ(bad.load(), 0);
  const auto rec = pool.recovery_stats();
  EXPECT_EQ(rec.giveups, 0u);
  EXPECT_GE(inj.fired(FaultSite::kBlockPool), 1u);
  EXPECT_GE(rec.retries, 1u);
  // Each retry and each giveup aborts its task exactly once.
  EXPECT_EQ(store.engine_stats().tasks_aborted, rec.retries + rec.giveups);
  for (int t = 0; t < kTasks; ++t) {
    const OAddr a = base + 8 * static_cast<OAddr>(t);
    const Ver v0 = static_cast<Ver>(t + 1) * 1000;
    for (int k = 0; k < kOps; ++k) {
      EXPECT_EQ(store.peek_version(a, v0 + static_cast<Ver>(k) + 1)
                    .value_or(0),
                v0 + 100 + static_cast<std::uint64_t>(k));
    }
  }
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;
}

TEST(ConcurrentAbort, InjectedDeadlockNamesOpVersionAddressTask) {
  ConcurrencyConfig cfg;
  cfg.track_aborts = true;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  FaultInjector inj(FaultPlan::parse("deadlock@1"));
  store.attach_fault_injector(&inj);

  store.task_created(3);
  store.task_begin(3);
  try {
    (void)store.load_version(a, 42);  // never stored: would block
    FAIL() << "injected deadlock must fire on the first blocked op";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kWouldBlock);
    const std::string msg = f.what();
    EXPECT_NE(msg.find("injected deadlock timeout"), std::string::npos) << msg;
    EXPECT_NE(msg.find("LOAD-VERSION"), std::string::npos) << msg;
    EXPECT_NE(msg.find("version 42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("address " + std::to_string(a)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("task 3"), std::string::npos) << msg;
  }
  store.abort_task(3);
  store.task_end(3);
  EXPECT_TRUE(store.check_integrity().ok);
}

TEST(ConcurrentAbort, RealDeadlockTimeoutIsConfigurable) {
  // The timeout in the fault message is ConcurrencyConfig's, proving the
  // config value actually drives the monitor (and keeping this test fast).
  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 50;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.task_created(1);
  store.task_begin(1);
  try {
    (void)store.load_version(a, 9);  // nobody will ever store it
    FAIL() << "blocked load must time out";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kWouldBlock);
    const std::string msg = f.what();
    EXPECT_NE(msg.find("still blocked after 50ms"), std::string::npos) << msg;
  }
  store.task_end(1);
}

}  // namespace
}  // namespace osim
