// osim-check tests: every checked invariant must trip on a seeded
// violation and stay silent on correct executions. Three layers:
//   * synthetic event streams fed straight into the Checker (unit tests
//     for each invariant, both the firing and the suppressing edge),
//   * whole simulations through Env with check_mode on (clean runs are
//     silent and bit-identical; OSM-level lock-discipline violations are
//     flagged even though the machine faults),
//   * the static front end over abstract op streams.
#include <gtest/gtest.h>

#include <string>

#include "analysis/checker.hpp"
#include "analysis/static_check.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "core/isa.hpp"
#include "core/ostructure_manager.hpp"
#include "runtime/env.hpp"
#include "telemetry/trace.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/opstream.hpp"

namespace osim::analysis {
namespace {

using telemetry::EventType;
using telemetry::TraceEvent;

TraceEvent ev(EventType type, CoreId core, Addr addr, Ver version,
              std::uint64_t arg, OpCode op = {}) {
  TraceEvent e;
  e.time = 0;
  e.core = core;
  e.type = type;
  e.op = op;
  e.addr = addr;
  e.version = version;
  e.arg = arg;
  return e;
}

TraceEvent isa(OpCode op, CoreId core, Ver version, Addr addr = 0) {
  return ev(EventType::kIsaOp, core, addr, version, 0, op);
}

bool has(const Checker& c, Invariant inv) {
  for (const Finding& f : c.findings()) {
    if (f.invariant == inv) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Determinacy races (vector clocks over LOAD-LATEST windows)

TEST(CheckerRace, UnorderedStoreIntoReadWindowIsARace) {
  Checker c(2);
  // Core 0, task 10: LOAD-LATEST(cap=20) observed version 5 — the window
  // (5, 20] is open.
  c.on_event(isa(OpCode::kTaskBegin, 0, 10));
  c.on_event(ev(EventType::kVersionRead, 0, 100, 5, 20, OpCode::kLoadLatest));
  // Core 1, task 12: creates version 12 inside the window with no
  // happens-before edge to the reader.
  c.on_event(isa(OpCode::kTaskBegin, 1, 12));
  c.on_event(ev(EventType::kBlockAlloc, 1, 0, 0, 3));
  c.on_event(ev(EventType::kVersionStore, 1, 100, 12, 3));
  EXPECT_TRUE(has(c, Invariant::kDeterminacyRace));
  EXPECT_FALSE(c.clean());
  const Finding& f = c.findings().back();
  EXPECT_EQ(f.invariant, Invariant::kDeterminacyRace);
  EXPECT_EQ(f.task, 12u);        // racing writer
  EXPECT_EQ(f.other_task, 10u);  // racing reader
}

TEST(CheckerRace, StoreOrderedByLockHandoffIsSilent) {
  Checker c(2);
  // Reader (core 0) locks the version it observed and releases it; the
  // writer (core 1) acquires the same lock before storing, so the release
  // -> acquire edge orders the store after the read.
  c.on_event(isa(OpCode::kTaskBegin, 0, 10));
  c.on_event(
      ev(EventType::kVersionRead, 0, 100, 5, 20, OpCode::kLockLoadLatest));
  c.on_event(ev(EventType::kLockAcquire, 0, 100, 5, 10));
  c.on_event(ev(EventType::kLockRelease, 0, 100, 5, 10));
  c.on_event(isa(OpCode::kTaskBegin, 1, 12));
  c.on_event(ev(EventType::kLockAcquire, 1, 100, 5, 12));
  c.on_event(ev(EventType::kBlockAlloc, 1, 0, 0, 3));
  c.on_event(ev(EventType::kVersionStore, 1, 100, 12, 3));
  c.on_event(ev(EventType::kLockRelease, 1, 100, 5, 12));
  EXPECT_FALSE(has(c, Invariant::kDeterminacyRace));
  EXPECT_TRUE(c.clean());
}

TEST(CheckerRace, StoreOutsideTheWindowIsSilent) {
  Checker c(2);
  c.on_event(isa(OpCode::kTaskBegin, 0, 10));
  c.on_event(ev(EventType::kVersionRead, 0, 100, 5, 20, OpCode::kLoadLatest));
  c.on_event(isa(OpCode::kTaskBegin, 1, 30));
  c.on_event(ev(EventType::kBlockAlloc, 1, 0, 0, 3));
  // Version 30 > cap 20: the reader could never have returned it.
  c.on_event(ev(EventType::kVersionStore, 1, 100, 30, 3));
  EXPECT_TRUE(c.clean());
}

TEST(CheckerRace, ExactLoadsOpenNoWindow) {
  Checker c(2);
  // LOAD-VERSION resolves exactly (version == requested): nothing racy.
  c.on_event(
      ev(EventType::kVersionRead, 0, 100, 5, 5, OpCode::kLoadVersion));
  c.on_event(ev(EventType::kBlockAlloc, 1, 0, 0, 3));
  c.on_event(ev(EventType::kVersionStore, 1, 100, 12, 3));
  EXPECT_TRUE(c.clean());
}

// ---------------------------------------------------------------------------
// Version lifecycle state machine

TEST(CheckerLifecycle, DoubleFreeFlagged) {
  Checker c(1);
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 4, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_TRUE(c.clean());  // the full legal lifecycle
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_TRUE(has(c, Invariant::kDoubleFree));
}

TEST(CheckerLifecycle, StoreAfterShadowFlagged) {
  Checker c(1);
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 4, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 5, 7));
  EXPECT_TRUE(has(c, Invariant::kStoreAfterShadow));
}

TEST(CheckerLifecycle, AllocOffTheFreeListTwiceIsCorruption) {
  Checker c(1);
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  EXPECT_TRUE(has(c, Invariant::kFreeListCorruption));
}

TEST(CheckerLifecycle, ReadAfterReclaimFlagged) {
  Checker c(1);
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 4, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  c.on_event(
      ev(EventType::kVersionRead, 0, 100, 3, 3, OpCode::kLoadVersion));
  EXPECT_TRUE(has(c, Invariant::kUseAfterReclaim));
}

TEST(CheckerLifecycle, BareRecycleDoesNotPoisonTheVersion) {
  // kBlockFreed with addr == 0 recycles a block without reclaiming any
  // (addr, version) pair — the duplicate-store fault path. Reading the
  // version that legitimately exists must stay silent.
  Checker c(1);
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 8));
  c.on_event(ev(EventType::kBlockFreed, 0, 0, 3, 8));  // bare recycle
  c.on_event(
      ev(EventType::kVersionRead, 0, 100, 3, 3, OpCode::kLoadVersion));
  EXPECT_FALSE(has(c, Invariant::kUseAfterReclaim));
}

// ---------------------------------------------------------------------------
// GC reclamation safety

TEST(CheckerGc, ReclaimUnderLiveReaderInRangeIsPremature) {
  Checker c(1);
  // Task 4 lies in [version 3, shadower 5): its LOAD-LATEST cap could still
  // name version 3 of the reclaimed block.
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 4, 0));  // task 4 unfinished
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 5, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_TRUE(has(c, Invariant::kPrematureReclaim));
}

TEST(CheckerGc, ReclaimWithLiveTaskBelowRangeIsSilent) {
  // A bounded-policy reclaim: task 2's cap resolves below version 3, so it
  // can never name the reclaimed version even though it is older than the
  // shadower — the range rule [3, 5) excludes it.
  Checker c(1);
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 2, 0));
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 5, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_FALSE(has(c, Invariant::kPrematureReclaim));
}

TEST(CheckerGc, ReclaimWithLiveTaskAboveRangeIsSilent) {
  // Task 9's cap resolves at or above shadower 5 — it reads the shadowing
  // version, never the shadowed one.
  Checker c(1);
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 9, 0));
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 5, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_FALSE(has(c, Invariant::kPrematureReclaim));
}

TEST(CheckerGc, ReclaimAfterOlderTasksFinishIsSilent) {
  Checker c(1);
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 2, 0));
  c.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 7));
  c.on_event(ev(EventType::kVersionStore, 0, 100, 3, 7));
  c.on_event(ev(EventType::kBlockShadowed, 0, 100, 5, 7));
  c.on_event(ev(EventType::kBlockPending, 0, 100, 3, 7));
  c.on_event(isa(OpCode::kTaskBegin, 0, 2));
  c.on_event(isa(OpCode::kTaskEnd, 0, 2));  // task 2 retires first
  c.on_event(ev(EventType::kBlockFreed, 0, 100, 3, 7));
  EXPECT_FALSE(has(c, Invariant::kPrematureReclaim));
  EXPECT_TRUE(c.clean());
}

// ---------------------------------------------------------------------------
// Lock discipline

TEST(CheckerLocks, ReleaseOfNeverLockedVersionFlagged) {
  Checker c(1);
  c.on_event(ev(EventType::kLockRelease, 0, 100, 5, 10));
  EXPECT_TRUE(has(c, Invariant::kUnlockWithoutLock));
}

TEST(CheckerLocks, SecondReleaseIsADoubleUnlock) {
  Checker c(1);
  c.on_event(ev(EventType::kLockAcquire, 0, 100, 5, 10));
  c.on_event(ev(EventType::kLockRelease, 0, 100, 5, 10));
  c.on_event(ev(EventType::kLockRelease, 0, 100, 5, 10));
  EXPECT_TRUE(has(c, Invariant::kDoubleUnlock));
  EXPECT_FALSE(has(c, Invariant::kUnlockWithoutLock));
}

TEST(CheckerLocks, AcquireOfHeldLockFlagged) {
  Checker c(2);
  c.on_event(ev(EventType::kLockAcquire, 0, 100, 5, 10));
  c.on_event(ev(EventType::kLockAcquire, 1, 100, 5, 12));
  EXPECT_TRUE(has(c, Invariant::kDoubleAcquire));
}

TEST(CheckerLocks, LockHeldAcrossTaskEndFlagged) {
  Checker c(1);
  c.on_event(isa(OpCode::kTaskBegin, 0, 10));
  c.on_event(ev(EventType::kLockAcquire, 0, 100, 5, 10));
  c.on_event(isa(OpCode::kTaskEnd, 0, 10));
  EXPECT_TRUE(has(c, Invariant::kLockHeldAtTaskEnd));
}

TEST(CheckerLocks, OppositeNestingOrdersAreACycleWarning) {
  Checker c(1);
  c.on_event(isa(OpCode::kTaskBegin, 0, 10));
  c.on_event(ev(EventType::kLockAcquire, 0, 1, 1, 10));
  c.on_event(ev(EventType::kLockAcquire, 0, 2, 1, 10));  // order 1 -> 2
  c.on_event(ev(EventType::kLockRelease, 0, 2, 1, 10));
  c.on_event(ev(EventType::kLockRelease, 0, 1, 1, 10));
  c.on_event(ev(EventType::kLockAcquire, 0, 2, 2, 10));
  c.on_event(ev(EventType::kLockAcquire, 0, 1, 2, 10));  // order 2 -> 1
  EXPECT_TRUE(has(c, Invariant::kLockOrderCycle));
  EXPECT_TRUE(c.clean());  // advisory: a cycle is a hazard, not a failure
  EXPECT_GT(c.warning_count(), 0u);
}

TEST(CheckerLocks, FinishFlagsLocksHeldAtEndOfRun) {
  Checker c(1);
  c.on_event(ev(EventType::kLockAcquire, 0, 100, 5, 10));
  c.finish();
  EXPECT_TRUE(has(c, Invariant::kLockHeldAtTaskEnd));
  const std::uint64_t errors = c.error_count();
  c.finish();  // idempotent
  EXPECT_EQ(c.error_count(), errors);
}

TEST(CheckerTasks, FinishWarnsAboutNeverEndedTasks) {
  Checker c(1);
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 9, 0));
  c.finish();
  EXPECT_TRUE(has(c, Invariant::kTaskPairing));
  EXPECT_TRUE(c.clean());  // warning severity
}

// ---------------------------------------------------------------------------
// Options: strict mode and the findings cap

TEST(CheckerOptionsTest, StrictPromotesWarningsToErrors) {
  CheckerOptions opt;
  opt.strict = true;
  Checker c(1, opt);
  c.on_event(ev(EventType::kTaskCreated, 0, 0, 9, 0));
  c.finish();  // never-ended task: a warning, but strict counts it
  EXPECT_GT(c.error_count(), 0u);
  EXPECT_FALSE(c.clean());
}

TEST(CheckerOptionsTest, FindingsPastTheCapAreCountedNotKept) {
  CheckerOptions opt;
  opt.max_findings = 2;
  Checker c(1, opt);
  for (int i = 0; i < 5; ++i) {
    c.on_event(ev(EventType::kLockRelease, 0, 100, Ver(50 + i), 10));
  }
  EXPECT_EQ(c.findings().size(), 2u);
  EXPECT_EQ(c.total_findings(), 5u);
  EXPECT_EQ(c.error_count(), 5u);
}

// ---------------------------------------------------------------------------
// Whole-machine integration (Env with check_mode on)

MachineConfig cfg(int cores, int check_mode) {
  MachineConfig c;
  c.num_cores = cores;
  c.ostruct.check_mode = check_mode;
  return c;
}

DsSpec small_spec() {
  DsSpec s;
  s.initial_size = 100;
  s.ops = 80;
  s.reads_per_write = 4;
  s.seed = 99;
  return s;
}

TEST(CheckerIntegration, CleanRunIsSilentAndBitIdentical) {
  const DsSpec spec = small_spec();
  Env plain(cfg(4, 0));
  const RunResult base = linked_list_versioned(plain, spec, 4);
  EXPECT_EQ(plain.checker(), nullptr);

  Env checked(cfg(4, 1));
  const RunResult r = linked_list_versioned(checked, spec, 4);
  ASSERT_NE(checked.checker(), nullptr);
  checked.checker()->finish();
  for (const Finding& f : checked.checker()->findings()) {
    ADD_FAILURE() << to_string(f);
  }
  EXPECT_EQ(checked.checker()->total_findings(), 0u);
  // Checking charges no simulated cycles: results are bit-identical.
  EXPECT_EQ(r.cycles, base.cycles);
  EXPECT_EQ(r.checksum, base.checksum);
}

TEST(CheckerIntegration, StrictCleanRunStillSilent) {
  Env env(cfg(2, 2));
  const DsSpec spec = small_spec();
  linked_list_versioned(env, spec, 2);
  ASSERT_NE(env.checker(), nullptr);
  env.checker()->finish();
  EXPECT_EQ(env.checker()->total_findings(), 0u);
  EXPECT_TRUE(env.checker()->clean());
}

TEST(CheckerIntegration, OsmDoubleUnlockFaultsAndIsFlagged) {
  Env env(cfg(1, 1));
  VersionStore& o = env.store();
  const OAddr a = o.alloc();
  env.spawn(0, [&] {
    o.store_version(a, 1, 42);
    o.lock_load_version(a, 1, 5);
    o.unlock_version(a, 1, 5);
    o.unlock_version(a, 1, 5);  // faults: not the lock owner any more
  });
  EXPECT_THROW(env.run(), SimError);
  ASSERT_NE(env.checker(), nullptr);
  EXPECT_TRUE(has(*env.checker(), Invariant::kDoubleUnlock));
}

TEST(CheckerIntegration, OsmUnlockOfNeverLockedVersionFlagged) {
  Env env(cfg(1, 1));
  VersionStore& o = env.store();
  const OAddr a = o.alloc();
  env.spawn(0, [&] {
    o.store_version(a, 1, 42);
    o.unlock_version(a, 1, 5);  // faults: version was never locked
  });
  EXPECT_THROW(env.run(), SimError);
  ASSERT_NE(env.checker(), nullptr);
  EXPECT_TRUE(has(*env.checker(), Invariant::kUnlockWithoutLock));
}

TEST(CheckerIntegration, OsmLockHeldAcrossTaskEndFlaggedWithoutFault) {
  // The hardware does not fault on this (no such rule in the ISA), which
  // is exactly why the checker exists: the lock leaks past the task.
  Env env(cfg(1, 1));
  VersionStore& o = env.store();
  const OAddr a = o.alloc();
  env.spawn(0, [&] {
    o.store_version(a, 1, 42);
    o.task_begin(5);
    o.lock_load_version(a, 1, 5);
    o.task_end(5);  // lock on (a, 1) still held
  });
  env.run();  // completes without fault
  ASSERT_NE(env.checker(), nullptr);
  EXPECT_TRUE(has(*env.checker(), Invariant::kLockHeldAtTaskEnd));
}

TEST(CheckerIntegration, OsmCleanLockedRunIsSilent) {
  Env env(cfg(1, 1));
  VersionStore& o = env.store();
  const OAddr a = o.alloc();
  env.spawn(0, [&] {
    o.store_version(a, 1, 42);
    o.task_begin(5);
    o.lock_load_version(a, 1, 5);
    o.unlock_version(a, 1, 5);
    o.task_end(5);
  });
  env.run();
  ASSERT_NE(env.checker(), nullptr);
  env.checker()->finish();
  EXPECT_EQ(env.checker()->total_findings(), 0u);
}

// ---------------------------------------------------------------------------
// Static front end

VOp vop(OpCode op, Addr addr, Ver version, TaskId task = 0, Ver cap = 0) {
  VOp v;
  v.op = op;
  v.addr = addr;
  v.version = version;
  v.cap = cap;
  v.task = task;
  return v;
}

bool shas(const std::vector<Finding>& fs, Invariant inv, Severity sev) {
  for (const Finding& f : fs) {
    if (f.invariant == inv && f.severity == sev) return true;
  }
  return false;
}

TEST(StaticCheck, WawToTheSameVersionFlagged) {
  const auto fs = static_check({
      vop(OpCode::kStoreVersion, 1, 5),
      vop(OpCode::kStoreVersion, 1, 5),
  });
  EXPECT_TRUE(shas(fs, Invariant::kWawSameVersion, Severity::kError));
}

TEST(StaticCheck, RenameToAnExistingVersionFlagged) {
  std::vector<VOp> ops{
      vop(OpCode::kStoreVersion, 1, 5),
      vop(OpCode::kLockLoadVersion, 1, 5, 7),
      vop(OpCode::kUnlockVersion, 1, 5, 7),
  };
  ops.back().rename_to = 5;  // renames onto itself
  const auto fs = static_check(ops);
  EXPECT_TRUE(shas(fs, Invariant::kWawSameVersion, Severity::kError));
}

TEST(StaticCheck, ReadOfNeverWrittenVersionIsAnError) {
  const auto fs = static_check({vop(OpCode::kLoadVersion, 1, 9)});
  EXPECT_TRUE(shas(fs, Invariant::kReadNeverWritten, Severity::kError));
}

TEST(StaticCheck, ForwardReadIsOnlyAWarning) {
  const auto fs = static_check({
      vop(OpCode::kLoadVersion, 1, 5),
      vop(OpCode::kStoreVersion, 1, 5),
  });
  EXPECT_TRUE(shas(fs, Invariant::kReadNeverWritten, Severity::kWarning));
  EXPECT_FALSE(shas(fs, Invariant::kReadNeverWritten, Severity::kError));
}

TEST(StaticCheck, UnsatisfiableLoadLatestIsAnError) {
  const auto fs = static_check({
      vop(OpCode::kStoreVersion, 1, 10),
      vop(OpCode::kLoadLatest, 1, 0, 0, /*cap=*/5),  // only v10 ever exists
  });
  EXPECT_TRUE(shas(fs, Invariant::kReadNeverWritten, Severity::kError));
}

TEST(StaticCheck, TaskPairingViolationsFlagged) {
  EXPECT_TRUE(shas(static_check({
                       vop(OpCode::kTaskBegin, 0, 2, 2),
                       vop(OpCode::kTaskBegin, 0, 2, 2),
                   }),
                   Invariant::kTaskPairing, Severity::kError));
  EXPECT_TRUE(shas(static_check({vop(OpCode::kTaskEnd, 0, 2, 2)}),
                   Invariant::kTaskPairing, Severity::kError));
  EXPECT_TRUE(shas(static_check({vop(OpCode::kTaskBegin, 0, 2, 2)}),
                   Invariant::kTaskPairing, Severity::kError));
}

TEST(StaticCheck, GeneratedRootProtocolStreamIsClean) {
  DsSpec s;
  s.initial_size = 50;
  s.ops = 120;
  s.reads_per_write = 2;
  s.seed = 7;
  const auto fs = static_check(root_protocol_stream(s));
  for (const Finding& f : fs) ADD_FAILURE() << to_string(f);
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// FileSink error reporting (the trace files the offline checker consumes)

TEST(FileSinkErrors, UnopenablePathThrows) {
  EXPECT_THROW(telemetry::FileSink("/nonexistent-dir/trace.bin"),
               std::runtime_error);
}

TEST(FileSinkErrors, FullDeviceLatchesErrorAndFlushThrows) {
  telemetry::FileSink sink("/dev/full");
  for (int i = 0; i < 4096; ++i) {  // overflow stdio buffering
    sink.on_event(ev(EventType::kBlockAlloc, 0, 0, 0, 1));
  }
  EXPECT_THROW(sink.flush(), std::runtime_error);
  EXPECT_TRUE(sink.failed());
  EXPECT_NE(sink.error().find("trace"), std::string::npos);
}

TEST(FileSinkErrors, InjectedShortWritePersistsPrefixAndLatchesOnce) {
  // An injected short write behaves like a real torn device write: half a
  // record lands on disk, the sink latches its first failure, and a reader
  // of the reopened file sees only the complete records before the tear.
  const std::string path = ::testing::TempDir() + "osim_short_write.trace";
  FaultInjector inj(FaultPlan::parse("trace-short@3"));
  {
    telemetry::FileSink sink(path);
    sink.set_fault_hook(&inj);
    for (Ver v = 1; v <= 5; ++v) {
      sink.on_event(ev(EventType::kVersionStore, 0, 8, v, 0));
    }
    EXPECT_TRUE(sink.failed());
    EXPECT_NE(sink.error().find("injected short write"), std::string::npos)
        << sink.error();
    // Only the first failure is kept, and flush keeps reporting it.
    const std::string first = sink.error();
    sink.on_event(ev(EventType::kVersionStore, 0, 8, 6, 0));
    EXPECT_EQ(sink.error(), first);
    EXPECT_THROW(sink.flush(), std::runtime_error);
  }
  // Records 1 and 2 are whole; record 3 is a truncated tail the reader
  // must stop at; 4..6 were dropped after the latch.
  const auto events = telemetry::read_trace_file(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].version, 1u);
  EXPECT_EQ(events[1].version, 2u);
  std::remove(path.c_str());
}

TEST(FileSinkErrors, InjectedEnospcLatchesWithoutTouchingTheFile) {
  const std::string path = ::testing::TempDir() + "osim_enospc.trace";
  FaultInjector inj(FaultPlan::parse("trace-enospc@2"));
  {
    telemetry::FileSink sink(path);
    sink.set_fault_hook(&inj);
    for (Ver v = 1; v <= 3; ++v) {
      sink.on_event(ev(EventType::kVersionStore, 0, 8, v, 0));
    }
    EXPECT_TRUE(sink.failed());
    EXPECT_NE(sink.error().find("record write"), std::string::npos)
        << sink.error();
    EXPECT_NE(sink.error().find("No space left on device"), std::string::npos)
        << sink.error();
    EXPECT_THROW(sink.flush(), std::runtime_error);
  }
  // Unlike the short write, ENOSPC left no partial record: the reopened
  // file holds exactly the one record written before the fault.
  const auto events = telemetry::read_trace_file(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].version, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osim::analysis
