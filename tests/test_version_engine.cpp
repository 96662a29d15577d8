// VersionEngine conformance suite: ONE scripted op stream, executed purely
// through the facade by execute() (engine_exec.hpp), across the full
// engine matrix
//   {serial timed, serial functional, concurrent}
//     x {--gc=paper, --gc=bounded}
//     x {--inject "" (detached), --inject none (attached-but-inert)}
// Every cell must produce byte-equal observables: the Results record
// (reads, found, fault multiset), its checksum, and the final
// latest-version map read back through the same facade. Only clocks may
// differ. Concurrent cells carry "Concurrent" in the suite name so the
// sanitizer harness can select them (tools/run-sanitizers.sh).
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_store.hpp"
#include "core/version_engine.hpp"
#include "engine_exec.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/env.hpp"

namespace osim {
namespace {

using Op = VersionEngine::Op;

constexpr std::size_t kSlots = 4;
constexpr Ver kCap = 1000;  // above every version the program publishes

Op store(Addr a, Ver v, std::uint64_t d) {
  Op o;
  o.op = OpCode::kStoreVersion;
  o.addr = a;
  o.version = v;
  o.data = d;
  return o;
}
Op load(Addr a, Ver v) {
  Op o;
  o.op = OpCode::kLoadVersion;
  o.addr = a;
  o.version = v;
  return o;
}
Op latest(Addr a, Ver cap) {
  Op o;
  o.op = OpCode::kLoadLatest;
  o.addr = a;
  o.cap = cap;
  return o;
}
Op lock(Addr a, Ver v, TaskId t) {
  Op o;
  o.op = OpCode::kLockLoadVersion;
  o.addr = a;
  o.version = v;
  o.task = t;
  return o;
}
Op lock_latest(Addr a, Ver cap, TaskId t) {
  Op o;
  o.op = OpCode::kLockLoadLatest;
  o.addr = a;
  o.cap = cap;
  o.task = t;
  return o;
}
Op unlock(Addr a, Ver v, TaskId t, std::optional<Ver> rename = {}) {
  Op o;
  o.op = OpCode::kUnlockVersion;
  o.addr = a;
  o.version = v;
  o.task = t;
  o.rename_to = rename;
  return o;
}
Op begin(TaskId t) {
  Op o;
  o.op = OpCode::kTaskBegin;
  o.task = t;
  return o;
}
Op end(TaskId t) {
  Op o;
  o.op = OpCode::kTaskEnd;
  o.task = t;
  return o;
}

// The scripted stream. Strictly sequential (single driver thread), every
// exact load targets an already-published version, so no op ever blocks
// and the observable outcome is engine-independent by construction. Task 3
// commits three deliberate faults — duplicate store, versioned op outside
// the allocation, unlock by a non-owner — which execute() records and
// skips (catch-per-op-and-continue).
std::vector<Op> conformance_program(OAddr base) {
  auto slot = [base](std::size_t s) {
    return base + 8 * static_cast<OAddr>(s);
  };
  return {
      begin(1),
      store(slot(0), 1, 101),
      store(slot(1), 1, 102),
      store(slot(2), 1, 103),
      end(1),

      begin(2),
      load(slot(0), 1),              // 101
      latest(slot(1), kCap),         // 102, found 1
      store(slot(0), 2, 201),        // shadows version 1
      lock(slot(1), 1, 2),           // 102
      unlock(slot(1), 1, 2, Ver{7}), // rename: version 7 aliases the block
      load(slot(1), 7),              // 102
      lock_latest(slot(0), kCap, 2), // 201, found 2
      unlock(slot(0), 2, 2),
      end(2),

      begin(3),
      store(slot(2), 3, 301),
      store(slot(2), 3, 999),                      // fault: duplicate
      load(base + 8 * (kSlots + 100), 1),          // fault: not versioned
      unlock(slot(0), 2, 3),                       // fault: not lock owner
      latest(slot(2), kCap),                       // 301, found 3
      end(3),
  };
}

struct RunOut {
  Results res;
  /// newest version + its value per slot, read back through the facade.
  std::vector<std::pair<std::optional<Ver>, std::optional<std::uint64_t>>>
      latest;

  bool operator==(const RunOut& o) const {
    return res == o.res && res.checksum() == o.res.checksum() &&
           latest == o.latest;
  }
};

RunOut run_conformance(VersionEngine& eng) {
  const OAddr base = eng.alloc(kSlots);
  for (TaskId t = 1; t <= 3; ++t) eng.task_created(t);
  const std::vector<Op> prog = conformance_program(base);
  RunOut out;
  // Two batches, split mid-stream: Results must accumulate across calls
  // exactly as one big batch would (fault indices are per-batch, which is
  // identical on every engine since the split point is).
  const std::size_t half = prog.size() / 2;
  execute(eng, std::span<const Op>(prog.data(), half), out.res);
  execute(eng, std::span<const Op>(prog.data() + half, prog.size() - half),
          out.res);
  for (std::size_t s = 0; s < kSlots; ++s) {
    const OAddr a = base + 8 * static_cast<OAddr>(s);
    const std::optional<Ver> newest = eng.newest_version(a);
    std::optional<std::uint64_t> val;
    if (newest.has_value()) val = eng.peek_version(a, *newest);
    out.latest.emplace_back(newest, val);
  }
  return out;
}

RunOut run_serial(BackendKind backend, GcPolicyKind gc,
                  const std::string& inject) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  cfg.backend = backend;
  cfg.ostruct.gc_policy = gc;
  cfg.ostruct.inject_spec = inject;
  Env env(cfg);
  RunOut out;
  if (env.timed()) {
    // The cycle-accurate machine charges ops to the running core's fiber,
    // so the program executes inside one spawned core-0 fiber (nothing in
    // the stream blocks, so a single fiber always runs to completion).
    env.spawn(0, [&] { out = run_conformance(env.engine()); });
    env.run();
  } else {
    out = run_conformance(env.engine());
  }
  return out;
}

RunOut run_concurrent(GcPolicyKind gc, const std::string& inject) {
  ConcurrencyConfig cfg;
  cfg.gc_policy = gc;
  cfg.inject_spec = inject;
  ConcurrentVersionStore store(cfg);
  return run_conformance(store);
}

/// The reference cell every other cell is diffed against.
RunOut reference() {
  return run_serial(BackendKind::kTimed, GcPolicyKind::kPaper, "");
}

std::string cell_name(const char* engine, GcPolicyKind gc,
                      const std::string& inject) {
  return std::string(engine) + " gc=" + to_string(gc) + " inject=" +
         (inject.empty() ? "<detached>" : inject);
}

TEST(VersionEngineConformance, ReferenceObservablesAreTheScriptedOnes) {
  // Pin the reference itself so a matrix-wide regression cannot pass as
  // twelve cells agreeing on the same wrong answer.
  const RunOut ref = reference();
  // In stream order: load s0@1, latest s1, lock s1@1, load s1@7,
  // lock-latest s0, latest s2.
  const std::vector<std::uint64_t> reads = {101, 102, 102, 102, 201, 301};
  EXPECT_EQ(ref.res.reads, reads);
  const std::vector<Ver> found = {1, 2, 3};
  EXPECT_EQ(ref.res.found, found);
  ASSERT_EQ(ref.res.faults.size(), 3u);
  EXPECT_EQ(ref.res.executed,
            conformance_program(0).size() - ref.res.faults.size());
  ASSERT_EQ(ref.latest.size(), kSlots);
  EXPECT_EQ(ref.latest[0].first.value_or(0), 2u);   // shadowed 1 -> 2
  EXPECT_EQ(ref.latest[0].second.value_or(0), 201u);
  EXPECT_EQ(ref.latest[1].first.value_or(0), 7u);   // renamed 1 -> 7
  EXPECT_EQ(ref.latest[1].second.value_or(0), 102u);
  EXPECT_EQ(ref.latest[2].first.value_or(0), 3u);
  EXPECT_EQ(ref.latest[2].second.value_or(0), 301u);
  EXPECT_FALSE(ref.latest[3].first.has_value());    // never stored
}

TEST(VersionEngineConformance, SerialMatrixIsByteIdentical) {
  const RunOut ref = reference();
  for (const BackendKind b : {BackendKind::kTimed, BackendKind::kFunctional}) {
    for (const GcPolicyKind gc :
         {GcPolicyKind::kPaper, GcPolicyKind::kBounded}) {
      for (const std::string inject : {"", "none"}) {
        const RunOut got = run_serial(b, gc, inject);
        EXPECT_TRUE(got == ref)
            << cell_name(to_string(b), gc, inject)
            << " diverged from the serial-timed/paper/detached reference";
        EXPECT_EQ(got.res.checksum(), ref.res.checksum());
      }
    }
  }
}

TEST(VersionEngineConformanceConcurrent, MatrixMatchesSerialTimed) {
  const RunOut ref = reference();
  for (const GcPolicyKind gc :
       {GcPolicyKind::kPaper, GcPolicyKind::kBounded}) {
    for (const std::string inject : {"", "none"}) {
      const RunOut got = run_concurrent(gc, inject);
      EXPECT_TRUE(got == ref)
          << cell_name("concurrent", gc, inject)
          << " diverged from the serial-timed/paper/detached reference";
      EXPECT_EQ(got.res.checksum(), ref.res.checksum());
    }
  }
}

TEST(VersionEngineConformanceConcurrent, ThreadedBatchesStayDeterminate) {
  // Real host threads (the TSan target): each pool task runs its whole
  // body as ONE execute() batch against a private slot plus a shared
  // read-only setup version. Determinate by construction, so every
  // Results record has a script-determined value.
  ConcurrencyConfig cfg;
  ConcurrentVersionStore cstore(cfg);
  constexpr int kTasks = 12;
  const OAddr base = cstore.alloc(kTasks + 1);
  const OAddr shared = base;
  cstore.store_version(shared, 1, 777);  // host-side setup

  ConcurrentTaskPool pool(cstore, 4);
  std::vector<Results> res(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    const TaskId tid = static_cast<TaskId>(t + 1);
    const OAddr own = base + 8 * static_cast<OAddr>(t + 1);
    pool.create_task(tid, [&cstore, &res, t, tid, own, shared](TaskId) {
      const std::vector<Op> ops = {
          store(own, static_cast<Ver>(tid),
                2000 + static_cast<std::uint64_t>(t)),
          load(own, static_cast<Ver>(tid)),
          load(shared, 1),
      };
      execute(cstore, ops, res[static_cast<std::size_t>(t)]);
    });
  }
  pool.run();

  for (int t = 0; t < kTasks; ++t) {
    const auto& r = res[static_cast<std::size_t>(t)];
    EXPECT_TRUE(r.faults.empty()) << "task " << t + 1;
    EXPECT_EQ(r.executed, 3u);
    const std::vector<std::uint64_t> want = {
        2000 + static_cast<std::uint64_t>(t), 777};
    EXPECT_EQ(r.reads, want);
  }
  EXPECT_TRUE(cstore.check_integrity().ok) << cstore.check_integrity().detail;
}

}  // namespace
}  // namespace osim
