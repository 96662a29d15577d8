#include "workloads/opstream.hpp"

#include "core/isa.hpp"
#include "workloads/runner.hpp"

namespace osim {

namespace {
/// Abstract address of the root ticket in the lowered stream. Static
/// checking runs before allocation, so the address is symbolic.
constexpr Addr kAbstractRoot = 1;
}  // namespace

std::vector<analysis::VOp> root_protocol_stream(const DsSpec& spec) {
  const std::vector<Op> ops = generate_ops(spec);
  const std::vector<Ver> prev = prev_mutator_versions(ops);
  std::vector<analysis::VOp> stream;
  stream.reserve(ops.size() * 4 + 1);

  auto push = [&](OpCode op, Ver version, Ver cap, TaskId task,
                  std::optional<Ver> rename_to = std::nullopt) {
    analysis::VOp v;
    v.op = op;
    v.addr = kAbstractRoot;
    v.version = version;
    v.cap = cap;
    v.task = task;
    v.rename_to = rename_to;
    stream.push_back(v);
  };

  // Unmeasured setup publishes the initial ticket.
  push(OpCode::kStoreVersion, kSetupVersion, 0, 0);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TaskId t = kFirstTaskId + i;
    const bool mutator =
        ops[i].kind == OpKind::kInsert || ops[i].kind == OpKind::kDelete;
    push(OpCode::kTaskBegin, t, 0, t);
    if (mutator) {
      push(OpCode::kLockLoadVersion, prev[i], 0, t);
      push(OpCode::kUnlockVersion, prev[i], 0, t, Ver{t});
    } else {
      push(OpCode::kLoadVersion, prev[i], 0, t);
    }
    push(OpCode::kTaskEnd, t, 0, t);
  }
  return stream;
}

namespace {

/// Concurrency config shared by the litmus programs: few shards so slot i
/// maps to shard i, and one registration slot for the driver thread on top
/// of the program threads.
ConcurrencyConfig mc_cfg(int shards, int program_threads) {
  ConcurrencyConfig cfg;
  cfg.shards = shards;
  cfg.max_threads = program_threads + 1;
  return cfg;
}

analysis::McOp mc_store(std::uint64_t slot, Ver v) {
  analysis::McOp op;
  op.op = OpCode::kStoreVersion;
  op.slot = slot;
  op.version = v;
  return op;
}

analysis::McOp mc_load(std::uint64_t slot, Ver v) {
  analysis::McOp op;
  op.op = OpCode::kLoadVersion;
  op.slot = slot;
  op.version = v;
  return op;
}

analysis::McOp mc_lock(std::uint64_t slot, Ver v, TaskId locker) {
  analysis::McOp op;
  op.op = OpCode::kLockLoadVersion;
  op.slot = slot;
  op.version = v;
  op.task = locker;
  return op;
}

analysis::McOp mc_unlock(std::uint64_t slot, Ver v, TaskId owner,
                         std::optional<Ver> rename = std::nullopt) {
  analysis::McOp op;
  op.op = OpCode::kUnlockVersion;
  op.slot = slot;
  op.version = v;
  op.task = owner;
  op.rename_to = rename;
  return op;
}

analysis::McOp mc_task(OpCode which, TaskId t) {
  analysis::McOp op;
  op.op = which;
  op.task = t;
  return op;
}

}  // namespace

std::vector<analysis::McProgram> mc_litmus_programs() {
  std::vector<analysis::McProgram> progs;

  {
    // Message passing in both directions through exact versions. Every
    // read names a version stored exactly once, so each of the two loads
    // that cross threads blocks until its writer has run and all
    // schedules agree with the serial oracle.
    analysis::McProgram p;
    p.name = "mp2";
    p.summary = "2 threads x 3 ops, cross-thread exact-version reads";
    p.nslots = 2;
    p.cfg = mc_cfg(/*shards=*/2, /*program_threads=*/2);
    p.threads = {
        {mc_store(0, 2), mc_store(1, 2), mc_load(1, 3)},
        {mc_store(1, 3), mc_load(0, 2), mc_load(1, 2)},
    };
    progs.push_back(std::move(p));
  }

  {
    // Lock handoff: thread 0 lock-loads the setup version and renames it;
    // thread 1 waits for the renamed version, then locks and releases it.
    // Exercises kWake/kBlocked ordering and the unlock-rename store path.
    analysis::McProgram p;
    p.name = "lock_handoff";
    p.summary = "lock-load + rename handoff between two tasks";
    p.nslots = 1;
    p.cfg = mc_cfg(/*shards=*/1, /*program_threads=*/2);
    p.setup = {mc_store(0, 1)};
    p.threads = {
        {mc_lock(0, 1, /*locker=*/2), mc_unlock(0, 1, 2, Ver{5})},
        {mc_load(0, 5), mc_lock(0, 5, /*locker=*/3), mc_unlock(0, 5, 3)},
    };
    progs.push_back(std::move(p));
  }

  {
    // Three threads on three disjoint slots (distinct shards): every
    // cross-thread pair of transitions commutes, so sleep sets collapse
    // the factorially many interleavings to a handful — the reduction
    // showcase for EXPERIMENTS.md.
    analysis::McProgram p;
    p.name = "wide3";
    p.summary = "3 threads on disjoint slots (maximal independence)";
    p.nslots = 3;
    p.cfg = mc_cfg(/*shards=*/4, /*program_threads=*/3);
    p.threads = {
        {mc_store(0, 2), mc_load(0, 2)},
        {mc_store(1, 2), mc_load(1, 2)},
        {mc_store(2, 2), mc_load(2, 2)},
    };
    progs.push_back(std::move(p));
  }

  {
    // The PR-6 reclaim-vs-insert window. reclaim_threshold = 1 arms the
    // collector on every allocation; storing 2 then 5 shadows version 2
    // under shadower 5, and once task 7 has finished (the floor rises to
    // 8, past the shadower), the paper fence lets the third store's
    // allocation retire block(v2) mid-operation. The correct engine
    // allocates before walking, so the insert position is computed after
    // the retirement; the seeded build (OSIM_MC_SEEDED_BUG=1) walks
    // first and corrupts the chain in exactly the schedules where the
    // task ops land between the second and third store.
    analysis::McProgram p;
    p.name = "gc_fence";
    p.summary = "reclaim during store under the paper GC fence";
    p.nslots = 1;
    p.cfg = mc_cfg(/*shards=*/1, /*program_threads=*/2);
    p.cfg.reclaim_threshold = 1;
    p.cfg.gc_policy = GcPolicyKind::kPaper;
    p.gc_active = true;
    p.compare_final_state = false;  // reclamation timing legally varies
    p.threads = {
        {mc_store(0, 2), mc_store(0, 5), mc_store(0, 3)},
        {mc_task(OpCode::kTaskBegin, 7), mc_task(OpCode::kTaskEnd, 7)},
    };
    progs.push_back(std::move(p));
  }

  {
    // Three threads against max_threads = 2 (no driver headroom: the
    // setup-free program keeps the driver unregistered). The correct
    // engine rejects the third registration with nctx_ still at the
    // bound; the seeded build (OSIM_MC_SEEDED_BUG=2) overshoots, which
    // every schedule's registered_threads() audit flags. Which thread
    // loses depends on the schedule, so per-op outcomes are not compared.
    analysis::McProgram p;
    p.name = "ctx_bound";
    p.summary = "thread registration at the max_threads bound";
    p.nslots = 3;
    p.cfg = mc_cfg(/*shards=*/4, /*program_threads=*/3);
    p.cfg.max_threads = 2;
    p.use_oracle = false;
    p.compare_final_state = false;
    p.expect_engine_errors = true;
    p.threads = {
        {mc_store(0, 2)},
        {mc_store(1, 2)},
        {mc_store(2, 2)},
    };
    progs.push_back(std::move(p));
  }

  {
    // Both threads load versions nothing ever stores: every schedule ends
    // with the scheduler's deterministic deadlock cascade (lowest tid
    // faults first), matching the oracle's no-progress rule.
    analysis::McProgram p;
    p.name = "deadlock_pair";
    p.summary = "guaranteed deadlock: loads of never-stored versions";
    p.nslots = 2;
    p.cfg = mc_cfg(/*shards=*/2, /*program_threads=*/2);
    p.threads = {
        {mc_load(0, 9)},
        {mc_load(1, 9)},
    };
    progs.push_back(std::move(p));
  }

  return progs;
}

const analysis::McProgram* find_mc_litmus(const std::string& name) {
  static const std::vector<analysis::McProgram> progs = mc_litmus_programs();
  for (const analysis::McProgram& p : progs) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::size_t static_check_workload(Env& env, const DsSpec& spec) {
  analysis::Checker* checker = env.checker();
  if (checker == nullptr) return 0;
  std::vector<analysis::Finding> findings =
      analysis::static_check(root_protocol_stream(spec), checker->options());
  for (analysis::Finding& f : findings) checker->add(std::move(f));
  return findings.size();
}

}  // namespace osim
