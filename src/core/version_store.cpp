#include "core/version_store.hpp"

#include <cassert>
#include <memory>
#include <string>

#include "core/fault.hpp"

namespace osim {

VersionStore::VersionStore(const OStructConfig& cfg, int num_cores,
                           telemetry::MetricRegistry& reg,
                           TimingModel& timing)
    : cfg_(cfg),
      t_(timing),
      fp_(timing.fast_path()),
      pool_(cfg_.initial_pool_blocks),
      // Constructed at this position so the policy's gc/* metrics land at
      // the same registry index as the historical collector's (dump order
      // is part of the bit-identical contract). Only the GcOwner reference
      // escapes here; no virtual call runs during construction.
      gc_(make_gc_policy(cfg_, pool_, reg, *this)),
      cur_task_(static_cast<std::size_t>(num_cores), kNoTask),
      core_counters_(static_cast<std::size_t>(num_cores)),
      blocks_allocated_(
          reg.counter(telemetry::Component::kOsm, "blocks_allocated")),
      blocks_freed_(reg.counter(telemetry::Component::kOsm, "blocks_freed")),
      os_traps_(reg.counter(telemetry::Component::kOsm, "os_traps")),
      compressed_installs_(
          reg.counter(telemetry::Component::kOsm, "compressed_installs")),
      compressed_discards_(
          reg.counter(telemetry::Component::kOsm, "compressed_discards")),
      compress_overflows_(
          reg.counter(telemetry::Component::kOsm, "compress_overflows")),
      walk_length_(reg.histogram(telemetry::Component::kOsm, "walk_length",
                                 {1, 2, 4, 8, 16, 32, 64})),
      version_lifetime_(reg.histogram(
          telemetry::Component::kOsm, "version_lifetime_cycles",
          {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576})),
      reclaim_lag_(reg.histogram(
          telemetry::Component::kGc, "reclaim_lag_cycles",
          {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576})),
      ring_(cfg_.trace_capacity,
            telemetry::event_bit(telemetry::EventType::kIsaOp)) {
  static_assert(sizeof(PerCoreCounters) == 8 * sizeof(std::uint64_t),
                "stride below assumes a dense all-uint64 struct");
  constexpr std::size_t kStride =
      sizeof(PerCoreCounters) / sizeof(std::uint64_t);
  const PerCoreCounters* base = core_counters_.data();
  reg.counter_vec_external(telemetry::Component::kOsm, "versioned_ops",
                           &base->versioned_ops, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "root_loads",
                           &base->root_loads, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "root_stalls",
                           &base->root_stalls, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "direct_hits",
                           &base->direct_hits, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "full_lookups",
                           &base->full_lookups, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "walk_blocks",
                           &base->walk_blocks, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "stalls",
                           &base->stalls, kStride);
  reg.counter_vec_external(telemetry::Component::kOsm, "tasks_executed",
                           &base->tasks_executed, kStride);
  if (ring_.enabled()) tracer_.attach(&ring_);
  inj_.build_from_spec(cfg_.inject_spec);
  if (!cfg_.trace_path.empty()) {
    auto sink = std::make_unique<telemetry::FileSink>(cfg_.trace_path);
    file_sink_ = sink.get();
    file_sink_->set_fault_hook(inj_.get());
    tracer_.add_sink(std::move(sink));
  }
}

// ---------------------------------------------------------------------------
// Allocation

OAddr VersionStore::alloc(std::size_t slots) {
  if (slots == 0) throw OFault(FaultKind::kInvalidAddress, "zero-slot alloc");
  if (inj_.fire(FaultSite::kSlotTable)) {
    throw OFault(FaultKind::kResourceExhausted,
                 "slot-table allocation of " + std::to_string(slots) +
                     " slots refused (injected)");
  }
  auto& freed = slot_free_[static_cast<std::uint64_t>(slots)];
  std::uint64_t base;
  if (!freed.empty()) {
    base = freed.back();
    freed.pop_back();
  } else {
    base = slots_.size();
    slots_.resize(slots_.size() + slots);
  }
  for (std::uint64_t s = base; s < base + slots; ++s) {
    SlotMeta& sm = slots_[s];
    assert(!sm.allocated && sm.root == kNullBlock);
    sm.allocated = true;
  }
  return ostruct_addr(base);
}

void VersionStore::release(OAddr base, std::size_t slots) {
  // Check the whole range before moving any state: a fault leaves every
  // slot as it was.
  const std::uint64_t first = slot_of(base);
  for (std::uint64_t s = first + 1; s < first + slots; ++s) {
    slot_of(ostruct_addr(s));
  }
  for (std::uint64_t s = first; s < first + slots; ++s) {
    SlotMeta& sm = slots_[s];
    // Discard every version of the slot.
    BlockIndex b = sm.root;
    while (b != kNullBlock) {
      const BlockIndex next = pool_[b].next;
      emit_event(telemetry::EventType::kBlockFreed, ostruct_addr(s),
                 pool_[b].version, b);
      pool_.free(b);
      blocks_freed_.inc();
      b = next;
    }
    sm.root = kNullBlock;
    sm.allocated = false;
    sm.marked_root = false;
    sm.order_broken = false;
    sm.nversions = 0;
    if (charges()) {
      t_.slot_released(s);
      // Anyone still parked here violated the release precondition; wake
      // them so they fault with a clear diagnostic instead of deadlocking.
      t_.wake_slot(s);
    }
  }
  slot_free_[static_cast<std::uint64_t>(slots)].push_back(first);
}

void VersionStore::fault_conventional(Addr a) const {
  throw OFault(FaultKind::kConventionalAccessToVersionedPage,
               "slot " + std::to_string((a - kOStructBase) / 8));
}

// ---------------------------------------------------------------------------
// Operation framing

void VersionStore::emit_event_slow(telemetry::EventType type, OAddr addr,
                                   Ver version, std::uint64_t arg) {
  // Host-context emissions (release() from teardown code) carry time 0.
  const bool in_op = t_.in_op_context();
  tracer_.emit(make_trace_event(in_op ? t_.now() : 0, in_op ? t_.core() : 0,
                                type, OpCode{}, addr, version, arg));
}

void VersionStore::stall(std::uint64_t slot, int attempt, OpCode op, OAddr a,
                         Ver v) {
  if (attempt == 0) {
    PerCoreCounters& pc =
        core_counters_[static_cast<std::size_t>(cur_core())];
    pc.stalls++;
    if (slots_[slot].marked_root) pc.root_stalls++;
  }
  WaitContext w;
  w.slot = slot;
  w.op = op;
  w.addr = a;
  w.version = v;
  w.task = cur_task_[static_cast<std::size_t>(cur_core())];
  // Injection: the park times out immediately, as if the deadlock monitor
  // fired. Faults the requesting op with full context, never the run.
  if (inj_.fire(FaultSite::kDeadlock)) {
    throw OFault(FaultKind::kWouldBlock,
                 std::string("injected deadlock timeout: ") + to_string(op) +
                     " of version " + std::to_string(v) + " at address " +
                     std::to_string(a) + " by task " + std::to_string(w.task));
  }
  t_.wait_on_slot(w);
}

// ---------------------------------------------------------------------------
// Block allocation and GC plumbing

BlockIndex VersionStore::alloc_block() {
  // Injection: the pool behaves as capped and the OS refuses to grow it.
  // The op simply never happened — no state moved yet — so the engine
  // stays consistent and the runtime can back off and retry.
  if (inj_.fire(FaultSite::kBlockPool)) {
    throw OFault(FaultKind::kResourceExhausted,
                 "version-block pool exhausted and OS grow refused "
                 "(injected), free " +
                     std::to_string(pool_.free_count()));
  }
  // Pop from this core's bank of the hardware free list (one exclusive
  // access to the bank head; banks are per-core, paper Fig. 2).
  if (charges()) t_.free_list_access();
  BlockIndex b = pool_.alloc();
  if (b == kNullBlock) {
    // Free list exhausted: give the GC a chance, then trap to the OS. An
    // injected gc-delay suppresses the sweep (it runs at a later trigger).
    const bool delayed =
        inj_.fire(FaultSite::kGcDelay);
    if (!delayed && gc_->maybe_collect() && charges()) t_.gc_triggered();
    b = pool_.alloc();
    if (b == kNullBlock) {
      pool_.grow(cfg_.trap_grow_blocks);
      os_traps_.inc();
      emit_event(telemetry::EventType::kOsTrap, 0, 0, cfg_.trap_grow_blocks);
      if (charges()) t_.os_trapped();
      b = pool_.alloc();
      assert(b != kNullBlock);
    }
  }
  blocks_allocated_.inc();
  if (charges()) t_.block_allocated(b);
  emit_event(telemetry::EventType::kBlockAlloc, 0, 0, b);
  if (pool_.free_count() < cfg_.gc_watermark) {
    const bool delayed =
        inj_.fire(FaultSite::kGcDelay);
    if (!delayed && gc_->maybe_collect() && charges()) t_.gc_triggered();
  }
  return b;
}

void VersionStore::reclaim(BlockIndex b) {
  const std::uint64_t slot = pool_[b].slot;
  const Ver version = pool_[b].version;
  SlotMeta& sm = slots_[slot];
  sm.nversions--;
  list_unlink(pool_, &sm.root, b);
  if (charges()) t_.block_reclaimed(b, slot, version);
  emit_event(telemetry::EventType::kBlockFreed, ostruct_addr(slot), version,
             b);
  pool_.free(b);
  blocks_freed_.inc();
}

// ---------------------------------------------------------------------------
// The versioned ISA

std::uint64_t VersionStore::read(OpCode op, OAddr a, Ver key, TaskId locker,
                                 Ver* found) {
  const bool exact =
      op == OpCode::kLoadVersion || op == OpCode::kLockLoadVersion;
  const bool lock =
      op == OpCode::kLockLoadVersion || op == OpCode::kLockLoadLatest;
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t slot = begin_attempt(attempt, op, a, key);
    SlotMeta& sm = slots_[slot];
    const FindResult fr =
        exact ? find_exact(pool_, sm.root, key, effective_sorted(sm))
              : find_latest(pool_, sm.root, key, effective_sorted(sm));
    if (fr.found() && pool_[fr.block].locked_by == kNoTask) {
      VersionBlock& vb = pool_[fr.block];
      const std::uint64_t data = vb.data;
      const Ver got = vb.version;
      if (lock) {
        vb.locked_by = locker;  // semantic effect, atomic at this timestamp
        journal({UndoEntry::Kind::kLock, slot, got});
      }
      // Semantic point: the version is resolved (and locked) here, before
      // the charged lookup can yield to other cores, so cross-core event
      // order matches the authoritative serialization — a competing core's
      // release/acquire must not appear out of order in the event stream.
      if (tracer_.enabled()) {
        tracer_.emit(make_trace_event(t_.now(), t_.core(),
                                      telemetry::EventType::kVersionRead, op,
                                      a, got, key));
      }
      if (lock) emit_event(telemetry::EventType::kLockAcquire, a, got, locker);
      if (charges()) {
        // Locking needs exclusive access to the block's line (paper Sec.
        // III-A "Locking a version"): the lookup's final transaction is a
        // read-for-ownership, and compressed copies elsewhere are discarded.
        // A lock's probe expects the pre-lock (unlocked) state.
        t_.lookup_done(slot, fr, exact, key, /*exclusive=*/lock,
                       lock ? std::optional<TaskId>(kNoTask) : std::nullopt);
        if (lock) t_.lock_applied(slot, got, locker);
      }
      if (found != nullptr) *found = got;
      return data;
    }
    stall(slot, attempt, op, a, key);
  }
}

std::uint64_t VersionStore::load_version(OAddr a, Ver v) {
  return read(OpCode::kLoadVersion, a, v, kNoTask, nullptr);
}

std::uint64_t VersionStore::load_latest(OAddr a, Ver cap, Ver* found) {
  return read(OpCode::kLoadLatest, a, cap, kNoTask, found);
}

std::uint64_t VersionStore::lock_load_version(OAddr a, Ver v, TaskId locker) {
  return read(OpCode::kLockLoadVersion, a, v, locker, nullptr);
}

std::uint64_t VersionStore::lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                             Ver* found) {
  return read(OpCode::kLockLoadLatest, a, cap, locker, found);
}

void VersionStore::store_impl(std::uint64_t slot, Ver v, std::uint64_t data) {
  // alloc_block() charges memory accesses and may yield to other cores,
  // which can allocate slots and reallocate slots_: SlotMeta references
  // must only be taken afterwards.
  const BlockIndex nb = alloc_block();
  VersionBlock& vb = pool_[nb];
  vb.version = v;
  vb.data = data;
  vb.slot = slot;

  SlotMeta& sm = slots_[slot];
  InsertResult ir;
  try {
    ir = list_insert(pool_, &sm.root, nb, cfg_.sorted_lists);
    if (!ir.order_kept) sm.order_broken = true;
  } catch (const OFault&) {
    // Duplicate version: return the block before faulting. addr 0 marks a
    // bare recycle — no version was ever installed on it.
    emit_event(telemetry::EventType::kBlockFreed, 0, 0, nb);
    pool_.free(nb);
    blocks_allocated_.dec();
    throw;
  }
  journal({UndoEntry::Kind::kStore, slot, v, nb, pool_[nb].generation,
           ir.shadowed,
           ir.shadowed != kNullBlock ? pool_[ir.shadowed].generation : 0});

  // Snapshot everything the compressed-line update needs before any charged
  // access can yield to other cores.
  CompressedLine::Entry snap;
  snap.version = v;
  snap.data = data;
  snap.is_head = ir.at_head;
  if (cfg_.sorted_lists && ir.pred != kNullBlock) {
    snap.has_newer = true;
    snap.newer_version = pool_[ir.pred].version;
  }

  // Emit at the semantic point — the insert is authoritative here, before
  // the charged walk below can yield to other cores and interleave their
  // events ahead of this store in the stream. The GC shadow *registration*
  // stays at its original place after the charges (moving it would change
  // which phase picks the block up, i.e. simulated timing).
  emit_event(telemetry::EventType::kVersionStore, ostruct_addr(slot), v, nb);
  if (ir.shadowed != kNullBlock) {
    emit_event(telemetry::EventType::kBlockShadowed, ostruct_addr(slot),
               ir.at_head ? v : snap.newer_version, ir.shadowed);
  }

  // Note: `sm` must not be used past this point — slots_ may reallocate
  // while charged accesses yield to other cores; re-fetch via slots_[slot].
  if (charges()) t_.store_charged(slot, ir, nb);

  // GC shadow registration. An insert at the head shadows the old head with
  // the new version; a mid-list insert is itself born shadowed by its
  // immediately-newer neighbour.
  if (ir.shadowed != kNullBlock) {
    const Ver shadower = ir.at_head ? v : snap.newer_version;
    if (charges()) t_.block_shadowed(ir.shadowed);
    gc_->on_shadowed(ir.shadowed, shadower);
  }

  slots_[slot].nversions++;
  if (charges()) {
    t_.store_installed(slot, snap);
    // A new version may satisfy parked LOAD/LOCK attempts.
    t_.wake_slot(slot);
  }
  // The store is fully installed; a bounded-policy amortized sweep may run
  // now (no-op for the paper policy).
  gc_->on_store_complete();
}

void VersionStore::store_version(OAddr a, Ver v, std::uint64_t data) {
  store_impl(begin_attempt(0, OpCode::kStoreVersion, a, v), v, data);
}

void VersionStore::unlock_version(OAddr a, Ver locked_v, TaskId owner,
                                  std::optional<Ver> rename_to) {
  const std::uint64_t slot =
      begin_attempt(0, OpCode::kUnlockVersion, a, locked_v);
  SlotMeta& sm = slots_[slot];
  const FindResult fr =
      find_exact(pool_, sm.root, locked_v, effective_sorted(sm));
  if (!fr.found()) {
    throw OFault(FaultKind::kNotLockOwner,
                 "unlock of nonexistent version " + std::to_string(locked_v));
  }
  VersionBlock& vb = pool_[fr.block];
  if (vb.locked_by != owner) {
    throw OFault(FaultKind::kNotLockOwner,
                 "version " + std::to_string(locked_v) + " locked by " +
                     std::to_string(vb.locked_by) + ", unlock by " +
                     std::to_string(owner));
  }
  if (rename_to.has_value() &&
      find_exact(pool_, sm.root, *rename_to, effective_sorted(sm)).found()) {
    throw OFault(FaultKind::kRenameTargetExists, std::to_string(*rename_to));
  }

  vb.locked_by = kNoTask;
  const std::uint64_t data = vb.data;
  // Semantic point: the lock is released here; emit before the charged
  // write below yields, or a competing core's re-acquire would appear
  // before this release in the event stream.
  emit_event(telemetry::EventType::kLockRelease, a, locked_v, owner);
  if (charges()) t_.unlock_applied(slot, fr.block, locked_v);

  if (rename_to.has_value()) {
    // Renaming: materialize the same value as a new, unlocked version.
    store_impl(slot, *rename_to, data);
  } else if (charges()) {
    t_.wake_slot(slot);
  }
}

void VersionStore::task_created(TaskId t) {
  gc_->task_created(t);
  emit_event(telemetry::EventType::kTaskCreated, 0, t, 0);
}

void VersionStore::task_begin(TaskId t) {
  tick();
  if (charges()) t_.task_instr();  // the TASK-BEGIN instruction itself
  if (tracer_.enabled()) {
    tracer_.emit(make_trace_event(t_.now(), t_.core(),
                                  telemetry::EventType::kIsaOp,
                                  OpCode::kTaskBegin, 0, t, 0));
  }
  gc_->task_begin(t);
  cur_task_[static_cast<std::size_t>(cur_core())] = t;
}

void VersionStore::task_end(TaskId t) {
  tick();
  if (charges()) t_.task_instr();
  if (tracer_.enabled()) {
    tracer_.emit(make_trace_event(t_.now(), t_.core(),
                                  telemetry::EventType::kIsaOp,
                                  OpCode::kTaskEnd, 0, t, 0));
  }
  gc_->task_end(t);
  if (cfg_.track_aborts) undo_.erase(t);  // committed: nothing to roll back
  cur_task_[static_cast<std::size_t>(cur_core())] = kNoTask;
  core_counters_[static_cast<std::size_t>(cur_core())].tasks_executed++;
}

void VersionStore::abort_task(TaskId t) {
  if (!cfg_.track_aborts) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "abort_task(" + std::to_string(t) +
                     ") requires OStructConfig::track_aborts");
  }
  std::vector<UndoEntry>* j = undo_.find(t);
  UndoReplayCounts undone;
  if (j != nullptr) {
    // Newest effect first with per-entry revalidation — the shared replay
    // discipline of core/undo_journal.hpp. Nested same-slot stores restore
    // cleanly because the later version is removed before the earlier one
    // becomes head again.
    undone = replay_undo_newest_first(
        *j,
        [&](const UndoEntry& e) {
          if (!slots_[e.slot].allocated) return false;  // released wholesale
          // Remove the created version, if it still is the one we created
          // (the generation moves when a block is freed and reissued).
          VersionBlock& vb = pool_[e.block];
          if (vb.generation != e.generation || vb.slot != e.slot ||
              vb.version != e.version) {
            return false;
          }
          // Whoever locked the aborted version loses it: their later unlock
          // faults kNotLockOwner deterministically (the version is gone).
          vb.locked_by = kNoTask;
          // Purge any shadow registration of the block itself (a mid-list
          // insert is born shadowed) before the free bumps its generation.
          gc_->forget(e.block);
          reclaim(e.block);
          // The block this insert shadowed is live again: drop its GC
          // registration or a later sweep would reclaim the restored head.
          if (e.shadowed != kNullBlock) {
            VersionBlock& sb = pool_[e.shadowed];
            if (sb.generation == e.shadowed_gen &&
                (sb.state == BlockState::kShadowed ||
                 sb.state == BlockState::kPending)) {
              gc_->forget(e.shadowed);
              sb.state = BlockState::kLive;
              emit_event(telemetry::EventType::kBlockRestored,
                         ostruct_addr(e.slot), sb.version, e.shadowed);
            }
          }
          if (charges()) t_.wake_slot(e.slot);
          return true;
        },
        [&](const UndoEntry& e) {
          if (!slots_[e.slot].allocated) return false;  // released wholesale
          SlotMeta& sm = slots_[e.slot];
          const FindResult fr =
              find_exact(pool_, sm.root, e.version, effective_sorted(sm));
          // Skip locks already released (voluntarily, or with the aborted
          // version that carried them) and versions re-locked since.
          if (!fr.found() || pool_[fr.block].locked_by != t) return false;
          pool_[fr.block].locked_by = kNoTask;
          emit_event(telemetry::EventType::kLockRelease, ostruct_addr(e.slot),
                     e.version, t);
          if (charges()) t_.wake_slot(e.slot);
          return true;
        });
    undo_.erase(t);
  }
  for (TaskId& ct : cur_task_) {
    if (ct == t) ct = kNoTask;
  }
  emit_event(telemetry::EventType::kTaskAborted, 0, t, undone.blocks);
  abort_stats_.tasks_aborted++;
  abort_stats_.aborted_blocks += undone.blocks;
  abort_stats_.aborted_locks += undone.locks;
}

// ---------------------------------------------------------------------------
// Host-side inspection

std::optional<std::uint64_t> VersionStore::peek_version(OAddr a, Ver v) {
  const std::uint64_t slot = slot_of(a);
  const FindResult fr =
      find_exact(pool_, slots_[slot].root, v, effective_sorted(slots_[slot]));
  if (!fr.found()) return std::nullopt;
  return pool_[fr.block].data;
}

std::optional<Ver> VersionStore::newest_version(OAddr a) {
  const std::uint64_t slot = slot_of(a);
  BlockIndex b = slots_[slot].root;
  if (b == kNullBlock) return std::nullopt;
  if (effective_sorted(slots_[slot])) return pool_[b].version;
  Ver best = pool_[b].version;
  for (; b != kNullBlock; b = pool_[b].next) {
    best = std::max(best, pool_[b].version);
  }
  return best;
}

std::optional<TaskId> VersionStore::lock_holder(OAddr a, Ver v) {
  const std::uint64_t slot = slot_of(a);
  const FindResult fr =
      find_exact(pool_, slots_[slot].root, v, effective_sorted(slots_[slot]));
  if (!fr.found()) return std::nullopt;
  const TaskId l = pool_[fr.block].locked_by;
  return l == kNoTask ? std::nullopt : std::optional<TaskId>(l);
}

int VersionStore::version_count(OAddr a) {
  const std::uint64_t slot = slot_of(a);
  return list_length(pool_, slots_[slot].root);
}

}  // namespace osim
