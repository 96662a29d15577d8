// VersionStore: the semantic engine of the O-structure architecture
// (paper Sec. III), independent of any machine model.
//
// The engine owns everything that defines what the versioned ISA *does*:
// the version lists and their block pool, the hardware free list, lock
// bits, waiter semantics, protection faults, and the 3-list GC lifecycle
// (live -> shadowed -> pending -> free). Every operation's semantic effect
// (which version is read, which block is locked, where an insert lands) is
// decided and applied atomically at the operation's start, against the
// authoritative version lists.
//
// What the engine does *not* know is what any of it costs. Each semantic
// step is reported through a TimingModel (core/timing_model.hpp) at exactly
// the point where the cost is incurred; the cycle-accurate backend
// (core/ostructure_manager.hpp) turns those reports into cache-hierarchy
// traffic and fiber scheduling, while the functional backend
// (runtime/functional.hpp) executes them at host speed. A timing hook may
// yield to other operations, so the engine re-fetches its own state after
// every charged call — the discipline that makes the timed backend
// bit-identical to the historical interleaved implementation.
//
// This header has no "sim/..." dependencies, transitively: it builds on
// core/ and telemetry/ only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/address_map.hpp"
#include "core/compressed_line.hpp"
#include "core/engine_trace.hpp"
#include "core/fault_injection.hpp"
#include "core/flat_map.hpp"
#include "core/gc_policy.hpp"
#include "core/isa.hpp"
#include "core/ostruct_config.hpp"
#include "core/timing_model.hpp"
#include "core/types.hpp"
#include "core/undo_journal.hpp"
#include "core/version_block.hpp"
#include "core/version_engine.hpp"
#include "core/version_list.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace osim {

/// The serial semantic engine, behind the VersionEngine facade. Final, so
/// calls through a VersionStore reference (versioned<T>, via Env::store())
/// bind directly rather than through the vtable.
class VersionStore final : public VersionEngine, private GcOwner {
 public:
  /// Per-core operation counters, packed so one versioned op touches a
  /// single cache line of counter state (an op bumps 2-4 of these), and
  /// aligned to a cache line so adjacent cores' counters never share one —
  /// the single-threaded backends mask false sharing, but the concurrent
  /// engine (core/concurrent_store.hpp) and any host-parallel driver bump
  /// these from real threads. Registered with the registry as
  /// external-storage counter vectors; timing models bump the lookup-path
  /// fields through counters().
  struct alignas(64) PerCoreCounters {
    std::uint64_t versioned_ops = 0, root_loads = 0, root_stalls = 0;
    std::uint64_t direct_hits = 0, full_lookups = 0, walk_blocks = 0;
    std::uint64_t stalls = 0, tasks_executed = 0;
  };
  static_assert(sizeof(PerCoreCounters) == 64,
                "one cache line exactly: 8 dense uint64 counters, no pad");
  static_assert(alignof(PerCoreCounters) == 64,
                "cache-line aligned so per-core lines never false-share");

  /// Registers the engine's metrics in `reg` (which must outlive it) and
  /// reports all charged effects through `timing` (likewise).
  VersionStore(const OStructConfig& cfg, int num_cores,
               telemetry::MetricRegistry& reg, TimingModel& timing);

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  // ---- O-structure allocation (the OS/runtime interface) ----

  /// Allocate `slots` contiguous O-structure slots; their pages get the
  /// versioned bit. Returns the address of the first slot.
  OAddr alloc(std::size_t slots = 1) override;

  /// Convert the slots back to conventional memory. All their versions are
  /// discarded. The caller must guarantee no unfinished task touches them
  /// (paper Sec. III-C); parked waiters are woken and will fault.
  void release(OAddr base, std::size_t slots = 1) override;

  /// Mark slot `a` as a data structure's root: from now until release(),
  /// every op on it counts in root_loads and every first stall in
  /// root_stalls (the root-stall statistics of Sec. IV-D).
  void mark_root(OAddr a) { slots_[slot_of(a)].marked_root = true; }

  // ---- The versioned ISA ----

  /// LOAD-VERSION: value of exactly version `v`; blocks until it exists and
  /// is unlocked (locks on *other* versions are ignored).
  std::uint64_t load_version(OAddr a, Ver v) override;

  /// LOAD-LATEST: value of the highest version <= `cap`; blocks while no
  /// such version exists or the candidate is locked. The version actually
  /// read is reported through `found` if non-null.
  std::uint64_t load_latest(OAddr a, Ver cap, Ver* found = nullptr) override;

  /// STORE-VERSION: create version `v` holding `data`. Faults if `v`
  /// already exists (versions are immutable once created).
  void store_version(OAddr a, Ver v, std::uint64_t data) override;

  /// LOCK-LOAD-VERSION: LOAD-VERSION + lock; blocks while locked by others.
  std::uint64_t lock_load_version(OAddr a, Ver v, TaskId locker) override;

  /// LOCK-LOAD-LATEST: LOAD-LATEST + lock of the version that was read.
  std::uint64_t lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                 Ver* found = nullptr) override;

  /// UNLOCK-VERSION: release `locked_v` (held by `owner`), optionally
  /// renaming: creating unlocked version `rename_to` with the same value.
  void unlock_version(OAddr a, Ver locked_v, TaskId owner,
                      std::optional<Ver> rename_to = std::nullopt) override;

  /// Task creation announcement (GC rule #3 check point). Host-context
  /// safe; charges nothing — creation belongs to the spawning program.
  void task_created(TaskId t) override;
  /// TASK-BEGIN / TASK-END: GC progress reports (rules #2-#3).
  void task_begin(TaskId t) override;
  void task_end(TaskId t) override;

  /// Roll back everything task `t` did since it began: its created
  /// versions are unlinked and freed (the renaming machinery run
  /// backwards, newest first) and its held locks released, with the GC
  /// policy told to forget any shadow registration the rollback restores.
  /// The task stays unfinished — the caller either retries it
  /// (task_begin) or retires it (task_end). Requires
  /// OStructConfig::track_aborts; host-context safe, charges no cycles.
  /// Emits kTaskAborted after the per-block/lock events.
  void abort_task(TaskId t) override;

  // ---- Protection ----
  // Inline: the conventional check runs on every ld()/st() a workload
  // issues, which is most of what the functional backend executes.

  /// True if `a` falls on an allocated O-structure slot.
  bool is_versioned_addr(Addr a) const override {
    if (a < kOStructBase || (a - kOStructBase) % 8 != 0) return false;
    const std::uint64_t slot = (a - kOStructBase) / 8;
    return slot < slots_.size() && slots_[slot].allocated;
  }
  /// Fault check for conventional loads/stores (versioned-bit protection).
  void check_conventional(Addr a) const override {
    if (is_versioned_addr(a)) fault_conventional(a);
  }

  // ---- Host-side inspection (no timing; tests and tools) ----
  std::optional<std::uint64_t> peek_version(OAddr a, Ver v) override;
  std::optional<Ver> newest_version(OAddr a) override;
  std::optional<TaskId> lock_holder(OAddr a, Ver v) override;
  int version_count(OAddr a) override;

  /// The reclamation policy behind the GcPolicy seam (selected by
  /// OStructConfig::gc_policy; core/gc_policy.hpp).
  GcPolicy& gc() { return *gc_; }
  BlockPool& pool() { return pool_; }
  const BlockPool& pool() const { return pool_; }
  const OStructConfig& config() const { return cfg_; }
  /// Architectural ring trace of the last N versioned operations (enabled
  /// via OStructConfig::trace_capacity; ISA-op events only).
  const telemetry::RingSink& trace() const { return ring_; }
  /// Event-trace dispatcher: attach extra sinks (lifecycle analysis, tests)
  /// before running; all version-lifecycle events flow through it.
  telemetry::Tracer& tracer() override { return tracer_; }

  /// The fault injector driving this engine's injection sites, or null
  /// when detached (OStructConfig::inject_spec empty). Null costs one
  /// branch per site — the SchedulePoint discipline.
  FaultInjector* fault_injector() override { return inj_.get(); }
  /// Attach an externally owned injector (tests); replaces any
  /// config-built one at the engine sites and the trace file sink.
  void attach_fault_injector(FaultInjector* inj) override {
    inj_.attach(inj);
    if (file_sink_ != nullptr) file_sink_->set_fault_hook(inj);
  }
  /// Facade-level abort accounting (same fields as the concurrent engine).
  EngineStats engine_stats() const override { return abort_stats_; }

  // ---- State the timing layer reads while charging ----
  // A charged hook may run while the semantic state has already moved on
  // (that is the point: semantics commit first); these accessors expose the
  // *current* authoritative state for bounded re-walks and cache updates.

  /// Head of `slot`'s version list right now (kNullBlock when empty).
  BlockIndex root_of(std::uint64_t slot) const { return slots_[slot].root; }
  /// Live version count of `slot` right now.
  int nversions(std::uint64_t slot) const { return slots_[slot].nversions; }
  /// This core's packed counter line (timing models bump the lookup stats).
  PerCoreCounters& counters(CoreId core) {
    return core_counters_[static_cast<std::size_t>(core)];
  }
  /// Distribution handles the timing layer observes into (registered here
  /// so the registry's dump order is independent of the backend).
  telemetry::Histogram& walk_length_hist() { return walk_length_; }
  telemetry::Histogram& version_lifetime_hist() { return version_lifetime_; }
  telemetry::Histogram& reclaim_lag_hist() { return reclaim_lag_; }
  telemetry::Counter& compressed_installs_counter() {
    return compressed_installs_;
  }
  telemetry::Counter& compressed_discards_counter() {
    return compressed_discards_;
  }
  telemetry::Counter& compress_overflows_counter() {
    return compress_overflows_;
  }

 private:
  struct SlotMeta {
    BlockIndex root = kNullBlock;
    bool allocated = false;
    bool marked_root = false;  ///< set by mark_root(), cleared by release()
    /// Live version count; steers the compressed/uncompressed choice (the
    /// paper's caches "can store both compressed and uncompressed versions
    /// of an O-structure at the same time" — packing into a compressed
    /// line only pays once a slot holds more than one version).
    int nversions = 0;
    /// Unsorted mode: set once an out-of-order insert breaks the de-facto
    /// descending order; until then lookups may still early-terminate.
    bool order_broken = false;
  };

  /// Whether lookups on this slot may use sorted-order early termination.
  bool effective_sorted(const SlotMeta& sm) const {
    return cfg_.sorted_lists || !sm.order_broken;
  }

  /// Resolve an O-structure address to its allocated slot; faults on
  /// anything outside the versioned region. Inline: one call per ISA op.
  std::uint64_t slot_of(OAddr a) const {
    if (a < kOStructBase || (a - kOStructBase) % 8 != 0) fault_unversioned(a);
    const std::uint64_t slot = (a - kOStructBase) / 8;
    if (slot >= slots_.size() || !slots_[slot].allocated) {
      fault_unversioned(a);
    }
    return slot;
  }

  /// True when cost hooks must be dispatched (no TimingFastPath). The
  /// functional backend's hooks are all no-ops; skipping their virtual
  /// calls is what keeps that backend at host speed.
  bool charges() const { return fp_ == nullptr; }
  /// Devirtualized op_serialize() / core() for fast-path models.
  void tick() {
    if (fp_ != nullptr) {
      ++fp_->clock;
    } else {
      t_.op_serialize();
    }
  }
  CoreId cur_core() const { return fp_ != nullptr ? fp_->core : t_.core(); }

  [[noreturn]] void fault_conventional(Addr a) const;

  /// Per-attempt preamble: global ordering, stats, the architectural trace
  /// (recorded at first issue only) and injected latency; then resolves
  /// `a` to its slot, which it returns, and counts a first attempt on a
  /// root slot. Inline: runs once per versioned op on both backends.
  std::uint64_t begin_attempt(int attempt, OpCode op, OAddr a, Ver v) {
    tick();
    PerCoreCounters* pc = nullptr;
    if (attempt == 0) {
      const CoreId core = cur_core();
      pc = &core_counters_[static_cast<std::size_t>(core)];
      pc->versioned_ops++;
      if (tracer_.enabled()) {
        tracer_.emit(make_trace_event(t_.now(), core,
                                      telemetry::EventType::kIsaOp, op, a, v,
                                      0));
      }
    }
    if (cfg_.injected_latency != 0) t_.op_overhead();
    const std::uint64_t slot = slot_of(a);
    if (pc != nullptr && slots_[slot].marked_root) pc->root_loads++;
    return slot;
  }
  /// First-stall accounting, then park on the slot's wait list. `op`, `a`
  /// and `v` describe the blocked operation for the backend's would-block
  /// report (the functional backend faults with them).
  void stall(std::uint64_t slot, int attempt, OpCode op, OAddr a, Ver v);

  /// The one loop behind LOAD-VERSION, LOAD-LATEST and their LOCK-LOAD
  /// forms, `op`: an exact (*-VERSION) or latest (*-LATEST) lookup of
  /// `key`, and for a LOCK-LOAD a lock for `locker` on the version read.
  std::uint64_t read(OpCode op, OAddr a, Ver key, TaskId locker, Ver* found);

  /// Allocate a version block, growing the pool via the OS trap if needed
  /// and kicking the GC at the watermark. Charges free-list access.
  BlockIndex alloc_block();
  /// Unlink block `b` from its slot, report it to the timing layer and
  /// free it: the GC's reclaim callback, and abort_task's store undo.
  void reclaim(BlockIndex b);

  // ---- GcOwner (the engine-side half of the GcPolicy seam) ----
  void gc_reclaim(BlockIndex b) override { reclaim(b); }
  void gc_event(telemetry::EventType type, std::uint64_t slot, Ver v,
                std::uint64_t arg) override {
    // kBlockPending names the block's owning slot; phase boundaries carry
    // no address.
    const OAddr a =
        type == telemetry::EventType::kBlockPending ? ostruct_addr(slot) : 0;
    emit_event(type, a, v, arg);
  }

  /// Emit a lifecycle event stamped with the running core's time (host
  /// context emits time 0 / core 0). One inlined branch when tracing is
  /// off; the build/dispatch cost lives out of line.
  void emit_event(telemetry::EventType type, OAddr addr, Ver version,
                  std::uint64_t arg) {
    if (tracer_.enabled()) emit_event_slow(type, addr, version, arg);
  }
  void emit_event_slow(telemetry::EventType type, OAddr addr, Ver version,
                       std::uint64_t arg);

  /// Shared implementation of STORE-VERSION and the renaming half of
  /// UNLOCK-VERSION (assumes begin_attempt already ran).
  void store_impl(std::uint64_t slot, Ver v, std::uint64_t data);

  /// Journal a store/lock for the task running on the current core, when
  /// track_aborts is on and a task is running. Inline cheap-exit. The
  /// record type and replay discipline are shared with the concurrent
  /// engine (core/undo_journal.hpp); this engine fills the block-identity
  /// fields because its pool recycles indices.
  void journal(UndoEntry e) {
    if (!cfg_.track_aborts) return;
    const TaskId t = cur_task_[static_cast<std::size_t>(cur_core())];
    if (!undo_active(cfg_.track_aborts, t)) return;
    undo_[t].push_back(e);
  }

  OStructConfig cfg_;
  TimingModel& t_;
  TimingFastPath* fp_;  ///< non-null iff t_ is a pure no-cost model
  BlockPool pool_;
  std::unique_ptr<GcPolicy> gc_;
  std::vector<SlotMeta> slots_;
  /// Released slot runs, keyed by run length, for reuse by alloc().
  FlatMap<std::uint64_t, std::vector<std::uint64_t>> slot_free_;
  /// Task currently running on each core (TASK-BEGIN..TASK-END), for the
  /// WaitContext of a blocked op; kNoTask outside any task.
  std::vector<TaskId> cur_task_;
  /// Rollback journals, per unfinished task (track_aborts only).
  FlatMap<TaskId, std::vector<UndoEntry>> undo_;
  /// Fault-injection seam (core/fault_injection.hpp): owns the
  /// config-built injector, detached = one null-check per site.
  FaultShim inj_;
  telemetry::FileSink* file_sink_ = nullptr;  ///< borrowed from tracer_
  /// Abort accounting behind engine_stats(); plain fields, never registry
  /// counters, so the timed backend's metric dump stays bit-identical.
  EngineStats abort_stats_;

  // ---- Telemetry ----
  std::vector<PerCoreCounters> core_counters_;  ///< fixed; registry reads it
  // Machine-wide counters.
  telemetry::Counter blocks_allocated_, blocks_freed_, os_traps_;
  telemetry::Counter compressed_installs_, compressed_discards_;
  telemetry::Counter compress_overflows_;
  // Distributions (observed off the hot path: walks, reclaims).
  telemetry::Histogram walk_length_;       ///< blocks touched per full lookup
  telemetry::Histogram version_lifetime_;  ///< alloc -> reclaim, cycles
  telemetry::Histogram reclaim_lag_;       ///< shadowed -> reclaim, cycles
  /// Event fan-out; the config-driven ring and file sinks attach here.
  telemetry::Tracer tracer_;
  telemetry::RingSink ring_;  ///< ISA-op ring (OStructConfig::trace_capacity)
};

}  // namespace osim
