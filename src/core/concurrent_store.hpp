// ConcurrentVersionStore: the thread-safe sibling of the semantic engine.
//
// The serial VersionStore (core/version_store.hpp) is single-threaded by
// contract — both the cycle-accurate machine (cooperative fibers) and the
// functional backend (inline spawn-order execution) drive it from one host
// thread, which is what keeps the timed backend bit-identical. This engine
// implements the *same versioned ISA semantics* for genuinely concurrent
// callers on real host threads:
//
//   * the slot table is lock-striped into N power-of-two shards; every
//     mutation (STORE-VERSION, LOCK-LOAD, UNLOCK) runs under its shard's
//     writer mutex,
//   * every slot carries a seqlock so LOAD-VERSION / LOAD-LATEST are
//     optimistic lock-free walks that retry on an odd or changed sequence
//     (memory-order discipline per SNIPPETS.md snippet 1,
//     cyfdecyf/mem-order/mem-record-seqlock.c — see the write-side comment
//     in concurrent_store.cpp),
//   * a blocked operation (version not yet stored, candidate locked) does a
//     bounded spin then parks on the shard's condition variable instead of
//     faulting; a store/unlock on the shard wakes it. A park that outlives
//     the deadlock timeout faults kWouldBlock with the task id and op —
//     the concurrent analogue of the functional backend's instant fault,
//   * shadowed blocks are reclaimed under the configured GcPolicy rule
//     (core/gc_policy.hpp) — the paper's fence rule (a shadowed block is
//     unreachable once every task older than its shadower has finished) or
//     the bounded-space range rule (unreachable once no unfinished task id
//     lies in [version, shadower)) — *and* an epoch-based grace period so a
//     block is never recycled while an optimistic reader may still walk
//     through it.
//
// Everything is TSan-followable: all fields shared with lock-free readers
// are std::atomic, and the seqlock's fences pair acquire/release exactly as
// snippet 1 prescribes. tools/run-sanitizers.sh runs the stress test under
// TSan.
//
// Like the serial engine this header has no "sim/..." dependencies; it
// builds on core/ and telemetry/ only. It does not implement TimingModel —
// concurrency *is* its timing model; there are no cycles to charge.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/address_map.hpp"
#include "core/engine_trace.hpp"
#include "core/fault_injection.hpp"
#include "core/isa.hpp"
#include "core/ostruct_config.hpp"
#include "core/schedule_point.hpp"
#include "core/thread_annotations.hpp"
#include "core/types.hpp"
#include "core/undo_journal.hpp"
#include "core/version_block.hpp"
#include "core/version_engine.hpp"
#include "telemetry/trace.hpp"

namespace osim {

/// Host-side tuning of the concurrent engine. Defaults favour throughput;
/// tests shrink the timeout (deadlock reports) and the reclaim threshold
/// (GC coverage).
struct ConcurrencyConfig {
  /// Lock stripes; rounded up to a power of two.
  int shards = 64;
  /// Registration slots for host threads (workers + the owning thread).
  int max_threads = 64;
  /// Total blocked time after which a parked op faults kWouldBlock — the
  /// concurrent engine's deadlock report.
  std::uint64_t deadlock_timeout_ms = 2000;
  /// Shadowed blocks per shard that trigger a reclaim pass. The default is
  /// effectively "never", matching the serial engine at test scale where
  /// checked runs must see identical event vocabularies.
  std::size_t reclaim_threshold = std::size_t{1} << 62;
  /// Reclamation policy (the GcPolicy seam, core/gc_policy.hpp). kPaper
  /// applies the fence rule (shadower <= oldest unfinished task); kBounded
  /// applies the per-block range rule (no unfinished task in
  /// [version, shadower)), which keeps the shadow registry bounded even
  /// under a reader that never finishes.
  GcPolicyKind gc_policy = GcPolicyKind::kPaper;
  /// Fault-injection spec (core/fault_injection.hpp grammar), e.g.
  /// "pool:0.01,deadlock@3,seed=7". Empty = no injector attached and every
  /// injection site is a single null-check.
  std::string inject_spec;
  /// Record a per-task undo journal so abort_task() can roll back a task's
  /// stores and locks. Costs a few words per store/lock op; only retrying
  /// runtimes want it.
  bool track_aborts = false;
};

/// The concurrent semantic engine. Implements the VersionEngine facade
/// (same ISA surface as VersionStore); threads self-register on first use
/// (bounded by max_threads).
class ConcurrentVersionStore : public VersionEngine {
 public:
  struct Stats {
    std::uint64_t ops = 0;           ///< loads + stores + lock_ops
    std::uint64_t loads = 0;         ///< LOAD-VERSION / LOAD-LATEST
    std::uint64_t stores = 0;        ///< STORE-VERSION (incl. renames)
    std::uint64_t lock_ops = 0;      ///< LOCK-LOAD / UNLOCK
    std::uint64_t seq_retries = 0;   ///< optimistic reads that re-ran
    std::uint64_t spin_waits = 0;    ///< blocked ops resolved while spinning
    std::uint64_t parks = 0;         ///< blocked ops that slept on the CV
    std::uint64_t blocks_allocated = 0;
    std::uint64_t blocks_reclaimed = 0;  ///< shadowed blocks recycled
    std::uint64_t aborts = 0;            ///< abort_task() calls
    std::uint64_t aborted_blocks = 0;    ///< versions rolled back by aborts
    std::uint64_t aborted_locks = 0;     ///< locks released by aborts
  };

  explicit ConcurrentVersionStore(const ConcurrencyConfig& cfg = {});
  ~ConcurrentVersionStore() override;

  ConcurrentVersionStore(const ConcurrentVersionStore&) = delete;
  ConcurrentVersionStore& operator=(const ConcurrentVersionStore&) = delete;

  // ---- O-structure allocation (host interface; not thread-safe against
  // concurrent ISA ops on the same slots, like the serial engine) ----
  OAddr alloc(std::size_t slots = 1) override;
  void release(OAddr base, std::size_t slots = 1) override;

  // ---- The versioned ISA (thread-safe) ----
  std::uint64_t load_version(OAddr a, Ver v) override;
  std::uint64_t load_latest(OAddr a, Ver cap, Ver* found = nullptr) override;
  void store_version(OAddr a, Ver v, std::uint64_t data) override;
  std::uint64_t lock_load_version(OAddr a, Ver v, TaskId locker) override;
  std::uint64_t lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                 Ver* found = nullptr) override;
  void unlock_version(OAddr a, Ver locked_v, TaskId owner,
                      std::optional<Ver> rename_to = std::nullopt) override;

  // ---- Task lifecycle (GC rules #1-#3; thread-safe) ----
  void task_created(TaskId t) override;
  void task_begin(TaskId t) override;
  void task_end(TaskId t) override;

  /// Roll back task `t`'s effects: its created versions are unlinked and
  /// retired (a rename run backwards) and its held locks released, each
  /// undone newest-first. Must run on the host thread that executed the
  /// task's ops (the journal is thread-local); requires
  /// ConcurrencyConfig::track_aborts. The task stays registered in the
  /// unfinished set so the runtime can retry it with a plain task_begin,
  /// or retire it with task_end. Emits kLockRelease / kBlockFreed per
  /// undone entry, then one kTaskAborted event.
  void abort_task(TaskId t) override;

 private:
  /// Checked registration shared by task_created and an implicitly-creating
  /// task_begin (task_mu_ held). Its diagnostics come from
  /// core/gc_policy.cpp, shared with the serial engine.
  void create_task_locked(TaskId t) OSIM_REQUIRES(task_mu_);

 public:

  // ---- Protection ----
  bool is_versioned_addr(Addr a) const final;
  void check_conventional(Addr a) const override;

  /// Abort every parked waiter (they fault kWouldBlock). Used by the task
  /// pool to unwind a run after a worker error.
  void request_stop();
  /// Re-arm after request_stop() so the store can run another batch.
  void reset_stop();
  /// True once request_stop() fired (retry loops check this before
  /// re-running an aborted task).
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// The injector built from ConcurrencyConfig::inject_spec, or nullptr
  /// when the spec was empty (tests inspect consulted/fired counters).
  FaultInjector* fault_injector() override { return inj_.get(); }
  /// Attach an externally owned injector (tests/tools); replaces any
  /// config-built one at every engine site. Not thread-safe: call before
  /// the worker threads start, e.g. after the host-side setup stores —
  /// which also keeps injection away from setup, where no task exists to
  /// absorb a fault by aborting.
  void attach_fault_injector(FaultInjector* inj) override { inj_.attach(inj); }

  /// Attach a tracer for lifecycle events (protocol checking). Emission is
  /// serialized on an internal mutex and reads additionally take the shard
  /// writer lock, so attached runs are slower but produce a linearized
  /// event stream the osim-check invariants understand. Call before any
  /// ISA op; `num cores` reported to the checker should be max_threads.
  void attach_tracer(telemetry::Tracer* tracer);

  /// Facade spelling of the same seam: the first call attaches (and
  /// returns) an engine-owned tracer, switching the store into
  /// linearized-trace mode — reads serialized under the shard locks — so
  /// call it only when events are wanted, before any ISA op runs.
  telemetry::Tracer& tracer() override {
    if (tracer_ == nullptr) attach_tracer(&owned_tracer_);
    return *tracer_;
  }

  /// Attach (or detach with nullptr) a schedule hook — the model-checking
  /// seam (core/schedule_point.hpp). Call before any ISA op and only while
  /// no program thread is inside the store. With no hook attached every
  /// announcement site is a single null-check (the TimingFastPath trick).
  void attach_schedule_hook(ScheduleHook* hook) { hook_ = hook; }

  /// Threads registered so far. Invariant: never exceeds
  /// ConcurrencyConfig::max_threads (osim-mc checks this after every
  /// explored schedule; the seeded ctx() overshoot bug violates it).
  int registered_threads() const {
    return nctx_.load(std::memory_order_acquire);
  }

  /// Structural audit of every allocated slot's version chain, under the
  /// shard locks: no cycles, versions strictly descending (newest first),
  /// nversions consistent with the walked length. Quiescent or
  /// hook-scheduled callers only. osim-mc runs this after every explored
  /// schedule — the seeded alloc-after-walk bug shows up here as a chain
  /// self-loop or a lost version.
  struct IntegrityReport {
    bool ok = true;
    std::string detail;  ///< first violation, empty when ok
  };
  IntegrityReport check_integrity();

  // ---- Host-side inspection (takes shard locks; any thread) ----
  std::optional<std::uint64_t> peek_version(OAddr a, Ver v) override;
  std::optional<Ver> newest_version(OAddr a) override;
  std::optional<TaskId> lock_holder(OAddr a, Ver v) override;
  int version_count(OAddr a) override;
  /// All live versions of a slot, newest first (stress-test comparisons).
  std::vector<std::pair<Ver, std::uint64_t>> slot_versions(OAddr a);

  Stats stats() const;
  /// Facade-level abort accounting (same fields as the serial engine).
  EngineStats engine_stats() const override {
    const Stats s = stats();
    EngineStats es;
    es.tasks_aborted = s.aborts;
    es.aborted_blocks = s.aborted_blocks;
    es.aborted_locks = s.aborted_locks;
    return es;
  }
  const ConcurrencyConfig& config() const { return cfg_; }

 private:
  // ---- Geometry ----
  // Blocks and slots live in chunked tables whose chunk pointers are
  // atomic: growth appends chunks and publishes the pointer, so readers
  // never observe a reallocation (unlike std::vector growth).
  static constexpr std::uint32_t kBlockChunkBits = 10;  // 1024 blocks/chunk
  static constexpr std::uint32_t kBlockChunkSize = 1u << kBlockChunkBits;
  static constexpr std::uint32_t kMaxBlockChunks = 4096;  // 4M blocks/shard
  static constexpr std::uint64_t kSlotChunkBits = 12;  // 4096 slots/chunk
  static constexpr std::uint64_t kSlotChunkSize = 1ull << kSlotChunkBits;
  static constexpr std::uint64_t kMaxSlotChunks = 4096;  // 16M slots
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

  /// One version block. Every field is atomic because lock-free readers
  /// walk the chain while a (serialized) writer mutates it; the seqlock
  /// validation makes torn *combinations* impossible, atomics make each
  /// individual access data-race-free (what TSan checks).
  struct CBlock {
    std::atomic<std::uint32_t> next{kNil};
    std::atomic<Ver> version{0};
    std::atomic<std::uint64_t> data{0};
    std::atomic<TaskId> locked_by{kNoTask};
  };

  /// One O-structure slot, padded to a cache line so Zipfian-hot neighbours
  /// don't false-share their seqlock sequence words.
  struct alignas(64) CSlot {
    std::atomic<std::uint32_t> seq{0};   ///< seqlock: odd = write in flight
    std::atomic<std::uint32_t> head{kNil};
    std::atomic<std::uint32_t> nversions{0};
    std::atomic<std::uint8_t> allocated{0};
  };

  struct Retired {
    std::uint32_t block;
    std::uint64_t epoch;  ///< global epoch when the block was unlinked
  };
  struct Shadowed {
    std::uint32_t block;
    Ver version;   ///< the shadowed version the block holds (bounded policy)
    Ver shadower;
    std::uint64_t slot;  ///< owning slot, for the unlink at reclaim time
  };

  struct alignas(64) Shard {
    Mutex writer_mu;
    // Block pool (chunks appended under writer_mu; pointers atomic for the
    // readers that chase `next` through them).
    std::array<std::atomic<CBlock*>, kMaxBlockChunks> chunk{};
    std::atomic<std::uint32_t> nchunks{0};
    std::uint32_t next_fresh OSIM_GUARDED_BY(writer_mu) = 0;  // bump cursor
    std::vector<std::uint32_t> free_list OSIM_GUARDED_BY(writer_mu);
    std::vector<Shadowed> shadowed OSIM_GUARDED_BY(writer_mu);
    std::vector<Retired> limbo OSIM_GUARDED_BY(writer_mu);
    // Incremented under writer_mu; atomic so stats() may read it without
    // the lock.
    std::atomic<std::uint64_t> reclaimed{0};
    // Dense trace-wide block ids for checker runs (local ids repeat across
    // shards; the lifecycle checker needs one id space). Lazy, writer_mu.
    std::vector<std::uint32_t> trace_ids OSIM_GUARDED_BY(writer_mu);
    // Park/wake for blocked ops (plain std::mutex: condition_variable
    // needs one, and no guarded state lives under it).
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<std::uint32_t> nwaiters{0};
  };

  // The rollback-journal record and replay discipline are shared with the
  // serial engine (core/undo_journal.hpp). This engine names the undone
  // object by (slot, version), not block index: block indices recycle
  // through limbo, but a version value is unique within its slot for the
  // block's whole linked lifetime — so the generation fields stay
  // defaulted and revalidation is the chain walk under the shard lock.

  /// Per-registered-thread state, cache-line padded: the epoch pin is read
  /// by reclaimers, the counters, task id and journal are owner-only.
  struct alignas(64) ThreadCtx {
    std::atomic<std::uint64_t> epoch{kIdleEpoch};  ///< kIdleEpoch = not reading
    TaskId cur_task = kNoTask;
    Stats local;
    std::vector<UndoEntry> undo;  ///< rollback journal (track_aborts)
  };

  // ---- Thread registration ----
  ThreadCtx& ctx();

  /// Append to the current task's rollback journal; no-op unless
  /// track_aborts is set and a task is bound to this thread.
  void journal(ThreadCtx& c, UndoEntry::Kind kind, std::uint64_t slot,
               Ver v) {
    if (!undo_active(cfg_.track_aborts, c.cur_task)) return;
    c.undo.push_back({kind, slot, v});
  }

  // ---- Layout helpers ----
  Shard& shard_of(std::uint64_t slot) { return shards_[slot & shard_mask_]; }
  std::uint64_t shard_index(const Shard& sh) const {
    return static_cast<std::uint64_t>(&sh - shards_.get());
  }
  static CBlock& block(Shard& sh, std::uint32_t idx) {
    return sh.chunk[idx >> kBlockChunkBits].load(std::memory_order_acquire)
        [idx & (kBlockChunkSize - 1)];
  }
  CSlot* slot_ptr(std::uint64_t slot) const;
  std::uint64_t slot_of(OAddr a) const;  // faults on unversioned addresses

  /// A versioned address's slot and shard (slot_of faults on the rest).
  struct SlotRef {
    std::uint64_t slot;
    CSlot& sl;
    Shard& sh;
  };
  SlotRef locate(OAddr a) {
    const std::uint64_t slot = slot_of(a);
    return {slot, *slot_ptr(slot), shard_of(slot)};
  }

  // ---- The op prologue ----
  /// A slot op's operands, resolved once by begin_op and passed down.
  struct OpSite : SlotRef {
    ThreadCtx& c;
    OpCode op;
    OAddr a;
  };
  /// Finds the calling thread's context (one binding-list scan), counts the
  /// op in `kind` (faulting ops too), resolves the slot (faulting on an
  /// unversioned address) and emits the kIsaOp event when tracing.
  OpSite begin_op(std::uint64_t Stats::*kind, OpCode op, OAddr a, Ver v);

  // ---- Epoch-based reclamation ----
  struct EpochPin;  // RAII pin defined in the .cpp
  std::uint64_t min_active_epoch() const;

  // ---- Block pool (writer_mu held) ----
  std::uint32_t alloc_block(ThreadCtx& c, Shard& sh)
      OSIM_REQUIRES(sh.writer_mu);
  void maybe_reclaim(ThreadCtx& c, Shard& sh) OSIM_REQUIRES(sh.writer_mu);

  // ---- Reads ----
  struct ReadOutcome {
    bool ok = false;        ///< unlocked candidate found
    std::uint32_t seq = 0;  ///< slot sequence observed when !ok
    Ver got = 0;
    std::uint64_t data = 0;
  };
  /// One consistent optimistic walk (seqlock read + epoch pin); under the
  /// shard writer lock when tracing.
  ReadOutcome try_read(const OpSite& o, bool exact, Ver key);
  /// Shared LOAD-VERSION / LOAD-LATEST driver.
  std::uint64_t load_common(OAddr a, bool exact, Ver key, Ver* found,
                            OpCode op);
  /// Shared LOCK-LOAD driver (lock taken under the shard writer lock).
  std::uint64_t lock_load_common(OAddr a, bool exact, Ver key, TaskId locker,
                                 Ver* found, OpCode op);

  // ---- Blocking ----
  /// Wait until the op's slot sequence moves past `seq_seen`; spin first,
  /// then park. Throws OFault(kWouldBlock) after the deadlock timeout or
  /// when request_stop() fires.
  void wait_change(const OpSite& o, std::uint32_t seq_seen, Ver v);
  void wake(Shard& sh);

  // ---- Serialized store/unlock internals (writer_mu held) ----
  /// Where `key` falls in a slot's newest-first chain: `cur` is the first
  /// block whose version is <= key (kNil past the tail), `pred` the block
  /// before it (kNil at the head), and `exact` says cur holds key itself.
  struct Seek {
    std::uint32_t pred = kNil;
    std::uint32_t cur = kNil;
    bool exact = false;
  };
  /// The one locked chain lookup: relaxed loads are exact under writer_mu,
  /// and the walk stops at the key, so it costs the versions above it.
  Seek seek(Shard& sh, const CSlot& sl, Ver key) OSIM_REQUIRES(sh.writer_mu);
  /// The one seqlock write window (RAII, defined in the .cpp with the one
  /// chain splice), and the one lock release, for UNLOCK and abort.
  class WriteWindow;
  void release_lock(ThreadCtx& c, CSlot& sl, CBlock& cb, OAddr a,
                    TaskId owner);
  void store_locked(const OpSite& o, Ver v, std::uint64_t data)
      OSIM_REQUIRES(o.sh.writer_mu);
  std::uint32_t trace_id(Shard& sh, std::uint32_t b)
      OSIM_REQUIRES(sh.writer_mu);

  // ---- Schedule-hook plumbing (model checking) ----
  /// Shard writer lock that routes through the schedule hook: modeled
  /// acquisition first (the hook grants the mutex), then the real —
  /// guaranteed uncontended — lock. Hookless builds reduce to a null check
  /// around std::mutex::lock.
  class OSIM_SCOPED_CAPABILITY ShardLock {
   public:
    ShardLock(ConcurrentVersionStore& s, Shard& sh) OSIM_ACQUIRE(sh.writer_mu);
    ~ShardLock() OSIM_RELEASE();

    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;

   private:
    ConcurrentVersionStore& s_;
    Shard& sh_;
  };

  /// Bookkeeping/decision announcement; single branch with no hook.
  void sched_point(SchedKind k, std::uint64_t obj) {
    if (hook_ != nullptr) hook_->point({k, obj});
  }

  // ---- Tracing (trace_mu_ held inside) ----
  bool tracing() const { return tracer_ != nullptr; }
  void emit(const ThreadCtx& c, telemetry::EventType type, OpCode op,
            OAddr addr, Ver version, std::uint64_t arg);

  ConcurrencyConfig cfg_;
  std::uint64_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
  int nshards_ = 0;

  // Slot table.
  std::array<std::atomic<CSlot*>, kMaxSlotChunks> slot_chunk_{};
  std::atomic<std::uint64_t> slot_count_{0};
  std::mutex alloc_mu_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> slot_free_;

  // Thread registry.
  std::unique_ptr<ThreadCtx[]> ctxs_;
  std::atomic<int> nctx_{0};
  const std::uint64_t serial_;  ///< distinguishes stores in thread-local maps

  // Reclamation epoch.
  std::atomic<std::uint64_t> global_epoch_{1};

  // Task tracker (GC fence). task_begin/end are rare next to ISA ops, so a
  // small mutex-protected map with a lock-free mirror of the floor is fine.
  Mutex task_mu_;
  /// created/begun, not yet ended
  std::map<TaskId, int> unfinished_ OSIM_GUARDED_BY(task_mu_);
  TaskId max_task_ OSIM_GUARDED_BY(task_mu_) = kNoTask;
  std::atomic<TaskId> task_floor_{0};  ///< all tasks < floor have finished
  /// Mirror of the serial GC floor: once blocks shadowed by version f are
  /// reclaimed, creating a task with id <= f-1 faults (it could legally
  /// name a reclaimed version).
  std::atomic<TaskId> gc_floor_{0};

  std::atomic<bool> stop_{false};

  telemetry::Tracer* tracer_ = nullptr;
  /// Backing storage for the facade's tracer() accessor; unused (and
  /// cost-free) until that accessor attaches it.
  telemetry::Tracer owned_tracer_;
  std::mutex trace_mu_;
  std::uint64_t trace_clock_ = 0;  // trace_mu_
  std::atomic<std::uint32_t> next_trace_block_{0};

  /// Model-checking seam; null in production (see attach_schedule_hook).
  ScheduleHook* hook_ = nullptr;

  /// Fault-injection seam (core/fault_injection.hpp), built from
  /// cfg_.inject_spec in the constructor; detached (the common case) makes
  /// every site one null-check.
  FaultShim inj_;
};

}  // namespace osim
