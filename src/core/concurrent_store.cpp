#include "core/concurrent_store.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fault.hpp"
#include "core/gc_policy.hpp"

namespace osim {

namespace {

/// Thread-local registration: one ctx id per (thread, store) pair. Stores
/// are distinguished by a process-unique serial, never by address (a new
/// store may reuse a destroyed one's address).
struct TlsBinding {
  std::uint64_t serial;
  int id;
};
thread_local std::vector<TlsBinding> t_bindings;
std::atomic<std::uint64_t> g_store_serial{1};

/// Optimistic spins on a blocked op before it parks on the shard CV.
constexpr int kSpinIters = 128;
/// One timed park slice; bounds the staleness of a missed wakeup (the wake
/// fast path reads the waiter count relaxed, see wake()).
constexpr std::chrono::microseconds kParkSlice{200};
/// Optimistic walk bound; exceeding it forces a seqlock retry (belt and
/// braces against a transiently inconsistent chain).
constexpr std::size_t kWalkLimit = std::size_t{1} << 20;

}  // namespace

ConcurrentVersionStore::ConcurrentVersionStore(const ConcurrencyConfig& cfg)
    : cfg_(cfg), serial_(g_store_serial.fetch_add(1)) {
  int n = 1;
  while (n < cfg_.shards) n <<= 1;
  nshards_ = n;
  shard_mask_ = static_cast<std::uint64_t>(n - 1);
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(n));
  if (cfg_.max_threads < 1) cfg_.max_threads = 1;
  ctxs_ = std::make_unique<ThreadCtx[]>(
      static_cast<std::size_t>(cfg_.max_threads));
  inj_.build_from_spec(cfg_.inject_spec);
}

ConcurrentVersionStore::~ConcurrentVersionStore() {
  for (int i = 0; i < nshards_; ++i) {
    Shard& sh = shards_[i];
    const std::uint32_t nc = sh.nchunks.load(std::memory_order_relaxed);
    for (std::uint32_t c = 0; c < nc; ++c) {
      delete[] sh.chunk[c].load(std::memory_order_relaxed);
    }
  }
  const std::uint64_t slots = slot_count_.load(std::memory_order_relaxed);
  const std::uint64_t nchunks =
      (slots + kSlotChunkSize - 1) >> kSlotChunkBits;
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    delete[] slot_chunk_[c].load(std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Thread registration and epochs

ConcurrentVersionStore::ThreadCtx& ConcurrentVersionStore::ctx() {
  for (const TlsBinding& b : t_bindings) {
    if (b.serial == serial_) return ctxs_[static_cast<std::size_t>(b.id)];
  }
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 2
  // Seeded PR-6 review bug (model-checking regression fixture, see
  // tests/test_explore_seeded.cpp): the original registration checked the
  // bound only after fetch_add, so a rejected thread still left nctx_
  // above max_threads and min_active_epoch()/stats() iterated past the
  // end of ctxs_. osim-mc flags it as a registered_threads() bound
  // violation on every schedule of the ctx_bound litmus.
  const int id = nctx_.fetch_add(1, std::memory_order_acq_rel);
#else
  // Bounded CAS: nctx_ must never exceed max_threads even transiently —
  // min_active_epoch() and stats() iterate ctxs_[0..nctx_), so an
  // over-incremented count would send them past the end of the array.
  int id = nctx_.load(std::memory_order_relaxed);
  while (id < cfg_.max_threads &&
         !nctx_.compare_exchange_weak(id, id + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
  }
#endif
  if (id >= cfg_.max_threads) {
    throw std::runtime_error(
        "ConcurrentVersionStore: thread registrations exceed "
        "ConcurrencyConfig::max_threads (" +
        std::to_string(cfg_.max_threads) + ")");
  }
  t_bindings.push_back({serial_, id});
  return ctxs_[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------------
// Schedule-hook plumbing

ConcurrentVersionStore::ShardLock::ShardLock(ConcurrentVersionStore& s,
                                             Shard& sh)
    : s_(s), sh_(sh) {
  // Modeled acquisition first: the hook returns only once this thread has
  // been granted the (modeled) mutex, so the real lock below never
  // contends under a hook. Hookless: one null-check.
  if (s.hook_ != nullptr) {
    s.hook_->mutex_acquire({SchedKind::kShardAcquire, s.shard_index(sh)});
  }
  sh.writer_mu.lock();
}

ConcurrentVersionStore::ShardLock::~ShardLock() {
  sh_.writer_mu.unlock();
  if (s_.hook_ != nullptr) {
    s_.hook_->mutex_release({SchedKind::kShardRelease, s_.shard_index(sh_)});
  }
}

/// RAII epoch pin for an optimistic walk. The store-then-confirm loop makes
/// the pin "sticky": once the loop exits, any reclaimer that later advances
/// the global epoch is guaranteed to observe this pin (both sides use
/// seq_cst, so pin-store and epoch-read cannot pass each other) and will
/// not recycle a block retired at an epoch <= the pinned one. Parked
/// waiters drop their pin first — a blocked reader must not block
/// reclamation.
struct ConcurrentVersionStore::EpochPin {
  ThreadCtx& c;
  EpochPin(const ConcurrentVersionStore& s, ThreadCtx& tc) : c(tc) {
    std::uint64_t e;
    do {
      e = s.global_epoch_.load(std::memory_order_seq_cst);
      c.epoch.store(e, std::memory_order_seq_cst);
    } while (s.global_epoch_.load(std::memory_order_seq_cst) != e);
  }
  ~EpochPin() { c.epoch.store(kIdleEpoch, std::memory_order_release); }
};

std::uint64_t ConcurrentVersionStore::min_active_epoch() const {
  std::uint64_t m = kIdleEpoch;
  const int n = nctx_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    m = std::min(m, ctxs_[i].epoch.load(std::memory_order_seq_cst));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Seqlock write side

/// The one seqlock write window, following snippet 1's discipline. The
/// snippet's point about barrier placement: the release fence must sit
/// *between* the odd sequence store and the data writes ("the barrier
/// should be added right after the actual write"), so that any reader that
/// observes a data write also observes the odd sequence when it re-checks —
/// without the fence a link-in could become visible before the odd sequence
/// and a reader would validate a torn walk. The closing store is itself a
/// release so the whole window is ordered before any subsequent even
/// sequence a reader can see.
class ConcurrentVersionStore::WriteWindow {
 public:
  explicit WriteWindow(CSlot& sl)
      : sl_(sl), sq_(sl.seq.load(std::memory_order_relaxed)) {
    sl_.seq.store(sq_ + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~WriteWindow() { sl_.seq.store(sq_ + 2, std::memory_order_release); }

  WriteWindow(const WriteWindow&) = delete;
  WriteWindow& operator=(const WriteWindow&) = delete;

  /// The one chain splice: point the link after `pred` (the slot head when
  /// pred is kNil) at `to`, and move the version count by `delta` — +1
  /// links a new block in (store), -1 links one out (reclaim, abort).
  void splice(Shard& sh, std::uint32_t pred, std::uint32_t to, int delta) {
    if (pred == kNil) {
      sl_.head.store(to, std::memory_order_relaxed);
    } else {
      block(sh, pred).next.store(to, std::memory_order_relaxed);
    }
    sl_.nversions.fetch_add(static_cast<std::uint32_t>(delta),  // modular
                            std::memory_order_relaxed);
  }

 private:
  CSlot& sl_;
  const std::uint32_t sq_;
};

// The sequence change is what parked waiters wake on.
void ConcurrentVersionStore::release_lock(ThreadCtx& c, CSlot& sl, CBlock& cb,
                                          OAddr a, TaskId owner) {
  {
    WriteWindow w(sl);
    cb.locked_by.store(kNoTask, std::memory_order_relaxed);
  }
  if (tracing()) {
    emit(c, telemetry::EventType::kLockRelease, OpCode{}, a,
         cb.version.load(std::memory_order_relaxed), owner);
  }
}

// ---------------------------------------------------------------------------
// Slot table

ConcurrentVersionStore::CSlot* ConcurrentVersionStore::slot_ptr(
    std::uint64_t slot) const {
  if (slot >= slot_count_.load(std::memory_order_acquire)) return nullptr;
  CSlot* chunk =
      slot_chunk_[slot >> kSlotChunkBits].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk[slot & (kSlotChunkSize - 1)];
}

std::uint64_t ConcurrentVersionStore::slot_of(OAddr a) const {
  if (!is_versioned_addr(a)) fault_unversioned(a);
  return (a - kOStructBase) / 8;
}

ConcurrentVersionStore::OpSite ConcurrentVersionStore::begin_op(
    std::uint64_t Stats::*kind, OpCode op, OAddr a, Ver v) {
  ThreadCtx& c = ctx();
  ++(c.local.*kind);
  const OpSite o{locate(a), c, op, a};
  if (tracing()) emit(c, telemetry::EventType::kIsaOp, op, a, v, 0);
  return o;
}

bool ConcurrentVersionStore::is_versioned_addr(Addr a) const {
  if (a < kOStructBase || (a - kOStructBase) % 8 != 0) return false;
  const CSlot* sp = slot_ptr((a - kOStructBase) / 8);
  return sp != nullptr && sp->allocated.load(std::memory_order_acquire) != 0;
}

void ConcurrentVersionStore::check_conventional(Addr a) const {
  if (is_versioned_addr(a)) {
    throw OFault(FaultKind::kConventionalAccessToVersionedPage,
                 "slot " + std::to_string((a - kOStructBase) / 8));
  }
}

OAddr ConcurrentVersionStore::alloc(std::size_t slots) {
  if (slots == 0) throw OFault(FaultKind::kInvalidAddress, "zero-slot alloc");
  if (inj_.fire(FaultSite::kSlotTable)) {
    throw OFault(FaultKind::kResourceExhausted,
                 "slot-table allocation of " + std::to_string(slots) +
                     " slots refused (injected)");
  }
  std::lock_guard<std::mutex> g(alloc_mu_);
  auto& freed = slot_free_[static_cast<std::uint64_t>(slots)];
  std::uint64_t base;
  if (!freed.empty()) {
    base = freed.back();
    freed.pop_back();
  } else {
    base = slot_count_.load(std::memory_order_relaxed);
  }
  const std::uint64_t end = base + slots;
  if (end > kMaxSlotChunks * kSlotChunkSize) {
    throw OFault(FaultKind::kResourceExhausted,
                 "slot table exhausted: alloc of " + std::to_string(slots) +
                     " slots at base slot " + std::to_string(base) +
                     " would exceed the " +
                     std::to_string(kMaxSlotChunks * kSlotChunkSize) +
                     "-slot capacity");
  }
  for (std::uint64_t c = base >> kSlotChunkBits; c <= (end - 1) >> kSlotChunkBits;
       ++c) {
    if (slot_chunk_[c].load(std::memory_order_relaxed) == nullptr) {
      slot_chunk_[c].store(new CSlot[kSlotChunkSize],
                           std::memory_order_release);
    }
  }
  for (std::uint64_t s = base; s < end; ++s) {
    CSlot& sl = slot_chunk_[s >> kSlotChunkBits].load(
        std::memory_order_relaxed)[s & (kSlotChunkSize - 1)];
    assert(sl.head.load(std::memory_order_relaxed) == kNil);
    sl.allocated.store(1, std::memory_order_release);
  }
  if (end > slot_count_.load(std::memory_order_relaxed)) {
    slot_count_.store(end, std::memory_order_release);
  }
  return ostruct_addr(base);
}

void ConcurrentVersionStore::release(OAddr base, std::size_t slots) {
  // Check the whole range before moving any state: a fault leaves every
  // slot as it was.
  const std::uint64_t first = slot_of(base);
  for (std::uint64_t s = first + 1; s < first + slots; ++s) {
    slot_of(ostruct_addr(s));
  }
  for (std::uint64_t s = first; s < first + slots; ++s) {
    CSlot& sl = *slot_ptr(s);
    Shard& sh = shard_of(s);
    {
      ShardLock g(*this, sh);
      const std::uint64_t epoch = global_epoch_.load(std::memory_order_relaxed);
      std::uint32_t b;
      {
        // Empty the chain and clear the versioned bit in one atomic-looking
        // step (readers racing with release retry, then fault on the
        // cleared bit).
        WriteWindow w(sl);
        b = sl.head.load(std::memory_order_relaxed);
        sl.head.store(kNil, std::memory_order_relaxed);
        sl.nversions.store(0, std::memory_order_relaxed);
        sl.allocated.store(0, std::memory_order_relaxed);
      }
      while (b != kNil) {
        CBlock& cb = block(sh, b);
        if (tracing()) {
          emit(ctx(), telemetry::EventType::kBlockFreed, OpCode{},
               ostruct_addr(s), cb.version.load(std::memory_order_relaxed),
               trace_id(sh, b));
        }
        const std::uint32_t nx = cb.next.load(std::memory_order_relaxed);
        sh.limbo.push_back({b, epoch});
        b = nx;
      }
      // Shadow-registry entries for this slot point into the chain just
      // retired; drop them so a later reclaim pass does not retire twice.
      sh.shadowed.erase(
          std::remove_if(sh.shadowed.begin(), sh.shadowed.end(),
                         [s](const Shadowed& x) { return x.slot == s; }),
          sh.shadowed.end());
    }
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
    sched_point(SchedKind::kEpochAdvance, 0);
    // Parked waiters re-check and fault on the cleared versioned bit.
    wake(sh);
  }
  std::lock_guard<std::mutex> g(alloc_mu_);
  slot_free_[static_cast<std::uint64_t>(slots)].push_back(first);
}

// ---------------------------------------------------------------------------
// Locked chain lookup

ConcurrentVersionStore::Seek ConcurrentVersionStore::seek(Shard& sh,
                                                          const CSlot& sl,
                                                          Ver key) {
  // Chains are strictly descending (check_integrity and osim-mc audit it),
  // so the first version <= key ends the walk. try_read keeps its own walk:
  // it runs without the lock and needs acquire loads and kWalkLimit.
  Seek at;
  for (at.cur = sl.head.load(std::memory_order_relaxed); at.cur != kNil;) {
    const CBlock& cb = block(sh, at.cur);
    const Ver v = cb.version.load(std::memory_order_relaxed);
    if (v <= key) {
      at.exact = v == key;
      break;
    }
    at.pred = at.cur;
    at.cur = cb.next.load(std::memory_order_relaxed);
  }
  return at;
}

// ---------------------------------------------------------------------------
// Block pool and reclamation

std::uint32_t ConcurrentVersionStore::trace_id(Shard& sh, std::uint32_t b) {
  if (sh.trace_ids.size() <= b) sh.trace_ids.resize(b + 1, kNil);
  if (sh.trace_ids[b] == kNil) {
    sh.trace_ids[b] = next_trace_block_.fetch_add(1, std::memory_order_relaxed);
  }
  return sh.trace_ids[b];
}

std::uint32_t ConcurrentVersionStore::alloc_block(ThreadCtx& c, Shard& sh) {
  if (inj_.fire(FaultSite::kBlockPool)) {
    throw OFault(FaultKind::kResourceExhausted,
                 "shard " + std::to_string(shard_index(sh)) +
                     " block pool exhausted (injected) during store by task " +
                     std::to_string(c.cur_task));
  }
  if (sh.shadowed.size() >= cfg_.reclaim_threshold) maybe_reclaim(c, sh);
  if (sh.free_list.empty() && !sh.limbo.empty()) {
    // Harvest limbo blocks whose grace period has passed: no active reader
    // pinned an epoch at or before the retirement epoch, so no optimistic
    // walk can still reach them.
    const std::uint64_t min_epoch = min_active_epoch();
    auto safe = [min_epoch](const Retired& r) { return r.epoch < min_epoch; };
    for (const Retired& r : sh.limbo) {
      if (safe(r)) sh.free_list.push_back(r.block);
    }
    sh.limbo.erase(std::remove_if(sh.limbo.begin(), sh.limbo.end(), safe),
                   sh.limbo.end());
  }
  if (!sh.free_list.empty()) {
    const std::uint32_t b = sh.free_list.back();
    sh.free_list.pop_back();
    return b;
  }
  const std::uint32_t nc = sh.nchunks.load(std::memory_order_relaxed);
  if (sh.next_fresh == nc * kBlockChunkSize) {
    if (nc == kMaxBlockChunks) {
      throw OFault(FaultKind::kResourceExhausted,
                   "shard " + std::to_string(shard_index(sh)) +
                       " block pool exhausted: " +
                       std::to_string(kMaxBlockChunks * kBlockChunkSize) +
                       " blocks live, none reclaimable (task " +
                       std::to_string(c.cur_task) + ")");
    }
    sh.chunk[nc].store(new CBlock[kBlockChunkSize],
                       std::memory_order_release);
    sh.nchunks.store(nc + 1, std::memory_order_release);
  }
  return sh.next_fresh++;
}

// Thread-safety analysis is off for this body only because of the
// *conditional* task_mu_ acquisition below (std::unique_lock over an
// option), which the analysis cannot track; the writer_mu requirement is
// still enforced at every call site via the declaration.
void ConcurrentVersionStore::maybe_reclaim(ThreadCtx& c, Shard& sh)
    OSIM_NO_THREAD_SAFETY_ANALYSIS {
  // Injected GC delay: skip this pass entirely. Callers treat a delayed
  // sweep exactly like an empty one, so pressure just builds until a later
  // consultation lets a pass through.
  if (inj_.fire(FaultSite::kGcDelay)) return;
  // Reclamation eligibility goes through the GcPolicy seam's predicates
  // (core/gc_policy.hpp), inlined here under the shard writer lock:
  //
  //  * kPaper — the paper's fence rule: a shadowed block can only be named
  //    by tasks older than its shadower, so once every task below the floor
  //    has finished (floor = oldest unfinished task id), blocks whose
  //    shadower is <= floor are unreachable *semantically*.
  //  * kBounded — the per-block range rule: a block holding version v and
  //    shadowed by s is unreachable once no unfinished task id lies in
  //    [v, s) (task ids double as read caps), no matter how old the oldest
  //    unfinished task is.
  //
  // Either way the eligible blocks are unlinked here (inside a seqlock
  // write window) and then parked in limbo until the epoch grace period
  // also rules out in-flight optimistic readers.
  const bool bounded = cfg_.gc_policy == GcPolicyKind::kBounded;
  const TaskId floor = task_floor_.load(std::memory_order_acquire);
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_relaxed);
  // Bounded mode holds the task tracker's mutex for the whole pass: the
  // range query needs a stable unfinished set, and the serialization makes
  // the floor raise at the bottom atomic with the reclaim decision — a task
  // created after this pass observes the raised gc_floor_ and faults out of
  // every reclaimed range, while one created before it appears in `live`
  // and pins its range. (Lock order writer_mu -> task_mu_ -> trace_mu_ is
  // acyclic: no path acquires task_mu_ before a shard lock, and the task
  // lifecycle emits trace events outside task_mu_.)
  std::unique_lock<Mutex> task_lk;
  std::vector<TaskId> live;
  if (bounded) {
    task_lk = std::unique_lock<Mutex>(task_mu_);
    live.reserve(unfinished_.size());
    for (const auto& [t, n] : unfinished_) live.push_back(t);  // ascending
  }
  std::vector<Shadowed> keep;
  keep.reserve(sh.shadowed.size());
  // A block can carry more than one shadow entry: a mid-list insert
  // registers it at birth, and if reclamation later promotes it to the
  // chain head, a head insert shadows it a second time. Retiring it via
  // one entry must purge the others — a stale entry left pending could
  // outlive the block's trip through limbo and the free list and then
  // retire a *live* reallocated incarnation of the same block index.
  std::vector<std::uint32_t> gone;
  auto is_gone = [&gone](const Shadowed& x) {
    return std::find(gone.begin(), gone.end(), x.block) != gone.end();
  };
  Ver max_shadower = 0;
  for (const Shadowed& sd : sh.shadowed) {
    if (is_gone(sd)) {
      continue;  // duplicate entry; the block was retired earlier this pass
    }
    CBlock& cb = block(sh, sd.block);
    const bool pinned =
        bounded ? gc_range_has_live_task(live, sd.version, sd.shadower)
                : sd.shadower > floor;
    if (pinned || cb.locked_by.load(std::memory_order_relaxed) != kNoTask) {
      keep.push_back(sd);
      continue;
    }
    CSlot* sp = slot_ptr(sd.slot);
    if (sp == nullptr) {
      continue;  // slot released; release() already retired the chain
    }
    CSlot& sl = *sp;
    // Unlink under a seqlock write window. A linked block's version never
    // changes, so the seek for it lands on the block itself.
    const Seek at = seek(sh, sl, sd.version);
    if (at.cur != sd.block) {
      // Unreachable: a block leaves its chain only through release()
      // (which erases every entry for the slot) or a retire here (which
      // purges every entry for the block). Keep the entry rather than
      // drop it — dropping would leak the block index, and pushing it to
      // limbo without having unlinked it could double-free.
      assert(false && "shadowed block missing from its slot chain");
      keep.push_back(sd);
      continue;
    }
    {
      WriteWindow w(sl);
      w.splice(sh, at.pred, cb.next.load(std::memory_order_relaxed), -1);
    }
    if (tracing()) {
      emit(c, telemetry::EventType::kBlockFreed, OpCode{},
           ostruct_addr(sd.slot), cb.version.load(std::memory_order_relaxed),
           trace_id(sh, sd.block));
    }
    sh.limbo.push_back({sd.block, epoch});
    gone.push_back(sd.block);
    max_shadower = std::max(max_shadower, sd.shadower);
  }
  sh.shadowed.swap(keep);
  sh.reclaimed.fetch_add(gone.size(), std::memory_order_relaxed);
  if (!gone.empty()) {
    // Purge duplicates that were kept before their block's retiring entry
    // was reached (the `gone` check above only catches later ones).
    sh.shadowed.erase(
        std::remove_if(sh.shadowed.begin(), sh.shadowed.end(), is_gone),
        sh.shadowed.end());
    // Serial GC floor rule (core/gc_policy.cpp finalize): readers of a
    // version shadowed by f have ids < f, so after reclaiming under fence f
    // no task with id <= f-1 may ever be created.
    const TaskId want = max_shadower == 0 ? 0 : max_shadower - 1;
    TaskId cur = gc_floor_.load(std::memory_order_relaxed);
    while (cur < want && !gc_floor_.compare_exchange_weak(
                             cur, want, std::memory_order_acq_rel)) {
    }
    sched_point(SchedKind::kGcFloorRaise, 0);
    // Advance the epoch so the retired batch's grace period can end once
    // every reader active right now has unpinned.
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
    sched_point(SchedKind::kEpochAdvance, 0);
  }
}

// ---------------------------------------------------------------------------
// Blocking

void ConcurrentVersionStore::wait_change(const OpSite& o,
                                         std::uint32_t seq_seen, Ver v) {
  // Every kWouldBlock fault below names the blocked op the same way.
  auto would_block = [&](const char* why, bool addr, const std::string& tail) {
    return OFault(FaultKind::kWouldBlock,
                  why + std::string(to_string(o.op)) + " of version " +
                      std::to_string(v) +
                      (addr ? " at address " + std::to_string(o.a) : "") +
                      " by task " + std::to_string(o.c.cur_task) + tail);
  };
  // Injected deadlock: fault as if the timeout below had already expired.
  // Same FaultKind and diagnostic shape, so the runtime's abort-and-retry
  // path is exercised without waiting out a real timeout.
  if (inj_.fire(FaultSite::kDeadlock)) {
    throw would_block("injected deadlock timeout: ", true, "");
  }
  if (hook_ != nullptr) {
    // Model-checked blocking: no spinning, no timed park, no wall clock.
    // The hook suspends this thread until a wake() on the shard (true
    // return; re-examine the slot) or until the scheduler proves no
    // runnable thread can ever signal it (false return) — the
    // deterministic analogue of the deadlock timeout below.
    const std::uint64_t shard = shard_index(o.sh);
    while (o.sl.seq.load(std::memory_order_acquire) == seq_seen) {
      if (stop_.load(std::memory_order_acquire)) {
        throw would_block("run aborted while ", false, " was parked");
      }
      ++o.c.local.parks;
      if (!hook_->block({SchedKind::kBlocked, shard})) {
        throw would_block("deadlock: ", true,
                          " cannot be satisfied in this schedule");
      }
    }
    ++o.c.local.spin_waits;
    return;
  }
  for (int i = 0; i < kSpinIters; ++i) {
    if (o.sl.seq.load(std::memory_order_acquire) != seq_seen) {
      ++o.c.local.spin_waits;
      return;
    }
    // On an oversubscribed host a blocked op's best move is handing the
    // core to whoever will publish the version it needs.
    std::this_thread::yield();
  }
  ++o.c.local.parks;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(cfg_.deadlock_timeout_ms);
  bool timed_out = false;
  bool stopped = false;
  o.sh.nwaiters.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lk(o.sh.park_mu);
    for (;;) {
      if (o.sl.seq.load(std::memory_order_acquire) != seq_seen) break;
      if (stop_.load(std::memory_order_acquire)) {
        stopped = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        break;
      }
      // Timed slices bound the cost of wake()'s relaxed waiter-count fast
      // path: a theoretically missed notify only delays us one slice.
      o.sh.park_cv.wait_for(lk, kParkSlice);
    }
  }
  o.sh.nwaiters.fetch_sub(1, std::memory_order_seq_cst);
  if (stopped) throw would_block("run aborted while ", false, " was parked");
  if (timed_out) {
    throw would_block("deadlock: ", true,
                      " still blocked after " +
                          std::to_string(cfg_.deadlock_timeout_ms) + "ms");
  }
}

void ConcurrentVersionStore::wake(Shard& sh) {
  // The hook's modeled waiters never register in nwaiters, so the
  // announcement must come BEFORE the production fast path below would
  // elide the notify.
  if (hook_ != nullptr) hook_->wake({SchedKind::kWake, shard_index(sh)});
  // Relaxed fast path: a waiter that registers just after this load also
  // re-checks the slot sequence *after* registering, and its wait is
  // timed — worst case it oversleeps one park slice, it cannot hang.
  if (sh.nwaiters.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard<std::mutex> g(sh.park_mu); }
  sh.park_cv.notify_all();
}

void ConcurrentVersionStore::request_stop() {
  stop_.store(true, std::memory_order_release);
  for (int i = 0; i < nshards_; ++i) {
    Shard& sh = shards_[i];
    { std::lock_guard<std::mutex> g(sh.park_mu); }
    sh.park_cv.notify_all();
  }
}

void ConcurrentVersionStore::reset_stop() {
  stop_.store(false, std::memory_order_release);
}

void ConcurrentVersionStore::attach_tracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
}

void ConcurrentVersionStore::emit(const ThreadCtx& c,
                                  telemetry::EventType type, OpCode op,
                                  OAddr addr, Ver version,
                                  std::uint64_t arg) {
  std::lock_guard<std::mutex> g(trace_mu_);
  // Linearization stamp: a mutex-serialized counter as the time and the
  // registered thread id as the core (core/engine_trace.hpp).
  tracer_->emit(make_trace_event(++trace_clock_,
                                 static_cast<CoreId>(&c - ctxs_.get()), type,
                                 op, addr, version, arg));
}

// ---------------------------------------------------------------------------
// Reads

ConcurrentVersionStore::ReadOutcome ConcurrentVersionStore::try_read(
    const OpSite& o, bool exact, Ver key) {
  // A traced read walks under the writer lock, so no write window overlaps
  // it and its event lands in the stream inside the lock: the stream then
  // interleaves store < read for any version the read observed, which is
  // what the checker's dataflow joins need. The lock acquisition is its
  // schedule point. An untraced read's decision point is chosen here,
  // before the epoch pin (a descheduled thread must not hold a pin — it
  // would block reclamation in every branch of the exploration).
  std::optional<ShardLock> traced;
  if (tracing()) {
    traced.emplace(*this, o.sh);
  } else {
    sched_point(SchedKind::kSeqReadBegin, shard_index(o.sh));
  }
  EpochPin pin(*this, o.c);
  for (;;) {
    // Seqlock read side (snippet 1's mem_read): take the sequence, walk,
    // fence, re-check. An odd sequence means a writer is mid-flight.
    const std::uint32_t s1 = o.sl.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) {
      ++o.c.local.seq_retries;
      std::this_thread::yield();
      continue;
    }
    ReadOutcome out;
    out.seq = s1;
    bool overflow = false;
    std::size_t walked = 0;
    for (std::uint32_t b = o.sl.head.load(std::memory_order_acquire);
         b != kNil;) {
      if (++walked > kWalkLimit) {
        overflow = true;  // transiently inconsistent chain; retry
        break;
      }
      CBlock& cb = block(o.sh, b);
      const Ver v = cb.version.load(std::memory_order_acquire);
      if (v <= key) {
        // Sorted newest-first: this is the newest version <= cap, and an
        // exact key below it is absent.
        if (!exact || v == key) {
          out.got = v;
          out.data = cb.data.load(std::memory_order_relaxed);
          out.ok = cb.locked_by.load(std::memory_order_relaxed) == kNoTask;
        }
        break;
      }
      b = cb.next.load(std::memory_order_acquire);
    }
    // Read-side validation: the acquire fence orders every load above
    // before the sequence re-check, pairing with the writer's release
    // fence (see WriteWindow). If the sequence moved, some write window
    // overlapped the walk and any combination of values we saw may be
    // torn — retry.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (overflow && hook_ != nullptr) {
      // Under a hook no writer can be mid-walk (every mutation runs to
      // its next schedule point), so an overflowing walk is not transient
      // inconsistency — it is a corrupted chain (e.g. the seeded
      // alloc-after-walk self-loop) and retrying would hang the whole
      // exploration. Surface it as an engine error instead.
      throw std::runtime_error(
          "ConcurrentVersionStore: version-chain walk exceeded walk_limit "
          "under a schedule hook (corrupted chain)");
    }
    if (!overflow && o.sl.seq.load(std::memory_order_relaxed) == s1) {
      if (out.ok && tracing()) {
        emit(o.c, telemetry::EventType::kVersionRead, o.op, o.a, out.got,
             key);
      }
      return out;
    }
    ++o.c.local.seq_retries;
    sched_point(SchedKind::kSeqReadRetry, shard_index(o.sh));
  }
}

std::uint64_t ConcurrentVersionStore::load_common(OAddr a, bool exact,
                                                  Ver key, Ver* found,
                                                  OpCode op) {
  const OpSite o = begin_op(&Stats::loads, op, a, key);
  for (;;) {
    const ReadOutcome r = try_read(o, exact, key);
    if (r.ok) {
      if (found != nullptr) *found = r.got;
      return r.data;
    }
    wait_change(o, r.seq, key);
    // The wait may have been a release(): re-validate the versioned bit so
    // a parked op faults instead of spinning on a dead slot.
    slot_of(a);
  }
}

std::uint64_t ConcurrentVersionStore::load_version(OAddr a, Ver v) {
  return load_common(a, /*exact=*/true, v, nullptr, OpCode::kLoadVersion);
}

std::uint64_t ConcurrentVersionStore::load_latest(OAddr a, Ver cap,
                                                  Ver* found) {
  return load_common(a, /*exact=*/false, cap, found, OpCode::kLoadLatest);
}

// ---------------------------------------------------------------------------
// Writes

void ConcurrentVersionStore::store_locked(const OpSite& o, Ver v,
                                          std::uint64_t data) {
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 1
  // Seeded PR-6 review bug (model-checking regression fixture, see
  // tests/test_explore_seeded.cpp): walk to the insertion point FIRST,
  // then allocate. alloc_block's reclaim pass can unlink the walked pred
  // or cur from this very chain — and its limbo harvest can hand the
  // just-retired cur back as the new block — so the insert below corrupts
  // the chain (lost store, or a self-loop when nb == cur). osim-mc finds
  // the interleaving via the gc_fence litmus and check_integrity().
  const Seek at = seek(o.sh, o.sl, v);
  const std::uint32_t nb = alloc_block(o.c, o.sh);
#else
  // Allocate before seeking, like the serial store_impl: alloc_block may
  // run a reclaim pass that unlinks shadowed blocks from this very chain
  // (possibly the seek's pred or cur), and its limbo harvest could even
  // hand a just-unlinked block back as nb. The fresh block itself is not
  // reachable from any chain, so the seek below sees a stable
  // post-reclaim list.
  const std::uint32_t nb = alloc_block(o.c, o.sh);
  const Seek at = seek(o.sh, o.sl, v);
#endif
  if (at.exact) {
    // Duplicate version: hand the never-linked block straight back to the
    // free list before faulting (serial store_impl's recycle). No trace
    // event — kBlockAlloc is only emitted once the block is linked, so the
    // checker never saw this one.
    o.sh.free_list.push_back(nb);
    throw OFault(FaultKind::kVersionAlreadyExists,
                 "version " + std::to_string(v) + " already exists");
  }
  CBlock& b = block(o.sh, nb);
  b.version.store(v, std::memory_order_relaxed);
  b.data.store(data, std::memory_order_relaxed);
  b.locked_by.store(kNoTask, std::memory_order_relaxed);
  b.next.store(at.cur, std::memory_order_relaxed);
  {
    WriteWindow w(o.sl);
    w.splice(o.sh, at.pred, nb, +1);
  }

  ++o.c.local.blocks_allocated;

  // Shadow registration (paper Sec. III-B): a head insert shadows the old
  // head with the new version; a mid-list insert is itself born shadowed
  // by its immediately-newer neighbour.
  std::uint32_t shadowed = kNil;
  Ver shadower = 0;
  if (at.pred == kNil) {
    if (at.cur != kNil) {
      shadowed = at.cur;
      shadower = v;
    }
  } else {
    shadowed = nb;
    shadower = block(o.sh, at.pred).version.load(std::memory_order_relaxed);
  }
  if (shadowed != kNil) {
    o.sh.shadowed.push_back(
        {shadowed,
         block(o.sh, shadowed).version.load(std::memory_order_relaxed),
         shadower, o.slot});
  }

  journal(o.c, UndoEntry::Kind::kStore, o.slot, v);

  if (tracing()) {
    emit(o.c, telemetry::EventType::kBlockAlloc, OpCode{}, 0, 0,
         trace_id(o.sh, nb));
    emit(o.c, telemetry::EventType::kVersionStore, OpCode{}, o.a, v,
         trace_id(o.sh, nb));
    if (shadowed != kNil) {
      emit(o.c, telemetry::EventType::kBlockShadowed, OpCode{}, o.a,
           shadower, trace_id(o.sh, shadowed));
    }
  }
}

void ConcurrentVersionStore::store_version(OAddr a, Ver v,
                                           std::uint64_t data) {
  const OpSite o = begin_op(&Stats::stores, OpCode::kStoreVersion, a, v);
  {
    ShardLock g(*this, o.sh);
    store_locked(o, v, data);
  }
  wake(o.sh);
}

std::uint64_t ConcurrentVersionStore::lock_load_common(OAddr a, bool exact,
                                                       Ver key, TaskId locker,
                                                       Ver* found, OpCode op) {
  const OpSite o = begin_op(&Stats::lock_ops, op, a, key);
  for (;;) {
    std::uint32_t seq_seen;
    {
      ShardLock g(*this, o.sh);
      const Seek at = seek(o.sh, o.sl, key);
      if (exact ? at.exact : at.cur != kNil) {
        CBlock& cb = block(o.sh, at.cur);
        if (cb.locked_by.load(std::memory_order_relaxed) == kNoTask) {
          // Taking the lock needs no seqlock window: optimistic readers
          // that read the pre-lock state linearize before the acquisition
          // (versions are immutable, so the value they return is the value
          // under the lock too).
          cb.locked_by.store(locker, std::memory_order_relaxed);
          const Ver got = cb.version.load(std::memory_order_relaxed);
          const std::uint64_t data = cb.data.load(std::memory_order_relaxed);
          journal(o.c, UndoEntry::Kind::kLock, o.slot, got);
          if (tracing()) {
            emit(o.c, telemetry::EventType::kVersionRead, op, a, got, key);
            emit(o.c, telemetry::EventType::kLockAcquire, OpCode{}, a, got,
                 locker);
          }
          if (found != nullptr) *found = got;
          return data;
        }
      }
      seq_seen = o.sl.seq.load(std::memory_order_relaxed);
    }
    wait_change(o, seq_seen, key);
    slot_of(a);  // re-validate after a potential release()
  }
}

std::uint64_t ConcurrentVersionStore::lock_load_version(OAddr a, Ver v,
                                                        TaskId locker) {
  return lock_load_common(a, /*exact=*/true, v, locker, nullptr,
                          OpCode::kLockLoadVersion);
}

std::uint64_t ConcurrentVersionStore::lock_load_latest(OAddr a, Ver cap,
                                                       TaskId locker,
                                                       Ver* found) {
  return lock_load_common(a, /*exact=*/false, cap, locker, found,
                          OpCode::kLockLoadLatest);
}

void ConcurrentVersionStore::unlock_version(OAddr a, Ver locked_v,
                                            TaskId owner,
                                            std::optional<Ver> rename_to) {
  const OpSite o =
      begin_op(&Stats::lock_ops, OpCode::kUnlockVersion, a, locked_v);
  {
    ShardLock g(*this, o.sh);
    // Two seeks, as in the serial engine: each costs only the versions
    // above its key, and both run before anything mutates.
    const Seek at = seek(o.sh, o.sl, locked_v);
    if (!at.exact) {
      throw OFault(FaultKind::kNotLockOwner,
                   "unlock of nonexistent version " +
                       std::to_string(locked_v));
    }
    CBlock& cb = block(o.sh, at.cur);
    const TaskId holder = cb.locked_by.load(std::memory_order_relaxed);
    if (holder != owner) {
      throw OFault(FaultKind::kNotLockOwner,
                   "version " + std::to_string(locked_v) + " locked by " +
                       std::to_string(holder) + ", unlock by " +
                       std::to_string(owner));
    }
    if (rename_to.has_value() && seek(o.sh, o.sl, *rename_to).exact) {
      throw OFault(FaultKind::kRenameTargetExists,
                   std::to_string(*rename_to));
    }
    const std::uint64_t data = cb.data.load(std::memory_order_relaxed);
    // The unlock is a slot mutation parked readers wait for.
    release_lock(o.c, o.sl, cb, a, owner);
    if (rename_to.has_value()) {
      // Renaming: materialize the same value as a new, unlocked version.
      store_locked(o, *rename_to, data);
    }
  }
  wake(o.sh);
}

// ---------------------------------------------------------------------------
// Task lifecycle (GC rules #1-#3)

void ConcurrentVersionStore::task_created(TaskId t) {
  sched_point(SchedKind::kTaskOp, 0);
  {
    MutexLock g(task_mu_);
    create_task_locked(t);
  }
  if (tracing()) {
    emit(ctx(), telemetry::EventType::kTaskCreated, OpCode{}, 0, t, 0);
  }
}

void ConcurrentVersionStore::create_task_locked(TaskId t) {
  // Rules #1 and #3: creation order must respect age, and a task below the
  // floor could name an already-reclaimed version.
  check_task_created(
      t, unfinished_.empty() ? kNoTask : unfinished_.begin()->first,
      gc_floor_.load(std::memory_order_acquire));
  unfinished_[t]++;
  max_task_ = std::max(max_task_, t);
}

void ConcurrentVersionStore::task_begin(TaskId t) {
  sched_point(SchedKind::kTaskOp, 0);
  ThreadCtx& c = ctx();
  if (tracing()) {
    emit(c, telemetry::EventType::kIsaOp, OpCode::kTaskBegin, 0, t, 0);
  }
  {
    MutexLock g(task_mu_);
    if (unfinished_.find(t) == unfinished_.end()) create_task_locked(t);
  }
  c.cur_task = t;
  c.undo.clear();  // a retry must not re-undo the aborted attempt's journal
}

void ConcurrentVersionStore::task_end(TaskId t) {
  sched_point(SchedKind::kTaskOp, 0);
  ThreadCtx& c = ctx();
  if (tracing()) {
    emit(c, telemetry::EventType::kIsaOp, OpCode::kTaskEnd, 0, t, 0);
  }
  {
    MutexLock g(task_mu_);
    auto it = unfinished_.find(t);
    check_task_end(t, /*running=*/it != unfinished_.end());
    if (--it->second == 0) unfinished_.erase(it);
    // Floor: every task strictly below it has finished. With tasks still
    // unfinished that is the smallest of them; otherwise everything created
    // so far is done.
    const TaskId floor =
        unfinished_.empty() ? max_task_ + 1 : unfinished_.begin()->first;
    task_floor_.store(floor, std::memory_order_release);
  }
  // Unbind only once the end is accepted: a faulted TASK-END leaves the
  // caller's task and journal in place for abort_task, as the serial
  // engine does.
  c.cur_task = kNoTask;
  c.undo.clear();
}

void ConcurrentVersionStore::abort_task(TaskId t) {
  if (!cfg_.track_aborts) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "abort_task(" + std::to_string(t) +
                     ") requires ConcurrencyConfig::track_aborts");
  }
  sched_point(SchedKind::kTaskOp, 0);
  ThreadCtx& c = ctx();
  // Per-entry undo action for the shared newest-first driver (see
  // core/undo_journal.hpp for why reverse order is load-bearing). This
  // engine's revalidation is the chain walk under the shard lock: entries
  // are keyed (slot, version), and a version no longer on the chain was
  // reclaimed or released before the abort. One body serves both entry
  // kinds so the seqlock-windowed surgery stays in a single locked scope.
  auto undo_one = [&](const UndoEntry& e) -> bool {
    const OAddr a = ostruct_addr(e.slot);
    if (!is_versioned_addr(a)) {
      return false;  // the whole O-structure was released in the meantime
    }
    CSlot& sl = *slot_ptr(e.slot);
    Shard& sh = shard_of(e.slot);
    {
      ShardLock g(*this, sh);
      const Seek at = seek(sh, sl, e.version);
      if (!at.exact) {
        return false;  // reclaimed (or released) before the abort
      }
      CBlock& cb = block(sh, at.cur);
      if (e.kind == UndoEntry::Kind::kLock) {
        if (cb.locked_by.load(std::memory_order_relaxed) != t) {
          return false;  // already unlocked (or re-locked by another task)
        }
        release_lock(c, sl, cb, a, t);
      } else {
        // Unlink the created version. A lock another task took on it dies
        // with the block — their unlock will fault kNotLockOwner, the
        // deterministic "you read an aborted version" signal.
        const std::uint64_t epoch =
            global_epoch_.load(std::memory_order_relaxed);
        {
          WriteWindow w(sl);
          w.splice(sh, at.pred, cb.next.load(std::memory_order_relaxed), -1);
          cb.locked_by.store(kNoTask, std::memory_order_relaxed);
        }
        // Purge shadow-registry entries naming the dead block, plus the
        // entry this store of v = e.version created for its shadowed
        // neighbour — with v gone the neighbour is the live head (or
        // mid-list) again and must not be retired under v's fence.
        sh.shadowed.erase(
            std::remove_if(sh.shadowed.begin(), sh.shadowed.end(),
                           [&](const Shadowed& x) {
                             if (x.block == at.cur) return true;
                             if (x.slot != e.slot || x.shadower != e.version) {
                               return false;
                             }
                             // The neighbour v shadowed is live again;
                             // tell the checker before v's free event.
                             if (tracing()) {
                               emit(c, telemetry::EventType::kBlockRestored,
                                    OpCode{}, a, x.version,
                                    trace_id(sh, x.block));
                             }
                             return true;
                           }),
            sh.shadowed.end());
        if (tracing()) {
          emit(c, telemetry::EventType::kBlockFreed, OpCode{}, a, e.version,
               trace_id(sh, at.cur));
        }
        sh.limbo.push_back({at.cur, epoch});
      }
    }
    wake(sh);
    return true;
  };
  const UndoReplayCounts undone =
      replay_undo_newest_first(c.undo, undo_one, undo_one);
  c.local.aborted_blocks += undone.blocks;
  c.local.aborted_locks += undone.locks;
  c.undo.clear();
  if (c.cur_task == t) c.cur_task = kNoTask;
  if (undone.blocks != 0) {
    // Open the unlinked blocks' grace period; they become harvestable once
    // every reader active right now has unpinned.
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
    sched_point(SchedKind::kEpochAdvance, 0);
  }
  ++c.local.aborts;
  if (tracing()) {
    emit(c, telemetry::EventType::kTaskAborted, OpCode{}, 0, t, undone.blocks);
  }
}

// ---------------------------------------------------------------------------
// Host-side inspection

std::optional<std::uint64_t> ConcurrentVersionStore::peek_version(OAddr a,
                                                                  Ver v) {
  const SlotRef r = locate(a);
  ShardLock g(*this, r.sh);
  const Seek at = seek(r.sh, r.sl, v);
  if (!at.exact) return std::nullopt;
  return block(r.sh, at.cur).data.load(std::memory_order_relaxed);
}

std::optional<Ver> ConcurrentVersionStore::newest_version(OAddr a) {
  const SlotRef r = locate(a);
  ShardLock g(*this, r.sh);
  const std::uint32_t b = r.sl.head.load(std::memory_order_relaxed);
  if (b == kNil) return std::nullopt;
  return block(r.sh, b).version.load(std::memory_order_relaxed);
}

std::optional<TaskId> ConcurrentVersionStore::lock_holder(OAddr a, Ver v) {
  const SlotRef r = locate(a);
  ShardLock g(*this, r.sh);
  const Seek at = seek(r.sh, r.sl, v);
  if (!at.exact) return std::nullopt;
  const TaskId l =
      block(r.sh, at.cur).locked_by.load(std::memory_order_relaxed);
  return l == kNoTask ? std::nullopt : std::optional<TaskId>(l);
}

int ConcurrentVersionStore::version_count(OAddr a) {
  const SlotRef r = locate(a);
  ShardLock g(*this, r.sh);
  return static_cast<int>(r.sl.nversions.load(std::memory_order_relaxed));
}

std::vector<std::pair<Ver, std::uint64_t>>
ConcurrentVersionStore::slot_versions(OAddr a) {
  const SlotRef r = locate(a);
  ShardLock g(*this, r.sh);
  std::vector<std::pair<Ver, std::uint64_t>> out;
  for (std::uint32_t b = r.sl.head.load(std::memory_order_relaxed);
       b != kNil;) {
    CBlock& cb = block(r.sh, b);
    out.emplace_back(cb.version.load(std::memory_order_relaxed),
                     cb.data.load(std::memory_order_relaxed));
    b = cb.next.load(std::memory_order_relaxed);
  }
  return out;
}

ConcurrentVersionStore::Stats ConcurrentVersionStore::stats() const {
  // Quiescent-only: per-thread counters are owner-written plain fields;
  // call after a run has joined (the pool's join provides the
  // happens-before edge).
  Stats s;
  const int n = nctx_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const Stats& l = ctxs_[i].local;
    s.loads += l.loads;
    s.stores += l.stores;
    s.lock_ops += l.lock_ops;
    s.seq_retries += l.seq_retries;
    s.spin_waits += l.spin_waits;
    s.parks += l.parks;
    s.blocks_allocated += l.blocks_allocated;
    s.aborts += l.aborts;
    s.aborted_blocks += l.aborted_blocks;
    s.aborted_locks += l.aborted_locks;
  }
  s.ops = s.loads + s.stores + s.lock_ops;
  for (int i = 0; i < nshards_; ++i) {
    s.blocks_reclaimed +=
        shards_[i].reclaimed.load(std::memory_order_relaxed);
  }
  return s;
}

ConcurrentVersionStore::IntegrityReport
ConcurrentVersionStore::check_integrity() {
  IntegrityReport rep;
  const std::uint64_t nslots = slot_count_.load(std::memory_order_acquire);
  for (std::uint64_t s = 0; s < nslots && rep.ok; ++s) {
    if (!is_versioned_addr(ostruct_addr(s))) continue;
    const CSlot& sl = *slot_ptr(s);
    Shard& sh = shard_of(s);
    ShardLock g(*this, sh);
    // Bounded walk with explicit visited tracking: a corrupted chain may
    // be cyclic, so the walk must terminate on the first revisit rather
    // than trusting the list structure it is auditing.
    std::vector<std::uint32_t> seen;
    bool first = true;
    Ver prev = 0;
    for (std::uint32_t b = sl.head.load(std::memory_order_relaxed);
         b != kNil; ) {
      if (std::find(seen.begin(), seen.end(), b) != seen.end()) {
        rep.ok = false;
        rep.detail = "slot " + std::to_string(s) +
                     ": cycle in version chain at block " + std::to_string(b);
        break;
      }
      seen.push_back(b);
      CBlock& cb = block(sh, b);
      const Ver v = cb.version.load(std::memory_order_relaxed);
      if (!first && v >= prev) {
        rep.ok = false;
        rep.detail = "slot " + std::to_string(s) +
                     ": versions not strictly descending (" +
                     std::to_string(prev) + " then " + std::to_string(v) +
                     ")";
        break;
      }
      first = false;
      prev = v;
      b = cb.next.load(std::memory_order_relaxed);
    }
    if (rep.ok &&
        seen.size() != sl.nversions.load(std::memory_order_relaxed)) {
      rep.ok = false;
      rep.detail =
          "slot " + std::to_string(s) + ": nversions " +
          std::to_string(sl.nversions.load(std::memory_order_relaxed)) +
          " != chain length " + std::to_string(seen.size());
    }
  }
  return rep;
}

}  // namespace osim
