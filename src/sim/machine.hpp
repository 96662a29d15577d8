// The simulated multicore machine.
//
// Each core's program runs on a fiber. The scheduler always advances the
// runnable core with the lowest (clock, id) pair, and a fiber voluntarily
// yields at every shared-memory interaction point if it is no longer the
// earliest core. The result is a deterministic, timestamp-ordered
// interleaving of all memory events — the property that makes every
// experiment in this repo bit-reproducible.
//
// The runnable cores other than the running one wait in a binary min-heap
// keyed by (clock, id). A queued core's key never changes (only the running
// core's clock advances, and wake_all re-times cores that are blocked, not
// queued), so the heap top is exactly the core a scan would pick. A yielding
// or blocking core switches straight to the heap top's fiber; run() takes
// over only for the first resume, a fiber's exit, deadlock and faults.
//
// The key is one uint64_t, `clock << 6 | id`: ids are below 64 (the memory
// system accepts at most 64 cores), so unsigned order on keys is exactly
// (clock, id) order, and a sift compares one word per child. A clock that
// reaches 2^58 cycles no longer fits; computing its key raises SimError
// instead of wrapping.
//
// Blocking (stalled versioned ops, lock waits) is event-driven: a core parks
// itself on a WaitList and is re-timestamped when woken. If every core is
// blocked the machine reports deadlock rather than spinning.
//
// Host-thread safety: one Machine runs on exactly one host thread at a time
// (run() is not reentrant), and the machine a running fiber resolves via
// Machine::current() is tracked per host thread. A Machine holds no global
// mutable state, so independent machines can run concurrently on separate
// host threads (sim/host_pool.hpp) and still produce bit-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/config.hpp"
#include "sim/fiber.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/metrics.hpp"

namespace osim {

/// Thrown (out of Machine::run) when all unfinished cores are blocked and no
/// wakeup can ever arrive, or when a simulated protection fault escapes.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Machine;

/// A queue of cores parked on some condition (a versioned address, a lock).
/// Owned by whoever models the condition; the machine only manipulates it
/// through block_on / wake_all.
class WaitList {
 public:
  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

 private:
  friend class Machine;
  std::vector<CoreId> waiters_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Install the program for `core`. Must be called before run(); each core
  /// may have at most one program per run.
  void spawn(CoreId core, std::function<void()> body);

  /// Run until every spawned core finishes. Throws SimError on deadlock or
  /// on a fault recorded by a core. A fault ends only the run it occurred
  /// in: the next run() starts clean.
  void run();

  // ---- Core-side API (call only from inside a spawned fiber) ----

  /// The machine the running fiber belongs to. Thread-local: each host
  /// thread sees only the machine whose run() it is executing.
  static Machine& current();
  /// The id of the currently executing core.
  CoreId current_core() const { return running_; }
  /// Local clock of the currently executing core.
  Cycles now() const;

  /// Charge `c` cycles of latency to the running core.
  void advance(Cycles c);
  /// Charge `n` non-memory instructions through the issue-width model.
  void exec(std::uint64_t n);

  /// One conventional memory access through the hierarchy. Yields first if
  /// another runnable core has an earlier timestamp, so that all memory
  /// events are processed in global time order.
  void mem_access(Addr addr, AccessType type, AccessOptions opts = {});

  /// Park the running core on `wl`. Returns once another core wakes it.
  void block_on(WaitList& wl);
  /// Move every core parked on `wl` back to the run queue. Each is resumed
  /// no earlier than the waker's current time plus `wake_latency`.
  void wake_all(WaitList& wl, Cycles wake_latency);

  /// Yield until this core is the earliest runnable one. Called implicitly
  /// by mem_access; the O-structure manager calls it before versioned ops.
  void sync_to_global_order();

  /// Record a simulated fault; the machine aborts the run and rethrows.
  [[noreturn]] void fault(const std::string& what);

  // ---- Host-side accessors ----
  MemorySystem& memsys() { return memsys_; }
  /// The machine's metrics registry. Components register their counters
  /// here at construction; tools read or dump it after a run.
  telemetry::MetricRegistry& metrics() { return registry_; }
  const telemetry::MetricRegistry& metrics() const { return registry_; }
  const MachineConfig& config() const { return cfg_; }
  /// Completion time: max over cores of their finish clock.
  Cycles elapsed() const { return elapsed_; }
  int num_cores() const { return cfg_.num_cores; }

 private:
  struct CoreCtx {
    std::unique_ptr<Fiber> fiber;
    Cycles clock = 0;
    Cycles block_start = 0;
    /// Parked on a WaitList. A core that is neither blocked nor finished is
    /// running or queued in run_queue_.
    bool blocked = false;
  };

  /// Run-queue key layout: the core id in the low kIdBits bits, the clock
  /// above them. Ids are unique, so no two keys tie.
  static constexpr int kIdBits = 6;
  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;
  /// `core`'s key under its current clock. Throws SimError once the clock
  /// reaches 2^(64 - kIdBits) cycles.
  std::uint64_t queue_key(CoreId core) const;
  /// Queue `core` under its current clock.
  void push_runnable(CoreId core);
  /// Remove and return the earliest queued core. The queue must be non-empty.
  CoreId pop_earliest();
  /// Restore heap order below `hole` after the entry there was replaced.
  void sift_down(std::size_t hole);

  /// Whether the running core precedes every queued core: one compare
  /// against the heap top.
  bool i_am_earliest() const {
    return run_queue_.empty() || queue_key(running_) < run_queue_.front();
  }
  /// Suspend the running core, which the caller has already re-queued or
  /// parked, and switch straight to core `next`'s fiber; `next` < 0 (no
  /// core left to run) or a cancellation in progress returns to run().
  void switch_to_core(CoreId next);
  /// Unwind every unfinished fiber (after a fault or deadlock) so stacks are
  /// cleanly destroyed before run() rethrows.
  void cancel_all();

  MachineConfig cfg_;
  /// Declared before memsys_: components register metrics as they are
  /// constructed, and the registry must outlive every handle holder.
  telemetry::MetricRegistry registry_;
  telemetry::CounterVec instructions_;
  telemetry::CounterVec stall_cycles_;
  MemorySystem memsys_;
  std::vector<CoreCtx> cores_;
  /// Binary min-heap of the queue_key()s of every runnable core except the
  /// running one. Inline keys, so heap moves never touch cores_.
  std::vector<std::uint64_t> run_queue_;
  CoreId running_ = -1;
  Cycles elapsed_ = 0;
  std::string fault_;
  bool faulted_ = false;
  bool cancelling_ = false;
};

/// Convenience: the machine of the running fiber.
inline Machine& mach() { return Machine::current(); }

}  // namespace osim
