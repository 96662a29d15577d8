// GcPolicy: the reclamation seam of the semantic engine.
//
// The paper's hardware collector (Sec. III-B) is one *policy* for deciding
// when a shadowed version block becomes unreachable; the engine mechanics —
// unlinking a block from its version list, scrubbing compressed lines,
// returning it to the free list, emitting lifecycle trace events — are the
// same for every policy. This header cuts the decision out of the engine
// the same way core/timing_model.hpp cut out the cost model:
//
//   VersionStore  --(GcOwner: reclaim/emit callbacks)-->  GcPolicy
//       |                                                   |
//       |  on_shadowed / maybe_collect / task lifecycle     |
//       +---------------------------------------------------+
//
// Two policies ship behind the seam:
//
//   * PaperWatermarkPolicy — the paper's scheme, verbatim: shadowed blocks
//     batch into a phase when the free list drops below the watermark, the
//     phase records a fence (the youngest shadower in the batch), and the
//     whole batch frees once the oldest unfinished task passes the fence.
//     Simple hardware, but one long-lived old task pins *every* pending
//     block behind the fence indefinitely.
//   * BoundedSpacePolicy — range-tracking reclamation in the style of
//     Ben-David et al., "Space and Time Bounded Multiversion Garbage
//     Collection", and Wei & Fatourou (see PAPERS.md): a block holding
//     version v and shadowed by version s is reclaimable as soon as no
//     unfinished task id lies in [v, s) — task ids double as read caps
//     (GC rule #1), so only tasks in that half-open range can still read
//     v. Sweeps amortize against registrations, holding the unreclaimed
//     set at (reachable versions + batch) even under a reader that never
//     finishes.
//
// Policies charge no simulated cycles themselves (the collector runs in
// background hardware); the manager charges the trigger latency when
// maybe_collect() reports that collection work ran. The paper policy is
// bit-identical to the historical GarbageCollector on the timed backend:
// same metrics in the same registration order, same trace events at the
// same points, same fault diagnostics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/flat_map.hpp"
#include "core/ostruct_config.hpp"
#include "core/types.hpp"
#include "core/version_block.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace osim {

/// The engine-side half of the seam, bound statically at construction (the
/// policy outlives no engine). `gc_reclaim` unlinks the block from its
/// version list, reports to the timing layer, and frees it; `gc_event`
/// timestamps and forwards lifecycle events to the owner's trace sinks
/// (kBlockPending per block with its owning slot, kGcPhaseBegin with the
/// fence in `arg`, kGcPhaseEnd with the reclaimed count in `arg`).
class GcOwner {
 public:
  virtual void gc_reclaim(BlockIndex b) = 0;
  virtual void gc_event(telemetry::EventType type, std::uint64_t slot, Ver v,
                        std::uint64_t arg) = 0;

 protected:
  ~GcOwner() = default;
};

/// Reclamation-eligibility predicate: true when some id of the ascending
/// `sorted_live` lies in the half-open range [v, s), i.e. when a task that
/// can still read a version `v` shadowed by `s` is unfinished. A block
/// holding `v`, shadowed by `s`, is reclaimable iff this returns false (and
/// it is unlocked). The bounded policy asks it through GcTaskTracker; the
/// concurrent engine asks it under its shard locks against a snapshot of
/// the unfinished-task set.
inline bool gc_range_has_live_task(const std::vector<TaskId>& sorted_live,
                                   Ver v, Ver s) {
  auto it = std::lower_bound(sorted_live.begin(), sorted_live.end(), v);
  return it != sorted_live.end() && *it < s;
}

/// The task-order checks of both engines, with one set of fault texts
/// (OFault kTaskOrderViolation): GC rules #1 and #3 at creation, where
/// `oldest` is the oldest unfinished task (kNoTask, below every id, if
/// none), and TASK-END of a task that is not `running`.
void check_task_created(TaskId t, TaskId oldest, TaskId floor);
void check_task_end(TaskId t, bool running);

/// Unfinished-task bookkeeping shared by the policies: create counts in a
/// FlatMap (O(1) on the per-task hot path) plus a sorted vector of distinct
/// live ids for the ordered queries (oldest unfinished, any-in-range). The
/// vector stays small — it holds *unfinished* tasks, not all tasks — and
/// ids arrive mostly in ascending order, so the sorted insert is usually an
/// append.
class GcTaskTracker {
 public:
  bool empty() const { return ids_.empty(); }
  std::size_t live() const { return ids_.size(); }
  TaskId oldest() const { return ids_.front(); }
  bool contains(TaskId t) const { return counts_.contains(t); }

  void add(TaskId t) {
    if (++counts_[t] == 1) {
      if (ids_.empty() || ids_.back() < t) {
        ids_.push_back(t);
      } else {
        ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), t), t);
      }
    }
  }

  /// Returns false when `t` is not a live task.
  bool remove(TaskId t) {
    int* c = counts_.find(t);
    if (c == nullptr) return false;
    if (--*c == 0) {
      counts_.erase(t);
      ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), t));
    }
    return true;
  }

  /// gc_range_has_live_task over the unfinished tasks.
  bool any_in(Ver lo, Ver hi) const {
    return gc_range_has_live_task(ids_, lo, hi);
  }

 private:
  FlatMap<TaskId, int> counts_;  ///< unfinished tasks: id -> create count
  std::vector<TaskId> ids_;      ///< distinct live ids, sorted ascending
};

/// The policy seam. Task-lifecycle rules (#1-#3) are policy-independent
/// and live here; what varies is when a registered shadowed block is
/// declared unreachable and handed back through the owner.
class GcPolicy {
 public:
  GcPolicy(BlockPool& pool, GcOwner& owner) : pool_(pool), owner_(owner) {}
  virtual ~GcPolicy() = default;

  GcPolicy(const GcPolicy&) = delete;
  GcPolicy& operator=(const GcPolicy&) = delete;

  virtual GcPolicyKind kind() const = 0;

  /// Task creation (rule #3 check point): the new task must be no older
  /// than the oldest unfinished task and above the floor left by finished
  /// collections. Throws OFault(kTaskOrderViolation) otherwise.
  void task_created(TaskId t);
  /// TASK-BEGIN. Implicitly creates the task if the runtime did not
  /// announce it (single-level runtimes call begin directly).
  void task_begin(TaskId t);
  /// TASK-END. May reclaim (policy-dependent). Throws on unknown task.
  void task_end(TaskId t);

  /// Register a block that became shadowed by version `shadower`. Called
  /// mid-store (the insertion's timing snapshot is still in flight), so
  /// policies must only *record* here — reclamation belongs in
  /// on_store_complete / maybe_collect / task_end.
  virtual void on_shadowed(BlockIndex b, Ver shadower) = 0;

  /// Called by the owner at the end of every completed STORE-VERSION, once
  /// the stored version is fully installed in the timing layer. The bounded
  /// policy runs its amortized registration-triggered sweep here; the paper
  /// policy only collects on the manager's watermark trigger.
  virtual void on_store_complete() {}

  /// Manager-driven collection trigger (free-list watermark, exhaustion).
  /// Returns true when collection work actually ran — the manager charges
  /// the trigger latency for that case.
  virtual bool maybe_collect() = 0;

  /// Drop every registration of block `b` whose generation still matches
  /// the pool. abort_task uses this when rolling a store back: the block
  /// that the aborted version shadowed becomes the live head again, so a
  /// surviving registration would let a later sweep reclaim live data.
  /// Forgetting is always safe — at worst a genuinely shadowed block is
  /// re-registered never and leaks until its O-structure is released.
  virtual void forget(BlockIndex b) = 0;

  // ---- Queries ----
  /// Paper policy: a phase is in flight. Bounded policy: never (sweeps are
  /// incremental, not phased).
  virtual bool phase_active() const = 0;
  /// Registered shadowed blocks not yet in a phase (paper) / not yet
  /// reclaimed (bounded).
  virtual std::size_t shadowed_size() const = 0;
  /// Blocks parked in the in-flight phase (paper; 0 for bounded).
  virtual std::size_t pending_size() const = 0;
  /// Fence of the in-flight phase (paper; 0 when idle). The bounded policy
  /// has no global fence — eligibility is per-block — and returns 0.
  virtual Ver fence() const = 0;

  std::size_t unfinished_tasks() const { return tasks_.live(); }
  TaskId floor() const { return floor_; }
  /// Smallest version id an unfinished task may still read: the oldest
  /// unfinished task's id (task ids double as read caps), or one above the
  /// floor when everything has finished.
  Ver min_reachable() const {
    return tasks_.empty() ? floor_ + 1 : tasks_.oldest();
  }

 protected:
  /// Hook for task_end: the paper policy re-checks its fence, the bounded
  /// policy sweeps newly unpinned ranges.
  virtual void on_task_retired() = 0;

  BlockPool& pool_;
  GcOwner& owner_;
  GcTaskTracker tasks_;
  TaskId floor_ = 0;  ///< max fence/shadower of any finished collection - 1
};

/// The paper's watermark-driven phase collector (Sec. III-B), bit-identical
/// to the historical GarbageCollector on the timed backend.
class PaperWatermarkPolicy final : public GcPolicy {
 public:
  /// Registers the gc/* metrics in `reg` (which must outlive this object).
  PaperWatermarkPolicy(BlockPool& pool, telemetry::MetricRegistry& reg,
                       GcOwner& owner);

  GcPolicyKind kind() const override { return GcPolicyKind::kPaper; }
  void on_shadowed(BlockIndex b, Ver shadower) override;
  bool maybe_collect() override;
  void forget(BlockIndex b) override;

  bool phase_active() const override { return phase_active_; }
  std::size_t shadowed_size() const override { return shadowed_.size(); }
  std::size_t pending_size() const override { return pending_.size(); }
  Ver fence() const override { return phase_active_ ? fence_ : 0; }

 private:
  struct Shadowed {
    BlockIndex block;
    std::uint32_t generation;
    Ver shadower;
  };

  void on_task_retired() override { try_finalize(); }
  void try_finalize();
  void finalize();

  telemetry::Counter shadowed_blocks_;
  telemetry::Counter phases_;
  telemetry::Gauge pending_blocks_;
  telemetry::Histogram pending_batch_;

  std::vector<Shadowed> shadowed_;
  std::vector<Shadowed> pending_;
  bool phase_active_ = false;
  Ver fence_ = 0;
};

/// Range-tracking bounded-space reclamation (Ben-David et al. / Wei &
/// Fatourou, PAPERS.md). Each registered block carries its own version and
/// shadower; a sweep frees every unlocked block whose [version, shadower)
/// range holds no unfinished task. Sweeps run from task_end (ranges just
/// became unpinned), from the manager's trigger, and — amortized — from
/// registration itself once the tracked set outgrows the last sweep's
/// survivors by the configured batch, which bounds the unreclaimed set at
/// (reachable versions + locked blocks + batch) regardless of how long the
/// oldest task lives.
class BoundedSpacePolicy final : public GcPolicy {
 public:
  BoundedSpacePolicy(std::size_t min_batch, BlockPool& pool,
                     telemetry::MetricRegistry& reg, GcOwner& owner);

  GcPolicyKind kind() const override { return GcPolicyKind::kBounded; }
  void on_shadowed(BlockIndex b, Ver shadower) override;
  void on_store_complete() override;
  bool maybe_collect() override;
  void forget(BlockIndex b) override;

  bool phase_active() const override { return false; }
  std::size_t shadowed_size() const override { return tracked_.size(); }
  std::size_t pending_size() const override { return 0; }
  Ver fence() const override { return 0; }

  /// Sweeps run since construction (test/telemetry visibility).
  std::uint64_t sweeps() const { return nsweeps_; }

 private:
  struct Tracked {
    BlockIndex block;
    std::uint32_t generation;
    Ver version;   ///< the shadowed version the block holds
    Ver shadower;  ///< version that shadowed it; readers lie in [version, ..)
  };

  void on_task_retired() override {
    if (!tracked_.empty()) sweep();
  }
  /// Returns the number of blocks reclaimed.
  std::uint64_t sweep();

  telemetry::Counter shadowed_blocks_;
  telemetry::Counter sweeps_;
  telemetry::Gauge pending_blocks_;
  telemetry::Histogram reclaim_batch_;

  std::vector<Tracked> tracked_;
  std::vector<Tracked> keep_;  ///< sweep scratch, reused across sweeps
  std::size_t min_batch_;
  std::size_t survivors_ = 0;  ///< tracked size after the last sweep
  std::uint64_t nsweeps_ = 0;
};

/// Policy factory: reads cfg.gc_policy (and the bounded policy's batch
/// knob) and registers the chosen policy's metrics in `reg`.
std::unique_ptr<GcPolicy> make_gc_policy(const OStructConfig& cfg,
                                         BlockPool& pool,
                                         telemetry::MetricRegistry& reg,
                                         GcOwner& owner);

}  // namespace osim
