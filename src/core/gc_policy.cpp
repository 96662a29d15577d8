#include "core/gc_policy.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/fault.hpp"

namespace osim {

// ---------------------------------------------------------------------------
// Policy-independent task lifecycle (GC rules #1-#3)

void check_task_created(TaskId t, TaskId oldest, TaskId floor) {
  if (t < oldest) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "task " + std::to_string(t) +
                     " is older than the oldest unfinished task " +
                     std::to_string(oldest));
  }
  if (t <= floor) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "task " + std::to_string(t) +
                     " is not above the GC floor " + std::to_string(floor));
  }
}

void check_task_end(TaskId t, bool running) {
  if (!running) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "TASK-END for task " + std::to_string(t) +
                     " which is not running");
  }
}

void GcPolicy::task_created(TaskId t) {
  check_task_created(t, tasks_.empty() ? kNoTask : tasks_.oldest(), floor_);
  tasks_.add(t);
}

void GcPolicy::task_begin(TaskId t) {
  if (!tasks_.contains(t)) task_created(t);
}

void GcPolicy::task_end(TaskId t) {
  check_task_end(t, /*running=*/tasks_.remove(t));
  on_task_retired();
}

// ---------------------------------------------------------------------------
// PaperWatermarkPolicy

PaperWatermarkPolicy::PaperWatermarkPolicy(BlockPool& pool,
                                           telemetry::MetricRegistry& reg,
                                           GcOwner& owner)
    : GcPolicy(pool, owner),
      shadowed_blocks_(
          reg.counter(telemetry::Component::kGc, "shadowed_blocks")),
      phases_(reg.counter(telemetry::Component::kGc, "phases")),
      pending_blocks_(reg.gauge(telemetry::Component::kGc, "pending_blocks")),
      pending_batch_(reg.histogram(telemetry::Component::kGc,
                                   "pending_batch_blocks",
                                   {1, 4, 16, 64, 256, 1024, 4096, 16384})) {}

void PaperWatermarkPolicy::on_shadowed(BlockIndex b, Ver shadower) {
  VersionBlock& vb = pool_[b];
  assert(vb.state == BlockState::kLive);
  vb.state = BlockState::kShadowed;
  shadowed_.push_back({b, vb.generation, shadower});
  shadowed_blocks_.inc();
}

bool PaperWatermarkPolicy::maybe_collect() {
  if (phase_active_ || shadowed_.empty()) return false;
  pending_.swap(shadowed_);
  fence_ = 0;
  for (auto& s : pending_) {
    VersionBlock& vb = pool_[s.block];
    if (vb.generation == s.generation && vb.state == BlockState::kShadowed) {
      vb.state = BlockState::kPending;
      owner_.gc_event(telemetry::EventType::kBlockPending, vb.slot,
                      vb.version, s.block);
    }
    fence_ = std::max(fence_, s.shadower);
  }
  phase_active_ = true;
  phases_.inc();
  pending_batch_.observe(pending_.size());
  pending_blocks_.set(pending_.size());
  owner_.gc_event(telemetry::EventType::kGcPhaseBegin, 0, 0, fence_);
  try_finalize();
  return true;
}

void PaperWatermarkPolicy::forget(BlockIndex b) {
  const std::uint32_t gen = pool_[b].generation;
  auto match = [&](const Shadowed& s) {
    return s.block == b && s.generation == gen;
  };
  shadowed_.erase(std::remove_if(shadowed_.begin(), shadowed_.end(), match),
                  shadowed_.end());
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(), match),
                 pending_.end());
  pending_blocks_.set(pending_.size());
}

void PaperWatermarkPolicy::try_finalize() {
  if (!phase_active_) return;
  // Every pending block's possible readers are tasks older than the fence;
  // finalize once no unfinished task is that old.
  if (!tasks_.empty() && tasks_.oldest() < fence_) return;
  finalize();
}

void PaperWatermarkPolicy::finalize() {
  std::uint64_t reclaimed = 0;
  for (auto& s : pending_) {
    VersionBlock& vb = pool_[s.block];
    if (vb.generation != s.generation || vb.state != BlockState::kPending) {
      continue;  // the O-structure was released wholesale in the meantime
    }
    assert(vb.locked_by == kNoTask &&
           "GC rules guarantee reclaimed versions are unlocked");
    owner_.gc_reclaim(s.block);
    ++reclaimed;
  }
  pending_.clear();
  pending_blocks_.set(0);
  owner_.gc_event(telemetry::EventType::kGcPhaseEnd, 0, 0, reclaimed);
  // Future tasks must be too young to read anything reclaimed under this
  // fence. (Readers of a version shadowed by `fence_` have ids < fence_, so
  // the floor is fence_ - 1; keep it simple and monotone.)
  if (fence_ > 0) floor_ = std::max(floor_, fence_ - 1);
  phase_active_ = false;
}

// ---------------------------------------------------------------------------
// BoundedSpacePolicy

BoundedSpacePolicy::BoundedSpacePolicy(std::size_t min_batch, BlockPool& pool,
                                       telemetry::MetricRegistry& reg,
                                       GcOwner& owner)
    : GcPolicy(pool, owner),
      shadowed_blocks_(
          reg.counter(telemetry::Component::kGc, "shadowed_blocks")),
      sweeps_(reg.counter(telemetry::Component::kGc, "sweeps")),
      pending_blocks_(reg.gauge(telemetry::Component::kGc, "pending_blocks")),
      reclaim_batch_(reg.histogram(telemetry::Component::kGc,
                                   "reclaim_batch_blocks",
                                   {1, 4, 16, 64, 256, 1024, 4096, 16384})),
      min_batch_(min_batch == 0 ? 1 : min_batch) {}

void BoundedSpacePolicy::on_shadowed(BlockIndex b, Ver shadower) {
  VersionBlock& vb = pool_[b];
  assert(vb.state == BlockState::kLive);
  vb.state = BlockState::kShadowed;
  tracked_.push_back({b, vb.generation, vb.version, shadower});
  shadowed_blocks_.inc();
  pending_blocks_.set(tracked_.size());
}

void BoundedSpacePolicy::on_store_complete() {
  // Amortized space bound: every sweep is paid for by `min_batch_` new
  // registrations, and between sweeps the tracked set can exceed the
  // reclaimable-free survivor set by at most that batch. Runs here rather
  // than from on_shadowed so reclamation never interleaves with a store
  // whose timing-layer install is still in flight.
  if (tracked_.size() >= survivors_ + min_batch_) sweep();
}

bool BoundedSpacePolicy::maybe_collect() {
  if (tracked_.empty()) return false;
  return sweep() != 0;
}

void BoundedSpacePolicy::forget(BlockIndex b) {
  const std::uint32_t gen = pool_[b].generation;
  tracked_.erase(std::remove_if(tracked_.begin(), tracked_.end(),
                                [&](const Tracked& e) {
                                  return e.block == b && e.generation == gen;
                                }),
                 tracked_.end());
  if (survivors_ > tracked_.size()) survivors_ = tracked_.size();
  pending_blocks_.set(tracked_.size());
}

std::uint64_t BoundedSpacePolicy::sweep() {
  ++nsweeps_;
  sweeps_.inc();
  std::uint64_t reclaimed = 0;
  Ver max_shadower = 0;
  keep_.clear();
  for (const Tracked& e : tracked_) {
    VersionBlock& vb = pool_[e.block];
    if (vb.generation != e.generation || vb.state != BlockState::kShadowed) {
      continue;  // the O-structure was released wholesale in the meantime
    }
    // Only a task id in [version, shadower) can still name this block
    // (ids double as read caps, and any younger task's LOAD-LATEST resolves
    // at or above the shadower — see the safety argument in DESIGN.md).
    // Locked blocks wait: the ISA frees them through UNLOCK, never the GC.
    if (vb.locked_by != kNoTask || tasks_.any_in(e.version, e.shadower)) {
      keep_.push_back(e);
      continue;
    }
    // Mirror the paper policy's observable lifecycle per block — pending,
    // then freed — so the protocol checker's GC invariants apply unchanged.
    vb.state = BlockState::kPending;
    owner_.gc_event(telemetry::EventType::kBlockPending, vb.slot, vb.version,
                    e.block);
    owner_.gc_reclaim(e.block);
    max_shadower = std::max(max_shadower, e.shadower);
    ++reclaimed;
  }
  tracked_.swap(keep_);
  survivors_ = tracked_.size();
  pending_blocks_.set(tracked_.size());
  if (reclaimed != 0) {
    reclaim_batch_.observe(reclaimed);
    // Same monotone floor rule as the paper policy's finalize: every
    // reclaimed range [v, s) has s <= max_shadower, so no task created
    // above max_shadower - 1 can land inside any of them.
    if (max_shadower > 0) floor_ = std::max(floor_, max_shadower - 1);
  }
  return reclaimed;
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<GcPolicy> make_gc_policy(const OStructConfig& cfg,
                                         BlockPool& pool,
                                         telemetry::MetricRegistry& reg,
                                         GcOwner& owner) {
  if (cfg.gc_policy == GcPolicyKind::kBounded) {
    return std::make_unique<BoundedSpacePolicy>(cfg.gc_bounded_batch, pool,
                                                reg, owner);
  }
  return std::make_unique<PaperWatermarkPolicy>(pool, reg, owner);
}

}  // namespace osim
