// The cycle-accurate (timed) backend of the O-structure Memory Version
// Manager (paper Sec. III, Fig. 2).
//
// The *semantics* of the versioned instruction set live in
// core/version_store.hpp; this header supplies the machine model they run
// against:
//
//   * MachineTimingModel — the TimingModel that turns each reported semantic
//     effect into simulated cache-hierarchy traffic, fiber scheduling and
//     wait lists, per-core compressed version lines, and the lifetime stamps
//     kept in each block's host bookkeeping. A direct access costs one L1
//     probe of the slot's compressed line; a full lookup costs the
//     root-pointer access plus one access per version block walked, with
//     only the final block installed in L1 (the paper's pollution
//     avoidance). Because operations serialize at timestamps, the paper's
//     two-cache-line exclusive-acquisition/retry protocol for inserts can
//     never actually race here; its cost (two exclusive line acquisitions)
//     is still charged.
//
//   * OStructureManager — the wiring: it builds a VersionStore and its
//     MachineTimingModel and binds them. Callers drive the ISA through
//     store().
//
// Blocking semantics (a load of an uncreated version, a load/lock of a
// locked version) park the core's fiber on the slot's wait list; every store
// or unlock to the slot wakes the waiters, which re-evaluate.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/compressed_line.hpp"
#include "core/timing_model.hpp"
#include "core/version_store.hpp"
#include "sim/machine.hpp"

namespace osim {

/// Charges VersionStore's semantic effects against a simulated Machine.
/// Owns the purely-timing state the engine deliberately does not know about:
/// per-core compressed lines and per-slot wait lists. It also writes the
/// blocks' lifetime stamps (VersionBlock::born_at, shadowed_at), which only
/// feed its lifetime and reclaim-lag histograms.
class MachineTimingModel final : public TimingModel {
 public:
  explicit MachineTimingModel(Machine& m);

  /// Attach the engine this model charges for. Registers the model as the
  /// machine's L1 drop observer (compressed-line coherence); call exactly
  /// once, before any operation runs.
  void bind(VersionStore* store);

  // ---- TimingModel ----
  bool in_op_context() const override { return Fiber::current() != nullptr; }
  Cycles now() const override { return m_.now(); }
  CoreId core() const override { return m_.current_core(); }

  void op_serialize() override { m_.sync_to_global_order(); }
  void op_overhead() override { m_.advance(cfg_.injected_latency); }
  void task_instr() override { m_.exec(1); }

  void wait_on_slot(const WaitContext& w) override { m_.block_on(wl(w.slot)); }
  void wake_slot(std::uint64_t slot) override;

  void lookup_done(std::uint64_t slot, const FindResult& fr, bool exact,
                   Ver key, bool exclusive,
                   std::optional<TaskId> probe_locked_by) override;
  void lock_applied(std::uint64_t slot, Ver v, TaskId locker) override;
  void unlock_applied(std::uint64_t slot, BlockIndex b, Ver v) override;

  void free_list_access() override {
    m_.mem_access(free_list_addr(m_.current_core()), AccessType::kWrite);
  }
  void gc_triggered() override { m_.advance(cfg_.gc_trigger_latency); }
  void os_trapped() override { m_.advance(cfg_.os_trap_latency); }
  void block_allocated(BlockIndex b) override {
    store_->pool()[b].born_at = m_.now();
  }

  void store_charged(std::uint64_t slot, const InsertResult& ir,
                     BlockIndex nb) override;
  void block_shadowed(BlockIndex b) override {
    store_->pool()[b].shadowed_at = m_.now();
  }
  void store_installed(std::uint64_t slot,
                       const CompressedLine::Entry& snap) override;

  void block_reclaimed(BlockIndex b, std::uint64_t slot, Ver v) override;
  void slot_released(std::uint64_t slot) override;

 private:
  /// The core's compressed line for `slot`, valid only while the line is
  /// resident in its L1; nullptr otherwise.
  CompressedLine* comp_line(CoreId core, std::uint64_t slot);
  /// Install/refresh a compressed entry after a lookup or store. Takes a
  /// snapshot of the block's fields (the block itself may be reclaimed
  /// during the charged walk's yields).
  void comp_install(std::uint64_t slot, const CompressedLine::Entry& e);
  /// Propagate an insert on `slot` to remote compressed lines: discard
  /// them (the paper's simple policy) or, under inplace_comp_update, patch
  /// their head/adjacency metadata through the extended coherence message.
  void comp_remote_insert(std::uint64_t slot, Ver v, bool at_head);
  /// Propagate a lock-field change likewise.
  void comp_remote_lock(std::uint64_t slot, Ver v, TaskId locker);

  /// Wait list of `slot`, grown on first use (slots are engine state; only
  /// their parked fibers live here).
  WaitList& wl(std::uint64_t slot) {
    if (waiters_.size() <= slot) waiters_.resize(slot + 1);
    return waiters_[slot];
  }

  Machine& m_;
  OStructConfig cfg_;
  VersionStore* store_ = nullptr;
  /// Per-core side storage for compressed lines (timing metadata; presence
  /// in L1 is tracked by the real tag array via compressed_addr()). Probed
  /// on every versioned lookup and on every L1 line drop, so it uses the
  /// flat open-addressed map rather than std::unordered_map.
  std::vector<FlatMap<std::uint64_t, CompressedLine>> comp_;
  /// Per-slot wait lists, indexed by slot, grown lazily.
  std::vector<WaitList> waiters_;
};

/// The timed backend's wiring: the semantic engine bound to a
/// MachineTimingModel. The ISA, inspection and tracing are store()'s.
class OStructureManager {
 public:
  /// The manager registers itself as the machine's L1 drop observer (for
  /// compressed-line coherence); create at most one per machine.
  explicit OStructureManager(Machine& m)
      : timing_(m),
        store_(m.config().ostruct, m.num_cores(), m.metrics(), timing_) {
    timing_.bind(&store_);
  }

  VersionStore& store() { return store_; }

 private:
  /// Declared before store_: the engine's constructor takes the model by
  /// reference and keeps it for life.
  MachineTimingModel timing_;
  VersionStore store_;
};

}  // namespace osim
