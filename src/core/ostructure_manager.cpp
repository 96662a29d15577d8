#include "core/ostructure_manager.hpp"

#include <algorithm>

namespace osim {

MachineTimingModel::MachineTimingModel(Machine& m)
    : m_(m),
      cfg_(m.config().ostruct),
      comp_(static_cast<std::size_t>(m.config().num_cores)) {}

void MachineTimingModel::bind(VersionStore* store) {
  store_ = store;
  m_.memsys().set_line_drop_observer([this](CoreId core, Addr line) {
    if (is_compressed_addr(line)) {
      auto& map = comp_[static_cast<std::size_t>(core)];
      if (map.erase(slot_of_compressed(line)) > 0) {
        store_->compressed_discards_counter().inc();
      }
    }
  });
}

void MachineTimingModel::wake_slot(std::uint64_t slot) {
  // Host-context callers (release() from teardown code) have no fiber to
  // account the wakeup against; with no simulated core running there is no
  // one to wake either.
  if (Fiber::current() == nullptr) return;
  m_.wake_all(wl(slot), cfg_.wake_latency);
}

CompressedLine* MachineTimingModel::comp_line(CoreId core,
                                              std::uint64_t slot) {
  if (!m_.memsys().line_in_l1(core, compressed_addr(slot))) return nullptr;
  return comp_[static_cast<std::size_t>(core)].find(slot);
}

void MachineTimingModel::comp_install(std::uint64_t slot,
                                      const CompressedLine::Entry& e) {
  if (!cfg_.enable_compression) return;
  const CoreId core = m_.current_core();
  CompressedLine& cl = comp_[static_cast<std::size_t>(core)][slot];
  const std::uint64_t rejected_before = cl.range_rejections();
  if (cl.install(e)) {
    store_->compressed_installs_counter().inc();
  } else {
    store_->compress_overflows_counter().inc(cl.range_rejections() -
                                             rejected_before);
  }
  // Materialize the line in the L1 tag array (hardware builds it locally).
  m_.memsys().install_line(core, compressed_addr(slot), /*dirty=*/true);
}

void MachineTimingModel::comp_remote_insert(std::uint64_t slot, Ver v,
                                            bool at_head) {
  // Remote caches either discard their compressed line for this O-structure
  // when they observe the coherence message (paper: "the simplest course of
  // action is to discard the compressed version block") or — the paper's
  // future-work variant — patch it in situ. Either way the information
  // piggybacks on the version-block line's own coherence message (which the
  // paper extends to carry the list-head address), so no extra latency is
  // charged.
  const CoreId me = m_.current_core();
  if (!cfg_.inplace_comp_update) {
    m_.memsys().invalidate_others(me, compressed_addr(slot));
    return;
  }
  for (CoreId c = 0; c < m_.num_cores(); ++c) {
    if (c == me) continue;
    if (CompressedLine* cl = comp_line(c, slot)) cl->on_insert(v, at_head);
  }
}

void MachineTimingModel::comp_remote_lock(std::uint64_t slot, Ver v,
                                          TaskId locker) {
  const CoreId me = m_.current_core();
  if (!cfg_.inplace_comp_update) {
    m_.memsys().invalidate_others(me, compressed_addr(slot));
    return;
  }
  for (CoreId c = 0; c < m_.num_cores(); ++c) {
    if (c == me) continue;
    if (CompressedLine* cl = comp_line(c, slot)) cl->set_lock(v, locker);
  }
}

void MachineTimingModel::lookup_done(std::uint64_t slot, const FindResult& fr,
                                     bool exact, Ver key, bool exclusive,
                                     std::optional<TaskId> probe_locked_by) {
  const CoreId core = m_.current_core();
  const AccessType final_access =
      exclusive ? AccessType::kWrite : AccessType::kRead;

  // Snapshot the block's fields now: the charged walk below yields, and the
  // block could be reclaimed or mutated before the walk completes. Lock
  // operations apply their semantic effect before charging, so the snapshot
  // already carries the new lock while `probe_locked_by` holds the pre-lock
  // state a resident compressed entry would still show.
  CompressedLine::Entry snap;
  {
    const VersionBlock& vb = store_->pool()[fr.block];
    snap.version = vb.version;
    snap.locked_by = vb.locked_by;
    snap.data = vb.data;
    snap.is_head = fr.is_head;
    snap.has_newer = fr.has_newer;
    snap.newer_version = fr.newer;
  }

  if (cfg_.enable_compression) {
    if (CompressedLine* cl = comp_line(core, slot)) {
      const auto e = exact ? cl->find_exact(key) : cl->find_latest(key);
      const TaskId want = probe_locked_by.value_or(snap.locked_by);
      if (e && e->version == snap.version && e->locked_by == want) {
        // Direct access: a single L1 probe of the compressed line.
        store_->counters(core).direct_hits++;
        m_.mem_access(compressed_addr(slot), final_access);
        return;
      }
    }
  }

  // Full lookup: the physical address of the list head comes from the page
  // table through the TLB (paper Fig. 4) — cached translation, no memory
  // access — then the version block list is walked. Blocks passed over are
  // read without polluting the L1; the requested block is installed
  // normally and its compressed entry is (re)built.
  VersionStore::PerCoreCounters& pc = store_->counters(core);
  pc.full_lookups++;
  pc.walk_blocks += static_cast<std::uint64_t>(fr.blocks_walked);
  store_->walk_length_hist().observe(
      static_cast<std::uint64_t>(fr.blocks_walked));
  AccessOptions nofill;
  nofill.fill_l1 = !cfg_.pollution_avoidance;
  // Re-walk the current list for addresses; the list may have changed since
  // the semantic decision, so bound the walk by both count and list end.
  int remaining = fr.blocks_walked - 1;
  for (BlockIndex b = store_->root_of(slot); b != kNullBlock && remaining > 0;
       b = store_->pool()[b].next, --remaining) {
    m_.mem_access(version_block_addr(b), AccessType::kRead, nofill);
  }
  // Compressed/uncompressed choice (paper Sec. III-A): packing into a
  // compressed line only pays when the slot holds multiple versions (one
  // 64-byte line carries 8 of them); a single-version slot is denser as a
  // plain block line (4 blocks per line). The L1 keeps exactly one resident
  // form per lookup: the compressed line, or the uncompressed block line.
  const bool compress = cfg_.enable_compression && store_->nversions(slot) > 1;
  AccessOptions final_opts;
  final_opts.fill_l1 = !compress;
  m_.mem_access(version_block_addr(fr.block), final_access, final_opts);
  if (compress) comp_install(slot, snap);
}

void MachineTimingModel::lock_applied(std::uint64_t slot, Ver v,
                                      TaskId locker) {
  if (CompressedLine* cl = comp_line(m_.current_core(), slot)) {
    cl->set_lock(v, locker);
  }
  comp_remote_lock(slot, v, locker);
}

void MachineTimingModel::unlock_applied(std::uint64_t slot, BlockIndex b,
                                        Ver v) {
  m_.mem_access(version_block_addr(b), AccessType::kWrite);
  if (CompressedLine* cl = comp_line(m_.current_core(), slot)) {
    cl->set_lock(v, kNoTask);
  }
  comp_remote_lock(slot, v, kNoTask);
}

void MachineTimingModel::store_charged(std::uint64_t slot,
                                       const InsertResult& ir,
                                       BlockIndex nb) {
  // Walk to the insertion point (the list head address itself is a
  // TLB-cached page-table translation) and the two exclusive line
  // acquisitions of the insertion protocol (new block + predecessor,
  // lowest-address first per the paper's deadlock-avoidance order). The new
  // block is already linked, so the walk skips it.
  AccessOptions nofill;
  nofill.fill_l1 = false;
  int remaining = ir.blocks_walked;
  for (BlockIndex b = store_->root_of(slot); b != kNullBlock && remaining > 0;
       b = store_->pool()[b].next, --remaining) {
    if (b != nb) {
      m_.mem_access(version_block_addr(b), AccessType::kRead, nofill);
    }
  }
  const Addr na = version_block_addr(nb);
  const Addr pa =
      ir.pred != kNullBlock ? version_block_addr(ir.pred) : root_addr(slot);
  m_.mem_access(std::min(na, pa), AccessType::kWrite);
  m_.mem_access(std::max(na, pa), AccessType::kWrite);
  if (ir.at_head) m_.mem_access(root_addr(slot), AccessType::kWrite);
}

void MachineTimingModel::store_installed(std::uint64_t slot,
                                         const CompressedLine::Entry& snap) {
  // Compressed-line maintenance: patch the local line's adjacency, install
  // the new version, and make remote caches discard their copies.
  const CoreId core = m_.current_core();
  if (CompressedLine* cl = comp_line(core, slot)) {
    cl->on_insert(snap.version, snap.is_head);
  }
  if (store_->nversions(slot) > 1) comp_install(slot, snap);
  comp_remote_insert(slot, snap.version, snap.is_head);
}

void MachineTimingModel::block_reclaimed(BlockIndex b, std::uint64_t slot,
                                         Ver v) {
  for (auto& per_core : comp_) {
    if (CompressedLine* cl = per_core.find(slot)) cl->erase(v);
  }
  // Reclamation always happens inside a fiber (GC phases are driven by
  // versioned ops and TASK-END), so the clock is valid for the lifetime
  // and lag distributions.
  const Cycles now = m_.now();
  const VersionBlock& vb = store_->pool()[b];
  store_->version_lifetime_hist().observe(now - vb.born_at);
  store_->reclaim_lag_hist().observe(now - vb.shadowed_at);
}

void MachineTimingModel::slot_released(std::uint64_t slot) {
  for (auto& per_core : comp_) per_core.erase(slot);
}

}  // namespace osim
