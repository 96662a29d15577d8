#include "sim/memory_system.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace osim {

namespace {
std::uint64_t bit(CoreId c) { return std::uint64_t{1} << c; }

MachineConfig checked(const MachineConfig& cfg) {
  if (cfg.num_cores < 1 || cfg.num_cores > 64) {
    throw std::invalid_argument(
        "num_cores must be in [1, 64] (the directory's sharer mask has 64 "
        "bits), got " +
        std::to_string(cfg.num_cores));
  }
  return cfg;
}
}  // namespace

MemorySystem::MemorySystem(const MachineConfig& cfg,
                           telemetry::MetricRegistry& reg)
    : cfg_(checked(cfg)),
      counters_(static_cast<std::size_t>(cfg.num_cores)),
      l2_(cfg.l2_config()) {
  static_assert(sizeof(PerCoreCounters) == 8 * sizeof(std::uint64_t),
                "stride below assumes a dense all-uint64 struct");
  constexpr std::size_t kStride =
      sizeof(PerCoreCounters) / sizeof(std::uint64_t);
  using telemetry::Component;
  const PerCoreCounters* base = counters_.data();
  reg.counter_vec_external(Component::kCache, "loads", &base->loads, kStride);
  reg.counter_vec_external(Component::kCache, "stores", &base->stores,
                           kStride);
  reg.counter_vec_external(Component::kCache, "l1_hits", &base->l1_hits,
                           kStride);
  reg.counter_vec_external(Component::kCache, "l1_misses", &base->l1_misses,
                           kStride);
  reg.counter_vec_external(Component::kCache, "l2_hits", &base->l2_hits,
                           kStride);
  reg.counter_vec_external(Component::kCache, "l2_misses", &base->l2_misses,
                           kStride);
  reg.counter_vec_external(Component::kCache, "remote_l1_fills",
                           &base->remote_l1_fills, kStride);
  reg.counter_vec_external(Component::kCache, "upgrades", &base->upgrades,
                           kStride);
  l1s_.reserve(static_cast<std::size_t>(cfg.num_cores));
  for (int i = 0; i < cfg.num_cores; ++i) l1s_.emplace_back(cfg.l1);
}

void MemorySystem::drop_from_l1(CoreId core, Addr line) {
  if (l1s_[static_cast<std::size_t>(core)].invalidate(line)) {
    untrack(core, line);
  }
}

void MemorySystem::fill_l1(CoreId core, Addr line, bool dirty) {
  const Cache::Eviction ev =
      l1s_[static_cast<std::size_t>(core)].fill(line, dirty);
  // Writebacks land in the (inclusive) L2; bandwidth is not modelled.
  if (ev.valid) untrack(core, ev.line);
}

void MemorySystem::untrack(CoreId core, Addr line) {
  if (DirEntry* de = dir_.find(line)) {
    de->sharers &= ~bit(core);
    if (de->owner == core) de->owner = -1;
    if (de->sharers == 0 && de->owner == -1) dir_.erase(line);
  }
  if (drop_observer_) drop_observer_(core, line);
}

bool MemorySystem::invalidate_copies(CoreId except, Addr line,
                                     const DirEntry* de) {
  if (de == nullptr) return false;
  // Every core holding a copy, in ascending order. The mask is taken before
  // the first drop, which updates (and may erase) the entry.
  std::uint64_t holders = de->sharers;
  if (de->owner != -1) holders |= bit(de->owner);
  holders &= ~bit(except);
  for (std::uint64_t rest = holders; rest != 0; rest &= rest - 1) {
    drop_from_l1(static_cast<CoreId>(std::countr_zero(rest)), line);
  }
  return holders != 0;
}

void MemorySystem::fill_l2_line(Addr line) {
  if (l2_.contains(line)) return;
  Cache::Eviction ev = l2_.fill(line, /*dirty=*/false);
  if (ev.valid) {
    // Inclusive L2: back-invalidate the victim from every L1.
    for (int c = 0; c < cfg_.num_cores; ++c) drop_from_l1(c, ev.line);
  }
}

Cycles MemorySystem::access(CoreId core, Addr addr, AccessType type,
                            AccessOptions opts) {
  const Addr line = line_of(addr);
  const bool write = type == AccessType::kWrite;
  PerCoreCounters& pc = counters_[static_cast<std::size_t>(core)];
  (write ? pc.stores : pc.loads)++;

  Cache& l1 = l1s_[static_cast<std::size_t>(core)];
  if (l1.access(line, write)) {
    pc.l1_hits++;
    // A read hit leaves the directory as it is, so it does not look.
    if (!write) return cfg_.l1.hit_latency;
    const DirEntry* de = dir_.find(line);
    if (de != nullptr && de->owner == core) return cfg_.l1.hit_latency;
    // Upgrade: invalidate the other sharers before writing.
    pc.upgrades++;
    Cycles lat = cfg_.l1.hit_latency;
    if (invalidate_copies(core, line, de)) lat += cfg_.invalidate_latency;
    // invalidate_copies may have erased the entry; re-establish ownership.
    DirEntry& mine = dir_[line];
    mine.sharers = bit(core);
    mine.owner = core;
    return lat;
  }

  pc.l1_misses++;
  Cycles lat = cfg_.l1.hit_latency;  // tag probe before going down

  // Remote L1 holds the line modified: cache-to-cache forward.
  DirEntry* de = dir_.find(line);
  if (de != nullptr && de->owner != -1 && de->owner != core) {
    pc.remote_l1_fills++;
    lat += cfg_.remote_l1_latency;
    const CoreId owner = de->owner;
    if (write) {
      drop_from_l1(owner, line);
    } else {
      // Downgrade the owner to shared; its dirty data reaches the L2. The
      // owner stays a sharer, so the entry stays live.
      l1s_[static_cast<std::size_t>(owner)].clean(line);
      de->owner = -1;
      fill_l2_line(line);
    }
  } else if (l2_.access(line, /*write=*/false)) {
    pc.l2_hits++;
    lat += cfg_.l2_hit_latency;
    if (write && invalidate_copies(core, line, de)) {
      lat += cfg_.invalidate_latency;
    }
  } else {
    pc.l2_misses++;
    lat += cfg_.l2_hit_latency;  // L2 lookup that missed
    lat += cfg_.dram_latency;
    if (write && invalidate_copies(core, line, de)) {
      lat += cfg_.invalidate_latency;
    }
    fill_l2_line(line);
  }

  if (opts.fill_l1) {
    fill_l1(core, line, write);
    DirEntry& mine = dir_[line];
    if (write) {
      mine.sharers = bit(core);
      mine.owner = core;
    } else {
      mine.sharers |= bit(core);
    }
  } else if (write) {
    // No-fill access: the line stays in the L2 only and the directory is
    // not written. A read just returns the data; a write goes through to
    // the L2 (the O-structure hardware keeps the compressed line as the
    // L1-resident copy instead).
    l2_.access(line, /*write=*/true);
  }
  return lat;
}

void MemorySystem::install_line(CoreId core, Addr addr, bool dirty) {
  const Addr line = line_of(addr);
  Cache& l1 = l1s_[static_cast<std::size_t>(core)];
  // access() doubles as "touch if present": it refreshes recency and the
  // dirty bit of a line the L1 already holds.
  if (!l1.access(line, dirty)) fill_l1(core, line, dirty);
  DirEntry& de = dir_[line];
  de.sharers |= bit(core);
  if (dirty) de.owner = core;
}

Cycles MemorySystem::invalidate_others(CoreId except, Addr addr) {
  const Addr line = line_of(addr);
  return invalidate_copies(except, line, dir_.find(line))
             ? cfg_.invalidate_latency
             : 0;
}

void MemorySystem::flush_all() {
  for (auto& c : l1s_) c.flush();
  l2_.flush();
  dir_.clear();
}

}  // namespace osim
