// Multi-core memory hierarchy: private L1s, a shared inclusive L2, DRAM, and
// an invalidation-based (MSI-style) coherence directory.
//
// Timing model (Table II + Sec. IV-D of the paper):
//   L1 hit                       4 cycles
//   L2 hit                      35 cycles
//   DRAM                       120 cycles (60 ns at 2 GHz)
//   remote-L1 forward           38 cycles ("comparable to LLC", Sec. IV-D)
//   sharer invalidation        +20 cycles on upgrades / write misses
//
// Version-list walks use `fill_l1 = false` so traversed blocks do not evict
// hot lines (the paper's cache-pollution avoidance: "only the block that
// holds the requested version is inserted into the cache").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/flat_map.hpp"
#include "core/types.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "telemetry/metrics.hpp"

namespace osim {

enum class AccessType { kRead, kWrite };

struct AccessOptions {
  /// Install the line into the requester's L1 on a miss. Disabled during
  /// version-block list walks except for the final (requested) block.
  bool fill_l1 = true;
};

class MemorySystem {
 public:
  /// Registers the cache/* per-core counters in `reg`, backed by this
  /// object's packed counter block (counter_vec_external); this object and
  /// the registry must share a lifetime (both live in the Machine). Throws
  /// std::invalid_argument unless 1 <= cfg.num_cores <= 64: the directory
  /// keeps each line's sharers in one 64-bit mask.
  MemorySystem(const MachineConfig& cfg, telemetry::MetricRegistry& reg);

  /// Perform one access and return its latency in cycles.
  Cycles access(CoreId core, Addr addr, AccessType type,
                AccessOptions opts = {});

  /// Invalidate `addr`'s line in every L1 except `except`. Returns the added
  /// latency (0 if no remote copies existed). Used for compressed
  /// version-block coherence (the paper's "discard on coherence message").
  Cycles invalidate_others(CoreId except, Addr addr);

  /// Install a line into `core`'s L1 without fetching it from below (the
  /// O-structure hardware *builds* compressed lines locally after a walk).
  /// Charges no latency; evictions behave as usual.
  void install_line(CoreId core, Addr addr, bool dirty);

  /// True if `addr`'s line is resident in `core`'s L1.
  bool line_in_l1(CoreId core, Addr addr) const {
    return l1s_[static_cast<std::size_t>(core)].contains(addr);
  }

  /// Observer invoked whenever a line leaves an L1 for any reason (eviction,
  /// upgrade-invalidation, back-invalidation). The O-structure manager uses
  /// it to drop compressed-line side state.
  using LineDropObserver = std::function<void(CoreId, Addr line)>;
  void set_line_drop_observer(LineDropObserver obs) {
    drop_observer_ = std::move(obs);
  }

  /// Empty all caches and the directory (between experiment phases).
  void flush_all();

  Cache& l1(CoreId core) { return l1s_[static_cast<std::size_t>(core)]; }
  const Cache& l1(CoreId core) const {
    return l1s_[static_cast<std::size_t>(core)];
  }
  Cache& l2() { return l2_; }
  const MachineConfig& config() const { return cfg_; }

 private:
  struct DirEntry {
    std::uint64_t sharers = 0;  // bitmask of cores with a (shared) copy
    CoreId owner = -1;          // core holding the line modified, or -1
  };

  void drop_from_l1(CoreId core, Addr line);
  /// Fill `line` into `core`'s L1, which must not hold it, and untrack the
  /// line it evicts.
  void fill_l1(CoreId core, Addr line, bool dirty);
  /// Clear `core` from `line`'s directory entry, erasing the entry once it
  /// is empty, and tell the drop observer. The line has left `core`'s L1.
  void untrack(CoreId core, Addr line);
  /// Invalidate all copies of `line` except `except`'s, given the line's
  /// directory entry (nullptr if it has none); returns true if any existed.
  bool invalidate_copies(CoreId except, Addr line, const DirEntry* de);
  void fill_l2_line(Addr line);

  MachineConfig cfg_;
  /// Per-core access counters, packed so each access touches a single cache
  /// line of counter state (an access bumps 2-3 of these). Registered with
  /// the machine's registry as external-storage counter vectors.
  struct PerCoreCounters {
    std::uint64_t loads = 0, stores = 0;
    std::uint64_t l1_hits = 0, l1_misses = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0;
    std::uint64_t remote_l1_fills = 0, upgrades = 0;
  };
  std::vector<PerCoreCounters> counters_;  ///< fixed size; registry reads it
  std::vector<Cache> l1s_;
  Cache l2_;
  /// Coherence directory: a flat open-addressed map keyed by line address
  /// (see core/flat_map.hpp). An absent entry means what a default one
  /// would (no sharers, no owner), and no entry is ever left at the
  /// default. An L1 read hit does not touch it; see access().
  FlatMap<Addr, DirEntry> dir_;
  LineDropObserver drop_observer_;
};

}  // namespace osim
