// Tag-only set-associative cache model with LRU replacement.
//
// The simulator is execution-driven: data lives in host memory (or, for
// version blocks, in the manager's pool), so the caches track only presence,
// dirtiness and recency of 64-byte lines. That is all the paper's timing
// model needs: hit/miss classification and eviction behaviour.
//
// Each way is one 64-bit tag word: the line address, whose six low bits are
// always zero, with the valid and dirty flags in those bits. The words sit
// in one contiguous array, so an 8-way set spans 64 bytes (one host cache
// line) and a 16-way set two. LRU stamps live in a parallel array that only
// hits and fills touch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sim/config.hpp"

namespace osim {

class Cache {
 public:
  struct Eviction {
    bool valid = false;  ///< a line was evicted
    Addr line = 0;
    bool dirty = false;
  };

  explicit Cache(const CacheConfig& cfg);

  /// True if the line holding `addr` is present (does not touch recency).
  bool contains(Addr addr) const { return find(line_of(addr)) != kAbsent; }

  /// True if the line is present *and* dirty.
  bool dirty(Addr addr) const;

  /// Probe and update recency. Returns true on hit; marks dirty on writes.
  bool access(Addr addr, bool write) {
    const std::size_t w = find(line_of(addr));
    if (w == kAbsent) return false;
    stamps_[w] = ++tick_;
    if (write) tags_[w] |= kDirty;
    return true;
  }

  /// Insert the line (after a miss) into the set's first invalid way, or
  /// else evict the set's least recently used line.
  Eviction fill(Addr addr, bool dirty);

  /// Remove the line if present. Returns true if it was present.
  bool invalidate(Addr addr);

  /// Clear the dirty bit (after a writeback/downgrade). No-op if absent.
  void clean(Addr addr);

  /// Drop every line. Used between experiment repetitions.
  void flush();

  const CacheConfig& config() const { return cfg_; }
  std::uint64_t occupied_lines() const;

 private:
  /// Tag-word flags, in the low bits a line address always has clear. A
  /// valid line 0 has the word kValid, so address 0 needs no special case.
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static_assert((kValid | kDirty) < static_cast<std::uint64_t>(kLineBytes),
                "flags must fit below the line offset");
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index in tags_ of the first way of `line`'s set.
  std::size_t set_base(Addr line) const {
    // Power-of-two set counts (the common case: every Table II L1) index
    // with a mask; others (e.g. the 1536-set L2) fall back to modulo.
    const std::uint64_t n = line / kLineBytes;
    return static_cast<std::size_t>(set_mask_ != 0 ? (n & set_mask_)
                                                   : n % sets_) *
           ways_;
  }
  /// Index in tags_ of `line`'s way, or kAbsent.
  std::size_t find(Addr line) const {
    const std::size_t base = set_base(line);
    const std::uint64_t want = line | kValid;
    for (std::size_t w = base; w < base + ways_; ++w) {
      if ((tags_[w] & ~kDirty) == want) return w;
    }
    return kAbsent;
  }

  CacheConfig cfg_;
  std::size_t sets_;
  std::size_t ways_;
  std::uint64_t set_mask_ = 0;  // sets_ - 1 when sets_ is a power of two
  /// sets_ * ways_ tag words, row-major by set; 0 is an invalid way.
  std::vector<std::uint64_t> tags_;
  /// LRU stamp of each way, parallel to tags_; larger = more recently used.
  std::vector<std::uint64_t> stamps_;
  std::uint64_t tick_ = 0;
};

}  // namespace osim
