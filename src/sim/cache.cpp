#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace osim {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.num_sets()),
      ways_(static_cast<std::size_t>(cfg.ways)) {
  if (sets_ == 0) {
    throw std::invalid_argument("cache must hold at least one set");
  }
  if (cfg_.line_bytes != kLineBytes) {
    throw std::invalid_argument("only 64-byte lines are modelled");
  }
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
  tags_.resize(sets_ * ways_);
  stamps_.resize(sets_ * ways_);
}

bool Cache::dirty(Addr addr) const {
  const std::size_t w = find(line_of(addr));
  return w != kAbsent && (tags_[w] & kDirty) != 0;
}

Cache::Eviction Cache::fill(Addr addr, bool dirty) {
  const Addr line = line_of(addr);
  assert(find(line) == kAbsent && "fill() of a line already present");
  const std::size_t base = set_base(line);
  std::size_t victim = base;
  for (std::size_t w = base; w < base + ways_; ++w) {
    if ((tags_[w] & kValid) == 0) {
      victim = w;
      break;
    }
    if (stamps_[w] < stamps_[victim]) victim = w;
  }
  Eviction ev;
  if ((tags_[victim] & kValid) != 0) {
    ev.valid = true;
    ev.line = tags_[victim] & kLineMask;
    ev.dirty = (tags_[victim] & kDirty) != 0;
  }
  tags_[victim] = line | kValid | (dirty ? kDirty : 0);
  stamps_[victim] = ++tick_;
  return ev;
}

bool Cache::invalidate(Addr addr) {
  const std::size_t w = find(line_of(addr));
  if (w == kAbsent) return false;
  tags_[w] = 0;
  return true;
}

void Cache::clean(Addr addr) {
  const std::size_t w = find(line_of(addr));
  if (w != kAbsent) tags_[w] &= ~kDirty;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  tick_ = 0;
}

std::uint64_t Cache::occupied_lines() const {
  return static_cast<std::uint64_t>(
      std::count_if(tags_.begin(), tags_.end(),
                    [](std::uint64_t t) { return (t & kValid) != 0; }));
}

}  // namespace osim
