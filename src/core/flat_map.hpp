// Open-addressed hash map for unsigned-integer keys.
//
// The simulator's hottest host-side lookups — the coherence directory, the
// per-core compressed-line side tables, and Env's host-line translation —
// are keyed by dense-ish 64-bit values and live on the critical path of
// every simulated memory access. std::unordered_map pays a heap node, a
// pointer chase and a modulo per probe; this map keeps control bytes and
// slots in two flat arrays, probes linearly from a multiplicative hash, and
// resolves the common hit in one or two cache lines.
//
// Deletion uses tombstones, so references to mapped values stay valid across
// erase() (the memory system relies on this while tearing down directory
// entries mid-operation). References are invalidated by rehash, i.e. by an
// insert that finds the table at its load limit — same contract callers
// already honoured for std::unordered_map. The rehash doubles the capacity
// only when live entries fill more than a quarter of it; otherwise it clears
// the tombstones at the same capacity, so insert/erase churn over a bounded
// live set keeps the table below 8x that set (or 16 slots) however many
// distinct keys pass through.
//
// Not iterable by design: simulation results must not depend on hash-table
// iteration order, so the map simply does not offer it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace osim {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned integers");

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of slots (0 before the first insert).
  std::size_t capacity() const { return cap_; }

  /// Pointer to the mapped value, or nullptr.
  V* find(K key) {
    if (cap_ == 0) return nullptr;
    for (std::size_t i = index_of(key);; i = next(i)) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return nullptr;
      if (c == kFull && slots_[i].first == key) return &slots_[i].second;
    }
  }
  const V* find(K key) const { return const_cast<FlatMap*>(this)->find(key); }

  bool contains(K key) const { return find(key) != nullptr; }

  /// Value for `key`, default-constructing it on first use.
  V& operator[](K key) { return try_emplace(key).first; }

  /// Returns (value, inserted). Finding an existing key never rehashes, so
  /// only an actual insertion can invalidate outstanding references.
  std::pair<V&, bool> try_emplace(K key) {
    if (cap_ == 0) rehash();
    for (;;) {
      std::size_t insert_at = kNpos;
      for (std::size_t i = index_of(key);; i = next(i)) {
        const std::uint8_t c = ctrl_[i];
        if (c == kFull) {
          if (slots_[i].first == key) return {slots_[i].second, false};
          continue;
        }
        if (c == kTombstone) {
          if (insert_at == kNpos) insert_at = i;
          continue;
        }
        // Empty: the key is absent. Reuse the first tombstone seen, else
        // claim this slot — rehashing (and re-probing) if that would push
        // occupancy past the load limit.
        const bool fresh = insert_at == kNpos;
        if (fresh) {
          if ((used_ + 1) * 8 > cap_ * 7) break;  // rehash, then re-probe
          insert_at = i;
          ++used_;
        }
        ctrl_[insert_at] = kFull;
        slots_[insert_at].first = key;
        slots_[insert_at].second = V{};
        ++size_;
        return {slots_[insert_at].second, true};
      }
      rehash();
    }
  }

  /// Returns the number of elements removed (0 or 1). Never moves other
  /// elements, so outstanding value references stay valid.
  std::size_t erase(K key) {
    if (cap_ == 0) return 0;
    for (std::size_t i = index_of(key);; i = next(i)) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return 0;
      if (c == kFull && slots_[i].first == key) {
        ctrl_[i] = kTombstone;
        slots_[i].second = V{};
        --size_;
        return 1;
      }
    }
  }

  void clear() {
    ctrl_.assign(ctrl_.size(), kEmpty);
    size_ = 0;
    used_ = 0;
    // Slot payloads are left to be overwritten on reuse.
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;
  static constexpr std::size_t kNpos = ~std::size_t{0};

  std::size_t index_of(K key) const {
    // Fibonacci hashing spreads sequential keys (line addresses, slot ids)
    // across the table; the table size is a power of two so the top bits
    // select the bucket.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (cap_ - 1); }

  // Runs at 7/8 occupancy counting tombstones, so probe chains stay short
  // and an empty slot always exists to terminate probes. It doubles the
  // capacity when more than a quarter of the slots are live and otherwise
  // only clears the tombstones. Either way at least 7/16 of the capacity
  // takes fresh inserts before the next rehash, so rehashing stays amortized
  // O(1) per insert. A quarter, not a half: clearing at up to half live
  // rehashed every 3/8 of the capacity under the directory's fill/evict
  // churn and slowed the memory system's miss path by about a quarter.
  void rehash() {
    const std::size_t new_cap =
        cap_ == 0 ? 16 : (size_ * 4 <= cap_ ? cap_ : cap_ * 2);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::pair<K, V>> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    slots_.resize(new_cap);
    cap_ = new_cap;
    int bits = 0;
    while ((std::size_t{1} << bits) < new_cap) ++bits;
    shift_ = 64 - bits;
    used_ = size_;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      std::size_t j = index_of(old_slots[i].first);
      while (ctrl_[j] == kFull) j = next(j);
      ctrl_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<std::pair<K, V>> slots_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;  // live elements
  std::size_t used_ = 0;  // live + tombstones
  int shift_ = 64;
};

}  // namespace osim
