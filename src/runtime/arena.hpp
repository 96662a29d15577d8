// Deterministic bump allocator for simulator-visible host objects.
//
// Every address a workload passes to Env::ld/st is translated line-by-line
// in first-touch order, which makes cache *indexing* independent of the
// host allocator — but the byte offset inside a line, and whether two
// separately-allocated objects share a line, still follow the host heap
// layout. Under the host-parallel bench driver the heap interleaves
// allocations from many experiment cells, so malloc-placed nodes pack
// differently than in a serial run and the simulated cycle counts drift.
//
// The arena closes that hole: chunks are cache-line-aligned, objects are
// bump-allocated at offsets that depend only on the (deterministic)
// allocation sequence, and nothing outside the owning Env ever lands in the
// same line. Simulated timing becomes a pure function of the workload.
//
// Ownership: objects live until the Arena dies (it is the last member of
// Env, so arena-owned objects may still touch the machine/O-structure
// manager from their destructors). There is no per-object free — the
// workloads only ever grow, matching the previous keep-every-node vectors.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace osim {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->second(it->first);
    }
    for (void* c : chunks_) {
      ::operator delete(c, std::align_val_t{kLineBytes});
    }
  }

  /// Raw storage; `align` must be a power of two no larger than kLineBytes.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t off = (offset_ + (align - 1)) & ~(align - 1);
    if (chunks_.empty() || off + bytes > chunk_bytes_) {
      chunk_bytes_ = bytes > kChunkBytes ? round_up_line(bytes) : kChunkBytes;
      chunks_.push_back(
          ::operator new(chunk_bytes_, std::align_val_t{kLineBytes}));
      off = 0;
    }
    void* p = static_cast<char*>(chunks_.back()) + off;
    offset_ = off + bytes;
    return p;
  }

  /// Construct a T in the arena. Non-trivial destructors run (in reverse
  /// creation order) when the arena is destroyed.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(alignof(T) <= kLineBytes);
    T* p = static_cast<T*>(allocate(sizeof(T), alignof(T)));
    new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.emplace_back(p, [](void* q) { static_cast<T*>(q)->~T(); });
    }
    return p;
  }

  /// Value-initialized array of n trivially-destructible Ts.
  template <typename T>
  T* array_of(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= kLineBytes);
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T();
    return p;
  }

 private:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  static std::size_t round_up_line(std::size_t bytes) {
    return (bytes + kLineBytes - 1) / kLineBytes * kLineBytes;
  }

  std::vector<void*> chunks_;
  std::size_t chunk_bytes_ = 0;
  std::size_t offset_ = 0;
  std::vector<std::pair<void*, void (*)(void*)>> dtors_;
};

}  // namespace osim
