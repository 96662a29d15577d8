// Version blocks and the hardware-managed free list (paper Sec. III).
//
// A version block is the 16-byte unit of O-structure storage:
//   version id (32b) | next pointer (30b) | locked-by (32b) | head bit | data
// Blocks live in a pool of simulated physical memory; "physical pointers"
// are pool indices (bounded to 30 bits like the paper's next field). The
// host-side struct carries extra bookkeeping (owning slot, GC state,
// generation, lifetime stamps) that a hardware implementation derives
// structurally or does not keep; none of it counts toward the modelled
// 16-byte footprint.
//
// The pool carves blocks on demand, as the paper's free list only ever
// touches memory a block has used: the constructor reserves storage for its
// batch but builds none of it, and alloc() constructs the next uncarved
// index once the free list runs dry. The order in which indices are handed
// out is exactly that of a pool that threads its whole batch onto the free
// list up front, because such a list is always the stack of freed and grown
// blocks followed by the untouched batch from the top index down. Popping
// the list first and then carving downward yields that same sequence.
// Indices are the simulated physical pointers (version_block_addr), so any
// other order would move simulated figures.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "core/types.hpp"

namespace osim {

using BlockIndex = std::uint32_t;

/// Null "physical pointer". The paper's next field is 30 bits; we reserve
/// the all-ones 30-bit pattern.
inline constexpr BlockIndex kNullBlock = (1u << 30) - 1;

/// locked_by value of an unlocked version. Task IDs start at 1.
inline constexpr TaskId kNoTask = 0;

/// GC lifecycle of a block (paper Sec. III-B): free -> live -> shadowed ->
/// pending -> free.
enum class BlockState : std::uint8_t { kFree, kLive, kShadowed, kPending };

/// Fields are ordered by size so that the host struct fills exactly one
/// 64-byte line; each field says whether it is modelled storage or host
/// bookkeeping.
struct VersionBlock {
  Ver version = 0;               ///< modelled
  std::uint64_t data = 0;        ///< modelled
  TaskId locked_by = kNoTask;    ///< modelled
  std::uint64_t slot = 0;        ///< host: owning O-structure slot (GC unlink)
  Cycles born_at = 0;            ///< host: cycle of the last timed allocation
  Cycles shadowed_at = 0;        ///< host: cycle the block was last shadowed
  BlockIndex next = kNullBlock;  ///< modelled
  std::uint32_t generation = 0;  ///< host: bumped on free; guards stale refs
  bool head = false;             ///< modelled
  BlockState state = BlockState::kFree;  ///< host: GC lifecycle
};

/// One host cache line per block (BlockPool's storage is line-aligned).
inline constexpr std::size_t kHostLineBytes = 64;
static_assert(sizeof(VersionBlock) == kHostLineBytes);
// The pool moves carved blocks with memcpy and never runs destructors.
static_assert(std::is_trivially_copyable_v<VersionBlock> &&
              std::is_trivially_destructible_v<VersionBlock>);

/// Pool of version blocks with an intrusive free list threaded through the
/// `next` fields, as in the paper ("version blocks are just ordinary memory
/// structures"). Growth happens through an explicit OS-trap entry point so
/// the manager can charge trap latency and count traps. Uncarved indices
/// count as free (see the header comment for the allocation order).
class BlockPool {
 public:
  explicit BlockPool(std::size_t initial_blocks) {
    check_width(initial_blocks);
    reserve(initial_blocks);
    size_ = uncarved_ = free_count_ = initial_blocks;
  }

  /// Pop a block from the free list, or carve the highest uncarved index
  /// once the list is empty; returns kNullBlock when exhausted (the caller
  /// must then raise the OS trap and grow()). A reused block keeps its
  /// version, data, slot, generation and lifetime stamps.
  BlockIndex alloc() {
    BlockIndex b;
    if (free_head_ != kNullBlock) {
      b = free_head_;
      VersionBlock& vb = blocks_[b];
      free_head_ = vb.next;
      vb.next = kNullBlock;
      vb.head = false;
      vb.locked_by = kNoTask;
    } else if (uncarved_ > 0) {
      b = static_cast<BlockIndex>(--uncarved_);
      ::new (blocks_.get() + b) VersionBlock{};
    } else {
      return kNullBlock;
    }
    blocks_[b].state = BlockState::kLive;
    --free_count_;
    return b;
  }

  /// Return a block to the free list and bump its generation.
  void free(BlockIndex b) {
    VersionBlock& vb = blocks_[b];
    vb.state = BlockState::kFree;
    vb.generation++;
    vb.next = free_head_;
    free_head_ = b;
    ++free_count_;
  }

  /// Add `n` blocks (the runtime's trap handler), built and threaded onto
  /// the free-list head so that the highest new index pops first. Pool size
  /// is capped by the 30-bit physical pointer width.
  void grow(std::size_t n) {
    const std::size_t old = size_;
    check_width(old + n);
    reserve(old + n);
    for (std::size_t i = old; i < old + n; ++i) {
      VersionBlock* vb = ::new (blocks_.get() + i) VersionBlock{};
      vb->next = free_head_;
      free_head_ = static_cast<BlockIndex>(i);
    }
    size_ = old + n;
    free_count_ += n;
  }

  VersionBlock& operator[](BlockIndex b) { return blocks_[b]; }
  const VersionBlock& operator[](BlockIndex b) const { return blocks_[b]; }

  /// Free blocks, uncarved ones included (the GC watermark reads this).
  std::size_t free_count() const { return free_count_; }
  /// Every index the pool owns, carved or not.
  std::size_t size() const { return size_; }
  /// Indices that have ever been built: handed out once, or grown.
  std::size_t carved() const { return size_ - uncarved_; }

 private:
  struct Release {
    void operator()(VersionBlock* p) const {
      ::operator delete(p, std::align_val_t{kHostLineBytes});
    }
  };

  static void check_width(std::size_t n) {
    if (n >= kNullBlock) {
      throw std::length_error("version block pool exceeds 30-bit pointers");
    }
  }

  /// Make room for `n` indices without building any. Growing past the
  /// capacity moves only the carved blocks (uncarved storage holds nothing)
  /// and at least doubles it, so repeated traps copy amortized O(1) each.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    const std::size_t cap =
        std::min<std::size_t>(std::max(n, 2 * capacity_), kNullBlock);
    std::unique_ptr<VersionBlock[], Release> fresh(
        static_cast<VersionBlock*>(::operator new(
            cap * sizeof(VersionBlock), std::align_val_t{kHostLineBytes})));
    if (size_ > uncarved_) {
      std::memcpy(static_cast<void*>(fresh.get() + uncarved_),
                  blocks_.get() + uncarved_,
                  (size_ - uncarved_) * sizeof(VersionBlock));
    }
    blocks_ = std::move(fresh);
    capacity_ = cap;
  }

  std::unique_ptr<VersionBlock[], Release> blocks_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t uncarved_ = 0;  ///< indices [0, uncarved_) were never built
  BlockIndex free_head_ = kNullBlock;
  std::size_t free_count_ = 0;
};

}  // namespace osim
