// versioned<T>: the library-level O-structure API of the paper's Figure 1
// (right column). Each versioned<T> owns one O-structure slot; T must fit
// the 8-byte data word (pointers, integers, floats).
//
//   versioned<node_t*> next{env};
//   next.store_ver(n, tid);
//   node_t* cur = next.lock_load_last(tid, tid);
//   next.unlock_ver(tid, tid + 1);   // rename: unblock the next task
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "runtime/env.hpp"

namespace osim {

template <typename T>
class versioned {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "versioned<T> requires a word-sized trivially-copyable T");

 public:
  /// An unbound versioned value; bind() before use.
  versioned() = default;

  /// Allocate a fresh O-structure slot in `env`.
  explicit versioned(Env& env) { bind(env); }

  void bind(Env& env) {
    env_ = &env;
    addr_ = env.store().alloc(1);
  }

  /// Convert the slot back to conventional memory (all versions dropped).
  void free() {
    if (env_ != nullptr) {
      env_->store().release(addr_, 1);
      env_ = nullptr;
    }
  }

  bool bound() const { return env_ != nullptr; }
  OAddr addr() const { return addr_; }

  /// Mark this object's slot as a data structure's root: until free(),
  /// every access to it feeds the paper's root-stall statistics (Sec.
  /// IV-D). The mark belongs to the slot, not to this object.
  void mark_root() { env_->store().mark_root(addr_); }

  T load_ver(Ver v) const {
    return from_word(env_->store().load_version(addr_, v));
  }

  T load_latest(Ver cap, Ver* got = nullptr) const {
    return from_word(env_->store().load_latest(addr_, cap, got));
  }

  T lock_load_ver(Ver v, TaskId locker) const {
    return from_word(env_->store().lock_load_version(addr_, v, locker));
  }

  T lock_load_last(Ver cap, TaskId locker, Ver* got = nullptr) const {
    return from_word(env_->store().lock_load_latest(addr_, cap, locker, got));
  }

  void store_ver(T val, Ver v) {
    env_->store().store_version(addr_, v, to_word(val));
  }

  void unlock_ver(Ver locked, TaskId owner,
                  std::optional<Ver> rename_to = std::nullopt) {
    env_->store().unlock_version(addr_, locked, owner, rename_to);
  }

  /// Host-side (untimed) peek, for verification code in tests/benches.
  std::optional<T> peek(Ver v) const {
    auto w = env_->store().peek_version(addr_, v);
    if (!w) return std::nullopt;
    return from_word(*w);
  }

 private:
  static std::uint64_t to_word(T val) {
    std::uint64_t w = 0;
    __builtin_memcpy(&w, &val, sizeof(T));
    return w;
  }
  static T from_word(std::uint64_t w) {
    T val;
    __builtin_memcpy(&val, &w, sizeof(T));
    return val;
  }

  Env* env_ = nullptr;
  OAddr addr_ = 0;
  /// Unused: keeps the object at 24 bytes. Workload nodes embed
  /// versioned<T> and live in the Env's arena, whose layout decides which
  /// of their fields share a simulated cache line, so every timed figure
  /// depends on this size.
  std::uint64_t layout_pad_ = 0;
};

static_assert(sizeof(versioned<std::uint64_t>) == 24,
              "timed figures depend on this size (see layout_pad_)");

}  // namespace osim
