// Deterministic cooperative fibers (green threads) for the simulator.
//
// Each simulated core runs its program on a fiber. The machine scheduler
// resumes the runnable fiber with the lowest local clock. A fiber that is no
// longer the earliest core, or that blocks on a versioned access, hands
// control straight to the next-earliest fiber with switch_to(); control
// returns to the scheduler only when a fiber finishes or no other fiber can
// run. This gives bit-reproducible interleavings on one host thread — the
// property the gem5-based study relies on.
//
// Host-thread safety: the "current fiber" pointer is thread-local and a
// fiber must be resumed only on the host thread that is running its
// machine's run() call. Distinct machines (each with their own fibers) may
// therefore run concurrently on distinct host threads — see
// sim/host_pool.hpp — with no shared mutable state between them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace osim {

class Fiber {
 public:
  using Fn = std::function<void()>;

  /// Create a fiber that will run `fn` when first resumed. The stack is
  /// heap-allocated; `stack_bytes` must accommodate the deepest workload
  /// recursion (red-black tree fixups are O(log n)).
  explicit Fiber(Fn fn, std::size_t stack_bytes = 256 * 1024);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Switch from the calling (scheduler) context into the fiber. Returns
  /// when the fiber calls yield() or its function finishes. Must not be
  /// called on a finished fiber or from inside any fiber.
  void resume();

  /// Switch from inside the fiber back to whoever resumed it.
  void yield();

  /// Switch from inside this fiber directly into `next` (not started, or
  /// suspended in yield() or switch_to()). `next` inherits this fiber's
  /// resumer: its next yield(), or its exit, returns to the context whose
  /// resume() started the chain. Returns when something switches back here.
  void switch_to(Fiber& next);

  bool finished() const { return finished_; }
  /// True once the fiber has been resumed at least once.
  bool started() const { return started_; }

  /// The fiber currently executing on the calling host thread, or nullptr
  /// when that thread's scheduler context is running. Thread-local: fibers
  /// on other host threads are invisible here.
  static Fiber* current();

 private:
  friend void fiber_entry_impl(Fiber*);

  /// ASan bookkeeping on arrival after any switch into this fiber.
  void finish_switch_in();

  void* sp_ = nullptr;         // fiber's saved stack pointer
  void* caller_sp_ = nullptr;  // resumer's saved stack pointer
  std::unique_ptr<std::byte[]> stack_;
  std::size_t stack_bytes_ = 0;
  Fn fn_;
  bool finished_ = false;
  bool started_ = false;
  // AddressSanitizer fiber-switch bookkeeping: ASan must be told the stack
  // bounds around every switch or exception unwinds on the heap-allocated
  // stack trip its "noreturn" stack unpoisoning (google/sanitizers#189).
  // A fiber entered by switch_to() arrives from the previous fiber's stack,
  // not its resumer's: the previous fiber hands over the resumer's bounds
  // and sets asan_handoff_, so arrival keeps them rather than recording the
  // stack it came from. Unused (and never touched) in non-sanitized builds.
  void* asan_fake_stack_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
  bool asan_handoff_ = false;
};

}  // namespace osim
