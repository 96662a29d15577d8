#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

// AddressSanitizer tracks one stack per thread; switching onto a fiber's
// heap-allocated stack without telling it makes any "noreturn" event there
// (throwing an exception, longjmp) unpoison the wrong region and report
// stack-use-after-scope from the sigaltstack interceptor — the documented
// false positive in google/sanitizers#189. The fix is the fiber-switch
// annotation API: announce the destination stack before each switch and
// confirm arrival after. Compiled out entirely in non-ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define OSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSIM_ASAN_FIBERS 1
#endif
#endif

#if defined(OSIM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
// Defined in fiber_switch.S.
void osim_fiber_switch(void** save_sp, void* load_sp);
void osim_fiber_trampoline();
}

namespace osim {

namespace {
thread_local Fiber* g_current = nullptr;
}  // namespace

Fiber* Fiber::current() { return g_current; }

Fiber::Fiber(Fn fn, std::size_t stack_bytes)
    : stack_(new std::byte[stack_bytes]),
      stack_bytes_(stack_bytes),
      fn_(std::move(fn)) {
  // Build the fake register frame that the first osim_fiber_switch will pop:
  // six callee-saved registers (r15,r14,r13,r12,rbx,rbp from low to high
  // addresses) followed by the return address (the trampoline). The saved
  // r12 slot carries `this` so the trampoline can find the fiber.
  auto top_raw = reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes;
  auto* sp = reinterpret_cast<std::uint64_t*>(top_raw & ~std::uintptr_t{15});
  *--sp = 0;  // terminator slot (never used; keeps unwinders from walking off)
  *--sp = reinterpret_cast<std::uint64_t>(&osim_fiber_trampoline);  // ret addr
  *--sp = 0;                                      // rbp
  *--sp = 0;                                      // rbx
  *--sp = reinterpret_cast<std::uint64_t>(this);  // r12 -> Fiber*
  *--sp = 0;                                      // r13
  *--sp = 0;                                      // r14
  *--sp = 0;                                      // r15
  sp_ = sp;
}

Fiber::~Fiber() {
  // Destroying a started-but-unfinished fiber would leak whatever its stack
  // holds; the machine only tears down after all fibers finish or faults are
  // collected, so this is a logic error worth trapping in debug builds.
  assert(!started_ || finished_);
}

void Fiber::resume() {
  assert(!finished_ && "resume() on a finished fiber");
  assert(g_current == nullptr && "resume() must be called from the scheduler");
  started_ = true;
  g_current = this;
#if defined(OSIM_ASAN_FIBERS)
  // `fake` lives in this frame, which stays alive while the fiber runs, so
  // it doubles as the scheduler context's saved fake-stack handle.
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack_.get(), stack_bytes_);
#endif
  osim_fiber_switch(&caller_sp_, sp_);
#if defined(OSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  g_current = nullptr;
}

void Fiber::yield() {
  assert(g_current == this && "yield() from outside the fiber");
#if defined(OSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
  osim_fiber_switch(&sp_, caller_sp_);
  finish_switch_in();
}

void Fiber::switch_to(Fiber& next) {
  assert(g_current == this && "switch_to() from outside the fiber");
  assert(&next != this && !next.finished_);
  next.started_ = true;
  next.caller_sp_ = caller_sp_;
  g_current = &next;
#if defined(OSIM_ASAN_FIBERS)
  next.asan_caller_bottom_ = asan_caller_bottom_;
  next.asan_caller_size_ = asan_caller_size_;
  next.asan_handoff_ = true;
  __sanitizer_start_switch_fiber(&asan_fake_stack_, next.stack_.get(),
                                 next.stack_bytes_);
#endif
  osim_fiber_switch(&sp_, next.sp_);
  finish_switch_in();
}

void Fiber::finish_switch_in() {
#if defined(OSIM_ASAN_FIBERS)
  // Arrival from the resumer records its stack bounds for the switches
  // back; arrival by handoff already holds them (see switch_to()).
  if (asan_handoff_) {
    asan_handoff_ = false;
    __sanitizer_finish_switch_fiber(asan_fake_stack_, nullptr, nullptr);
  } else {
    __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_caller_bottom_,
                                    &asan_caller_size_);
  }
#endif
}

void fiber_entry_impl(Fiber* f) {
  // First arrival on this stack: the fake-stack handle is still null, so
  // there is nothing to restore.
  f->finish_switch_in();
  f->fn_();
  f->finished_ = true;
  // Final switch back to the resumer (the one that started the chain, after
  // a handoff); this fiber is never resumed again.
#if defined(OSIM_ASAN_FIBERS)
  // Null handle: the fiber is exiting for good, so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(nullptr, f->asan_caller_bottom_,
                                 f->asan_caller_size_);
#endif
  osim_fiber_switch(&f->sp_, f->caller_sp_);
}

}  // namespace osim

extern "C" void osim_fiber_entry(osim::Fiber* f) {
  // Exceptions must not unwind through the assembly frame at the stack base.
  try {
    osim::fiber_entry_impl(f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: exception escaped fiber: %s\n", e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "fatal: exception escaped fiber\n");
    std::abort();
  }
  std::abort();  // unreachable: fiber_entry_impl switches away
}
