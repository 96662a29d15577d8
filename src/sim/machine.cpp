#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace osim {

namespace {

thread_local Machine* g_machine = nullptr;

/// Internal unwind token used to cancel fibers after a fault or deadlock.
struct CancelUnwind {};

[[noreturn]] void throw_clock_overflow(CoreId core, Cycles clock) {
  throw SimError("core " + std::to_string(core) + " clock " +
                 std::to_string(clock) +
                 " reached 2^58 cycles, beyond the run queue's key range");
}

}  // namespace

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg),
      registry_(cfg.num_cores),
      instructions_(registry_.counter_vec(telemetry::Component::kCore,
                                          "instructions")),
      stall_cycles_(registry_.counter_vec(telemetry::Component::kCore,
                                          "stall_cycles")),
      memsys_(cfg, registry_) {
  cores_.resize(static_cast<std::size_t>(cfg.num_cores));
  run_queue_.reserve(cores_.size());
}

Machine::~Machine() {
  // If run() threw, parked fibers were already drained by cancel_all().
  for ([[maybe_unused]] auto& c : cores_) {
    assert(!c.fiber || !c.fiber->started() || c.fiber->finished());
  }
}

Machine& Machine::current() {
  assert(g_machine != nullptr && "no machine is running on this thread");
  return *g_machine;
}

void Machine::spawn(CoreId core, std::function<void()> body) {
  auto& ctx = cores_.at(static_cast<std::size_t>(core));
  // A core may be given a new program once its previous one finished (e.g.
  // a verification pass after the measured run); its clock carries on.
  if (ctx.fiber && !ctx.fiber->finished()) {
    throw SimError("core already has a program");
  }
  ctx.fiber.reset();
  ctx.fiber = std::make_unique<Fiber>(
      [this, body = std::move(body)] {
        try {
          body();
        } catch (const CancelUnwind&) {
          // Machine-initiated teardown; nothing to record.
        } catch (const std::exception& e) {
          if (!faulted_) {
            faulted_ = true;
            fault_ = e.what();
          }
        }
      },
      cfg_.fiber_stack_bytes);
  push_runnable(core);
}

std::uint64_t Machine::queue_key(CoreId core) const {
  const Cycles clock = cores_[static_cast<std::size_t>(core)].clock;
  if (clock >> (64 - kIdBits) != 0) throw_clock_overflow(core, clock);
  return clock << kIdBits | static_cast<std::uint64_t>(core);
}

void Machine::push_runnable(CoreId core) {
  const std::uint64_t key = queue_key(core);
  std::size_t hole = run_queue_.size();
  run_queue_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (run_queue_[parent] < key) break;
    run_queue_[hole] = run_queue_[parent];
    hole = parent;
  }
  run_queue_[hole] = key;
}

CoreId Machine::pop_earliest() {
  const auto top = static_cast<CoreId>(run_queue_.front() & kIdMask);
  run_queue_.front() = run_queue_.back();
  run_queue_.pop_back();
  if (!run_queue_.empty()) sift_down(0);
  return top;
}

void Machine::sift_down(std::size_t hole) {
  std::uint64_t* q = run_queue_.data();
  const std::uint64_t key = q[hole];
  const std::size_t n = run_queue_.size();
  while (true) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    // The smaller child, picked by adding a comparison result rather than
    // by branching on it.
    if (child + 1 < n) {
      child += static_cast<std::size_t>(q[child + 1] < q[child]);
    }
    if (key < q[child]) break;
    q[hole] = q[child];
    hole = child;
  }
  q[hole] = key;
}

void Machine::switch_to_core(CoreId next) {
  Fiber& self = *cores_[static_cast<std::size_t>(running_)].fiber;
  if (next < 0 || cancelling_) {
    // Back to run(), which reads the returning core from running_.
    self.yield();
  } else {
    running_ = next;
    self.switch_to(*cores_[static_cast<std::size_t>(next)].fiber);
  }
  // Whoever switched back into this fiber set running_ to its core.
  if (cancelling_) throw CancelUnwind{};
}

void Machine::sync_to_global_order() {
  assert(running_ >= 0);
  while (!i_am_earliest()) {
    // The running core takes the top's place and the old top runs next.
    const auto next = static_cast<CoreId>(run_queue_.front() & kIdMask);
    run_queue_.front() = queue_key(running_);
    sift_down(0);
    switch_to_core(next);
  }
}

Cycles Machine::now() const {
  assert(running_ >= 0);
  return cores_[static_cast<std::size_t>(running_)].clock;
}

void Machine::advance(Cycles c) {
  assert(running_ >= 0);
  cores_[static_cast<std::size_t>(running_)].clock += c;
}

void Machine::exec(std::uint64_t n) {
  assert(running_ >= 0);
  instructions_.inc(running_, n);
  const auto width = static_cast<std::uint64_t>(cfg_.issue_width);
  advance((n + width - 1) / width);
}

void Machine::mem_access(Addr addr, AccessType type, AccessOptions opts) {
  sync_to_global_order();
  advance(memsys_.access(running_, addr, type, opts));
}

void Machine::block_on(WaitList& wl) {
  assert(running_ >= 0);
  auto& ctx = cores_[static_cast<std::size_t>(running_)];
  ctx.blocked = true;
  ctx.block_start = ctx.clock;
  wl.waiters_.push_back(running_);
  switch_to_core(run_queue_.empty() ? -1 : pop_earliest());
}

void Machine::wake_all(WaitList& wl, Cycles wake_latency) {
  assert(running_ >= 0);
  const Cycles arrival = now() + wake_latency;
  for (CoreId w : wl.waiters_) {
    auto& ctx = cores_[static_cast<std::size_t>(w)];
    assert(ctx.blocked);
    ctx.clock = std::max(ctx.clock, arrival);
    stall_cycles_.inc(w, ctx.clock - ctx.block_start);
    ctx.blocked = false;
    push_runnable(w);
  }
  wl.waiters_.clear();
}

void Machine::fault(const std::string& what) { throw SimError(what); }

void Machine::cancel_all() {
  cancelling_ = true;
  run_queue_.clear();
  for (auto& c : cores_) {
    if (!c.fiber || !c.fiber->started()) continue;
    while (!c.fiber->finished()) {
      running_ = static_cast<CoreId>(&c - cores_.data());
      c.fiber->resume();
    }
    c.blocked = false;
    running_ = -1;
  }
  // Cleanup that runs while a fiber unwinds (a catch-all that releases a
  // lock and wakes its waiters) may have queued cores again.
  run_queue_.clear();
  cancelling_ = false;
}

void Machine::run() {
  if (g_machine != nullptr) throw SimError("nested Machine::run");
  g_machine = this;
  struct Reset {
    ~Reset() { g_machine = nullptr; }
  } reset;
  faulted_ = false;
  fault_.clear();

  while (!run_queue_.empty()) {
    running_ = pop_earliest();
    cores_[static_cast<std::size_t>(running_)].fiber->resume();
    // Control is back from whichever core ran last: its program finished,
    // or it blocked with no other core left to run.
    auto& ctx = cores_[static_cast<std::size_t>(running_)];
    running_ = -1;
    if (ctx.fiber->finished()) elapsed_ = std::max(elapsed_, ctx.clock);
    if (faulted_) {
      cancel_all();
      throw SimError(fault_);
    }
  }
  const auto blocked = std::count_if(
      cores_.begin(), cores_.end(),
      [](const CoreCtx& c) { return c.blocked; });
  if (blocked > 0) {
    cancel_all();
    throw SimError("deadlock: " + std::to_string(blocked) +
                   " core(s) blocked with no possible wakeup");
  }
}

}  // namespace osim
