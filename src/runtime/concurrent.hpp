// Work-stealing task pool over real host threads.
//
// TaskRuntime (runtime/task.hpp) executes tasks either on simulated fibers
// (timed backend) or inline in creation order (functional backend); both
// drive the single-threaded VersionStore from one host thread. This pool is
// the third execution mode: N host threads drive the thread-safe
// ConcurrentVersionStore (core/concurrent_store.hpp) concurrently.
//
// Scheduling keeps the paper's static tid-mod-cores assignment as the
// *home* mapping but adds stealing for load balance: worker w's home queue
// holds its tasks in ascending tid order and is consumed from the head
// through an atomic cursor; a worker whose own queue has drained claims
// from the youngest-progress victim's head instead of idling.
//
// Progress argument (why a forward-only-dependency workload cannot
// deadlock): queues are filled in ascending tid order and always consumed
// from the head, so the set of *claimed-or-finished* tasks at any instant
// is a union of queue prefixes. If a running task blocks, it waits on a
// version owed by a strictly older task (forward-only dependencies). That
// older task is either running (and will finish or block on a still-older
// task — the chain strictly decreases in age and terminates at the oldest
// blocked task, whose dependency is already satisfied or claimable) or
// sits at the head of some queue, where an idle worker — in particular the
// eventual stealer — will claim it: a worker only idles when every queue
// is empty. So no cycle of waiting can form, and every park is bounded by
// real progress elsewhere. A workload that violates forward-only
// dependencies deadlocks for real; the store's timeout converts that into
// a kWouldBlock fault naming the parked task and op.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "sim/machine.hpp"

namespace osim {

class ConcurrentTaskPool {
 public:
  using TaskFn = std::function<void(TaskId)>;

  /// Graceful-degradation knobs. With max_retries == 0 (the default) a
  /// recoverable fault — kWouldBlock (deadlock timeout) or
  /// kResourceExhausted (pool/slot-table pressure) — fails the run fast,
  /// the original behaviour. With retries enabled the worker aborts the
  /// task (rolling back its stores and locks via the store's undo
  /// journal, which requires ConcurrencyConfig::track_aborts), sleeps a
  /// bounded exponential backoff, and re-runs it.
  struct RetryPolicy {
    int max_retries = 0;                  ///< re-runs per task; 0 = fail fast
    std::uint64_t backoff_base_us = 100;  ///< first retry's sleep
    std::uint64_t backoff_cap_us = 20000; ///< backoff ceiling per sleep
  };

  /// Degradation telemetry, aggregated across workers. The vocabulary is
  /// the facade's (core/version_engine.hpp) so chaos JSON and osim-report
  /// spell these fields identically for every engine.
  using RecoveryStats = ::osim::RecoveryStats;

  ConcurrentTaskPool(ConcurrentVersionStore& store, int workers)
      : store_(store), workers_(workers < 1 ? 1 : workers) {}

  void set_retry_policy(RetryPolicy p) { retry_ = p; }

  RecoveryStats recovery_stats() const {
    RecoveryStats s;
    s.retries = retries_.load(std::memory_order_relaxed);
    s.giveups = giveups_.load(std::memory_order_relaxed);
    s.backoff_us = backoff_us_.load(std::memory_order_relaxed);
    return s;
  }

  /// Enqueue a task. Must be called before run(); tasks must be created in
  /// ascending tid order for the progress argument above to hold.
  /// Announces the task to the GC (rule #3 is checked at creation).
  void create_task(TaskId tid, TaskFn fn) {
    store_.task_created(tid);
    tasks_.emplace_back(tid, std::move(fn));
  }

  /// Run every task to completion on `workers` host threads. Returns the
  /// measured wall-clock seconds from just before the workers start to the
  /// last join. A fault on any worker stops the run (parked ops unwind) and
  /// rethrows as SimError, matching the other backends' reporting.
  double run() {
    struct Queue {
      std::vector<std::pair<TaskId, TaskFn>*> items;
      // Claim cursor; pad so two workers hammering adjacent cursors do not
      // false-share.
      alignas(64) std::atomic<std::size_t> next{0};
    };
    std::vector<Queue> queues(static_cast<std::size_t>(workers_));
    for (auto& t : tasks_) {
      queues[t.first % queues.size()].items.push_back(&t);
    }

    std::mutex err_mu;
    std::exception_ptr first_error;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads.emplace_back([this, w, &queues, &err_mu, &first_error] {
        auto claim = [](Queue& q) -> std::pair<TaskId, TaskFn>* {
          const std::size_t i =
              q.next.fetch_add(1, std::memory_order_acq_rel);
          return i < q.items.size() ? q.items[i] : nullptr;
        };
        try {
          for (;;) {
            std::pair<TaskId, TaskFn>* t =
                claim(queues[static_cast<std::size_t>(w)]);
            // Own queue drained: steal round-robin from the others' heads.
            for (int v = 1; t == nullptr && v < workers_; ++v) {
              t = claim(queues[static_cast<std::size_t>((w + v) % workers_)]);
            }
            if (t == nullptr) return;
            run_task(t->first, t->second);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> g(err_mu);
            if (!first_error) first_error = std::current_exception();
          }
          // Unwind the rest of the run: parked ops fault instead of
          // sleeping out their deadlock timeout.
          store_.request_stop();
        }
      });
    }
    for (auto& th : threads) th.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (first_error) {
      store_.reset_stop();
      try {
        std::rethrow_exception(first_error);
      } catch (const SimError&) {
        throw;
      } catch (const std::exception& e) {
        throw SimError(e.what());
      }
    }
    tasks_.clear();
    return seconds;
  }

 private:
  /// One task, with abort-and-retry degradation. The task stays registered
  /// in the store's unfinished set across an abort, so the retry's
  /// task_begin just rebinds it to this thread; only a successful run
  /// retires it with task_end.
  void run_task(TaskId tid, const TaskFn& fn) {
    int attempt = 0;
    for (;;) {
      store_.task_begin(tid);
      try {
        fn(tid);
        store_.task_end(tid);
        return;
      } catch (const OFault& f) {
        const bool recoverable =
            f.kind() == FaultKind::kWouldBlock ||
            f.kind() == FaultKind::kResourceExhausted;
        if (!recoverable) throw;
        const bool can_abort = store_.config().track_aborts;
        if (store_.stopped() || attempt >= retry_.max_retries) {
          giveups_.fetch_add(1, std::memory_order_relaxed);
          // Even a failed task must not leak locks or half-built version
          // chains into the post-mortem state.
          if (can_abort) store_.abort_task(tid);
          throw;
        }
        if (!can_abort) throw;  // retrying without rollback would corrupt
        store_.abort_task(tid);
        const std::uint64_t delay =
            std::min(retry_.backoff_base_us
                         << std::min(attempt, 20),
                     retry_.backoff_cap_us);
        if (delay != 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(delay));
          backoff_us_.fetch_add(delay, std::memory_order_relaxed);
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
        ++attempt;
      }
    }
  }

  ConcurrentVersionStore& store_;
  int workers_;
  std::vector<std::pair<TaskId, TaskFn>> tasks_;
  RetryPolicy retry_;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> giveups_{0};
  std::atomic<std::uint64_t> backoff_us_{0};
};

}  // namespace osim
