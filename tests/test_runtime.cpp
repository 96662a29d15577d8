// Tests for the runtime layer: Env timed accesses, versioned<T>, the task
// runtime, and the simulated read-write lock.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/rwlock.hpp"
#include "runtime/task.hpp"
#include "runtime/versioned.hpp"

namespace osim {
namespace {

using telemetry::Component;

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

TEST(Env, TimedLoadStoreRoundTrip) {
  Env env(cfg(1));
  int value = 0;
  env.run_sequential([&] {
    env.st(value, 41);
    EXPECT_EQ(env.ld(value), 41);
    value = 7;  // host mutation outside the model is visible too
    EXPECT_EQ(env.ld(value), 7);
  });
  EXPECT_GT(env.metrics().value(Component::kCache, "stores", 0), 0u);
  EXPECT_GT(env.metrics().value(Component::kCache, "loads", 0), 0u);
}

TEST(Env, ConventionalAccessToVersionedSlotFaults) {
  Env env(cfg(1));
  const OAddr a = env.store().alloc();
  env.spawn(0, [&] {
    // Simulates a plain LOAD aimed at a versioned page.
    env.store().check_conventional(a);
  });
  EXPECT_THROW(env.run(), SimError);
}

// A timed Env builds no version block up front: the pool carves a block only
// when it first hands it out, so set-up does not scale with
// initial_pool_blocks.
TEST(Env, TimedPoolCarvesOnlyWhatItHandsOut) {
  Env env(cfg(32));
  const BlockPool& pool = env.store().pool();
  const std::size_t batch = env.config().ostruct.initial_pool_blocks;
  EXPECT_EQ(batch, std::size_t{1} << 20);
  EXPECT_EQ(pool.carved(), 0u);
  EXPECT_EQ(pool.free_count(), batch);
  EXPECT_EQ(pool.size(), batch);
  constexpr int kStores = 5;
  env.run_sequential([&] {
    versioned<int> v(env);
    for (int i = 1; i <= kStores; ++i) v.store_ver(i, static_cast<Ver>(i));
  });
  EXPECT_EQ(pool.carved(), std::size_t{kStores});
  EXPECT_EQ(pool.free_count(), batch - kStores);
  EXPECT_EQ(pool.size(), batch);
}

TEST(Versioned, IntRoundTrip) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<int> v(env);
    v.store_ver(-5, 1);
    EXPECT_EQ(v.load_ver(1), -5);
    v.store_ver(17, 3);
    EXPECT_EQ(v.load_latest(99), 17);
  });
}

TEST(Versioned, PointerRoundTrip) {
  Env env(cfg(1));
  int x = 0, y = 0;
  env.run_sequential([&] {
    versioned<int*> p(env);
    p.store_ver(&x, 1);
    p.store_ver(&y, 2);
    EXPECT_EQ(p.load_ver(1), &x);
    EXPECT_EQ(p.load_ver(2), &y);
    EXPECT_EQ(p.load_latest(100), &y);
    p.store_ver(nullptr, 3);
    EXPECT_EQ(p.load_latest(100), nullptr);
  });
}

TEST(Versioned, DoubleRoundTrip) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<double> d(env);
    d.store_ver(3.25, 1);
    EXPECT_DOUBLE_EQ(d.load_ver(1), 3.25);
  });
}

TEST(Versioned, LockUnlockRename) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<int> v(env);
    v.store_ver(10, 1);
    EXPECT_EQ(v.lock_load_ver(1, /*locker=*/1), 10);
    v.unlock_ver(1, 1, /*rename_to=*/Ver{2});
    EXPECT_EQ(v.load_ver(2), 10);
  });
}

TEST(Versioned, FreeReturnsSlot) {
  Env env(cfg(1));
  versioned<int> v(env);
  const OAddr a = v.addr();
  v.free();
  EXPECT_FALSE(env.store().is_versioned_addr(a));
}

TEST(TaskRuntime, TasksRunInIdOrderPerWorker) {
  Env env(cfg(4));
  TaskRuntime rt(env, 4);
  std::vector<TaskId> done;
  for (TaskId t = 1; t <= 16; ++t) {
    rt.create_task(t, [&done](TaskId tid) {
      mach().exec(10);
      done.push_back(tid);
    });
  }
  rt.run();
  ASSERT_EQ(done.size(), 16u);
  // Per worker (tid mod 4), tasks must appear in increasing order.
  for (int w = 0; w < 4; ++w) {
    TaskId last = 0;
    for (TaskId t : done) {
      if (t % 4 == static_cast<TaskId>(w)) {
        EXPECT_GT(t, last);
        last = t;
      }
    }
  }
  EXPECT_EQ(env.metrics().total(Component::kOsm, "tasks_executed"), 16u);
}

TEST(TaskRuntime, TaskIdsDriveVersionPipelining) {
  // The canonical O-structure pattern: each task stores version tid and
  // loads version tid-1, so tasks form a pipeline across cores regardless
  // of which core runs which task.
  Env env(cfg(4));
  versioned<std::uint64_t> chain(env);
  TaskRuntime rt(env, 4);
  std::vector<std::uint64_t> seen(17, 0);
  rt.create_task(1, [&](TaskId tid) { chain.store_ver(1, tid); });
  for (TaskId t = 2; t <= 16; ++t) {
    rt.create_task(t, [&](TaskId tid) {
      const std::uint64_t prev = chain.load_ver(tid - 1);
      seen[tid] = prev;
      chain.store_ver(prev + 1, tid);
    });
  }
  rt.run();
  for (TaskId t = 2; t <= 16; ++t) EXPECT_EQ(seen[t], t - 1);
}

TEST(TaskRuntime, GcSeesTaskWindow) {
  Env env(cfg(2));
  TaskRuntime rt(env, 2);
  versioned<std::uint64_t> v(env);
  for (TaskId t = 1; t <= 8; ++t) {
    rt.create_task(t, [&](TaskId tid) { v.store_ver(tid, tid); });
  }
  rt.run();
  // Each store shadows the last.
  EXPECT_EQ(env.metrics().total(Component::kGc, "shadowed_blocks"), 7u);
  EXPECT_EQ(env.store().gc().unfinished_tasks(), 0u);
}

TEST(SimRWLock, WriterExcludesReaders) {
  Env env(cfg(2));
  SimRWLock lock(env);
  Cycles reader_entered = 0;
  env.spawn(0, [&] {
    lock.lock();
    mach().advance(10000);
    lock.unlock();
  });
  env.spawn(1, [&] {
    mach().advance(100);
    lock.lock_shared();
    reader_entered = mach().now();
    lock.unlock_shared();
  });
  env.run();
  EXPECT_GT(reader_entered, 10000u);
}

TEST(SimRWLock, ReadersShareConcurrently) {
  Env env(cfg(4));
  SimRWLock lock(env);
  int peak = 0;
  for (CoreId c = 0; c < 4; ++c) {
    env.spawn(c, [&] {
      lock.lock_shared();
      peak = std::max(peak, lock.readers());
      mach().advance(1000);
      lock.unlock_shared();
    });
  }
  env.run();
  EXPECT_EQ(peak, 4);
}

TEST(SimRWLock, WriterPreferenceBlocksNewReaders) {
  Env env(cfg(3));
  SimRWLock lock(env);
  Cycles late_reader = 0, writer_done = 0;
  env.spawn(0, [&] {  // long-running reader
    lock.lock_shared();
    mach().advance(5000);
    lock.unlock_shared();
  });
  env.spawn(1, [&] {  // writer arrives while the reader holds the lock
    mach().advance(100);
    lock.lock();
    writer_done = mach().now();
    lock.unlock();
  });
  env.spawn(2, [&] {  // reader arriving after the writer queued must wait
    mach().advance(200);
    lock.lock_shared();
    late_reader = mach().now();
    lock.unlock_shared();
  });
  env.run();
  EXPECT_GT(writer_done, 5000u);
  EXPECT_GT(late_reader, writer_done);
}

TEST(SimRWLock, ManyWritersSerialize) {
  Env env(cfg(8));
  SimRWLock lock(env);
  int counter = 0;
  for (CoreId c = 0; c < 8; ++c) {
    env.spawn(c, [&] {
      for (int i = 0; i < 10; ++i) {
        lock.lock();
        counter++;
        mach().advance(50);
        lock.unlock();
      }
    });
  }
  env.run();
  EXPECT_EQ(counter, 80);
}

}  // namespace
}  // namespace osim
