// Tests for the Sec. IV-D pipelining protocol helpers: the root ticket and
// the hand-over-hand lock cursor.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/pipeline.hpp"
#include "runtime/task.hpp"

namespace osim {
namespace {

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

TEST(TicketRoot, MutatorsEnterInTaskOrder) {
  Env env(cfg(4));
  TicketRoot<std::uint64_t> root(env);
  std::vector<TaskId> order;
  TaskRuntime rt(env, 4);
  rt.set_setup([&] { root.init(0, 1); });
  // Create mutator tasks in a scrambled per-core layout; the ticket must
  // still admit them strictly by id.
  for (TaskId t = 2; t <= 9; ++t) {
    rt.create_task(t, [&env, &root, &order](TaskId tid) {
      mach().exec(5 * (10 - tid));  // younger tasks "arrive" earlier
      root.enter_mut(tid, tid - 1);
      order.push_back(tid);
      mach().advance(50);
      root.leave_mut(tid, tid - 1);
    });
  }
  rt.run();
  EXPECT_EQ(order, (std::vector<TaskId>{2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(TicketRoot, MutatorExitPublishesNewValue) {
  Env env(cfg(1));
  env.run_sequential([&] {
    TicketRoot<std::uint64_t> root(env);
    root.init(100, 1);
    EXPECT_EQ(root.enter_mut(2, 1), 100u);
    root.leave_mut(2, 1, std::uint64_t{200});  // mutation changed the root
    EXPECT_EQ(root.enter_mut(3, 2), 200u);
    root.leave_mut(3, 2);  // unchanged: renamed forward
    EXPECT_EQ(root.enter_ro(3), 200u);
  });
}

TEST(TicketRoot, ReadersBetweenMutatorsRunConcurrently) {
  // Readers 3,4,5 all name mutator 2's version; none blocks on another.
  Env env(cfg(4));
  TicketRoot<std::uint64_t> root(env);
  TaskRuntime rt(env, 4);
  rt.set_setup([&] { root.init(7, 1); });
  rt.create_task(2, [&root](TaskId t) {
    root.enter_mut(t, 1);
    mach().advance(100);
    root.leave_mut(t, 1);
  });
  int concurrent = 0, peak = 0;
  for (TaskId t = 3; t <= 5; ++t) {
    rt.create_task(t, [&](TaskId) {
      EXPECT_EQ(root.enter_ro(2), 7u);
      ++concurrent;
      peak = std::max(peak, concurrent);
      mach().advance(1000);
      mach().sync_to_global_order();
      --concurrent;
    });
  }
  rt.run();
  EXPECT_GE(peak, 2);  // overlap actually happened
}

TEST(TicketRoot, ReaderWaitsForPrecedingMutator) {
  Env env(cfg(2));
  TicketRoot<std::uint64_t> root(env);
  Cycles read_at = 0;
  TaskRuntime rt(env, 2);
  rt.set_setup([&] { root.init(1, 1); });
  rt.create_task(2, [&root](TaskId t) {
    mach().advance(8000);  // slow mutator
    root.enter_mut(t, 1);
    root.leave_mut(t, 1, std::uint64_t{2});
  });
  rt.create_task(3, [&](TaskId) {
    EXPECT_EQ(root.enter_ro(2), 2u);  // must see mutator 2's value
    read_at = mach().now();
  });
  rt.run();
  EXPECT_GT(read_at, 8000u);
}

TEST(HandOverHand, AdvanceHoldsNextBeforeReleasingPrevious) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<std::uint64_t> a(env), b(env);
    a.store_ver(10, 1);
    b.store_ver(20, 1);
    HandOverHand<std::uint64_t> hoh(5);
    EXPECT_EQ(hoh.advance(a), 10u);
    EXPECT_TRUE(hoh.holding());
    EXPECT_EQ(&hoh.held(), &a);
    EXPECT_EQ(hoh.advance(b), 20u);
    EXPECT_EQ(&hoh.held(), &b);
    // a must be unlocked again, b locked by us.
    EXPECT_FALSE(env.store().lock_holder(a.addr(), 1).has_value());
    EXPECT_EQ(env.store().lock_holder(b.addr(), 1), std::optional<TaskId>(5));
    hoh.release_unchanged();
    EXPECT_FALSE(env.store().lock_holder(b.addr(), 1).has_value());
  });
}

TEST(HandOverHand, ModifyAndReleaseRenames) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<std::uint64_t> f(env);
    f.store_ver(1, 1);
    HandOverHand<std::uint64_t> hoh(6);
    hoh.advance(f);
    hoh.modify_and_release(99);
    // Old version intact, new version at the task id, nothing locked.
    EXPECT_EQ(f.load_ver(1), 1u);
    EXPECT_EQ(f.load_ver(6), 99u);
    EXPECT_EQ(f.load_latest(100), 99u);
  });
}

TEST(HandOverHand, YoungerMutatorCannotOvertake) {
  Env env(cfg(2));
  versioned<std::uint64_t> hop1(env), hop2(env);
  std::vector<int> at_hop2;
  TaskRuntime rt(env, 2);
  rt.set_setup([&] {
    hop1.store_ver(1, 1);
    hop2.store_ver(1, 1);
  });
  rt.create_task(2, [&](TaskId t) {
    HandOverHand<std::uint64_t> hoh(t);
    hoh.advance(hop1);
    mach().advance(5000);  // dawdle while holding hop1
    hoh.advance(hop2);
    at_hop2.push_back(2);
    hoh.release_unchanged();
  });
  rt.create_task(3, [&](TaskId t) {
    HandOverHand<std::uint64_t> hoh(t);
    hoh.advance(hop1);  // stalls behind task 2's lock
    hoh.advance(hop2);
    at_hop2.push_back(3);
    hoh.release_unchanged();
  });
  rt.run();
  EXPECT_EQ(at_hop2, (std::vector<int>{2, 3}));
}

TEST(HandOverHand, AdoptTakesExternalLock) {
  Env env(cfg(1));
  env.run_sequential([&] {
    versioned<std::uint64_t> f(env);
    f.store_ver(5, 1);
    Ver locked = 0;
    f.lock_load_last(10, /*locker=*/4, &locked);
    HandOverHand<std::uint64_t> hoh(4);
    hoh.adopt(f, locked);
    hoh.release_unchanged();
    EXPECT_FALSE(env.store().lock_holder(f.addr(), 1).has_value());
  });
}

}  // namespace
}  // namespace osim
