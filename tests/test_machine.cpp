// Unit tests for the multicore machine: deterministic scheduling, timing,
// blocking/wakeup, deadlock detection, fault propagation.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace osim {
namespace {

using telemetry::Component;

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

TEST(Machine, SingleCoreRunsToCompletion) {
  Machine m(cfg(1));
  int x = 0;
  m.spawn(0, [&] {
    mach().exec(10);
    x = 7;
  });
  m.run();
  EXPECT_EQ(x, 7);
  // 10 instructions on a 2-wide core = 5 cycles.
  EXPECT_EQ(m.elapsed(), 5u);
  EXPECT_EQ(m.metrics().value(Component::kCore, "instructions", 0), 10u);
}

TEST(Machine, ExecRoundsUpToIssueWidth) {
  Machine m(cfg(1));
  m.spawn(0, [&] { mach().exec(7); });
  m.run();
  EXPECT_EQ(m.elapsed(), 4u);  // ceil(7/2)
}

TEST(Machine, MemAccessChargesHierarchyLatency) {
  Machine m(cfg(1));
  m.spawn(0, [&] {
    mach().mem_access(0x1000, AccessType::kRead);
    mach().mem_access(0x1000, AccessType::kRead);
  });
  m.run();
  const auto& c = m.config();
  EXPECT_EQ(m.elapsed(), (c.l1.hit_latency + c.l2_hit_latency +
                          c.dram_latency) +
                             c.l1.hit_latency);
}

TEST(Machine, MemoryEventsProcessedInGlobalTimeOrder) {
  // Core 1 starts 1000 cycles "later"; its write to X must be observed by
  // the memory system after core 0's earlier accesses even though core 1's
  // fiber could physically run first.
  Machine m(cfg(2));
  std::vector<int> order;
  m.spawn(1, [&] {
    mach().advance(1000);
    mach().mem_access(0x9000, AccessType::kWrite);
    order.push_back(1);
  });
  m.spawn(0, [&] {
    mach().mem_access(0x9000, AccessType::kWrite);
    order.push_back(0);
  });
  m.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  // Core 1's miss found the line modified in core 0's L1.
  EXPECT_EQ(m.metrics().value(Component::kCache, "remote_l1_fills", 1), 1u);
}

TEST(Machine, TieBreaksByCoreId) {
  Machine m(cfg(2));
  std::vector<int> order;
  for (CoreId c : {1, 0}) {
    m.spawn(c, [&order, c] {
      mach().mem_access(0x100 + 0x1000 * c, AccessType::kRead);
      order.push_back(c);
    });
  }
  m.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);  // equal clocks: lower id goes first
}

TEST(Machine, BlockAndWake) {
  Machine m(cfg(2));
  WaitList wl;
  std::vector<int> order;
  m.spawn(0, [&] {
    order.push_back(0);
    mach().block_on(wl);
    order.push_back(2);
  });
  m.spawn(1, [&] {
    mach().advance(500);  // make sure core 0 blocks first
    mach().sync_to_global_order();
    order.push_back(1);
    mach().wake_all(wl, /*wake_latency=*/8);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Woken core resumes at waker time + latency.
  EXPECT_GE(m.elapsed(), 508u);
  EXPECT_GE(m.metrics().value(Component::kCore, "stall_cycles", 0), 500u);
}

TEST(Machine, WakeAllWakesEveryWaiter) {
  Machine m(cfg(4));
  WaitList wl;
  int woken = 0;
  for (CoreId c : {0, 1, 2}) {
    m.spawn(c, [&] {
      mach().block_on(wl);
      ++woken;
    });
  }
  m.spawn(3, [&] {
    mach().advance(100);
    mach().sync_to_global_order();
    mach().wake_all(wl, 1);
  });
  m.run();
  EXPECT_EQ(woken, 3);
}

TEST(Machine, DeadlockDetected) {
  Machine m(cfg(2));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });
  m.spawn(1, [&] { mach().block_on(wl); });
  try {
    m.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Machine, FaultPropagatesOutOfRun) {
  Machine m(cfg(2));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });  // must be unwound cleanly
  m.spawn(1, [&] {
    mach().advance(10);
    mach().sync_to_global_order();
    throw std::runtime_error("simulated protection fault");
  });
  try {
    m.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("protection fault"),
              std::string::npos);
  }
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(cfg(4));
    std::vector<int> order;
    for (CoreId c = 0; c < 4; ++c) {
      m.spawn(c, [&order, c] {
        for (int i = 0; i < 10; ++i) {
          mach().mem_access(0x1000 * (c + 1) + 64 * i, AccessType::kRead);
          mach().exec(3 + c);
          order.push_back(c);
        }
      });
    }
    m.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Machine, ElapsedIsMaxOverCores) {
  Machine m(cfg(2));
  m.spawn(0, [&] { mach().advance(10); });
  m.spawn(1, [&] { mach().advance(999); });
  m.run();
  EXPECT_EQ(m.elapsed(), 999u);
}

TEST(Machine, IdleCoresDoNotBlockCompletion) {
  Machine m(cfg(8));
  m.spawn(3, [&] { mach().exec(2); });
  m.run();  // cores 0-2, 4-7 have no program
  EXPECT_EQ(m.elapsed(), 1u);
}

TEST(Machine, CoreCanBeRespawnedAfterCompletion) {
  // A verification pass may reuse cores after the measured run; the clock
  // carries on monotonically.
  Machine m(cfg(1));
  m.spawn(0, [&] { mach().advance(100); });
  m.run();
  Cycles second_start = 0;
  m.spawn(0, [&] {
    second_start = mach().now();
    mach().advance(50);
  });
  m.run();
  EXPECT_EQ(second_start, 100u);
  EXPECT_EQ(m.elapsed(), 150u);
}

TEST(Machine, SharedCounterInterleavingIsTimestampOrdered) {
  // Two cores increment a shared counter at interleaved timestamps; the
  // final value must equal the sum (no lost updates are possible because
  // each fiber's op runs atomically at its timestamp).
  Machine m(cfg(2));
  int counter = 0;
  for (CoreId c = 0; c < 2; ++c) {
    m.spawn(c, [&counter, c] {
      for (int i = 0; i < 100; ++i) {
        mach().mem_access(0xA000, AccessType::kWrite);
        counter++;
        mach().exec(1 + c);
      }
    });
  }
  m.run();
  EXPECT_EQ(counter, 200);
  // Writes ping-pong the line: both cores must see remote fills/upgrades.
  EXPECT_GT(m.metrics().value(Component::kCache, "remote_l1_fills", 0) +
                m.metrics().value(Component::kCache, "upgrades", 0),
            0u);
}

}  // namespace
}  // namespace osim
