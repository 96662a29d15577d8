// Unit tests for the multicore machine: deterministic scheduling, timing,
// blocking/wakeup, deadlock detection, fault propagation.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
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

TEST(Machine, RunAfterFaultStartsClean) {
  // A fault ends the run it occurred in. Respawning the core and running
  // again must not rethrow the earlier fault.
  Machine m(cfg(1));
  m.spawn(0, [] { throw std::runtime_error("first-run fault"); });
  EXPECT_THROW(m.run(), SimError);
  bool ran = false;
  m.spawn(0, [&] {
    mach().advance(10);
    ran = true;
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(ran);
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

TEST(Machine, ClockBeyondRunQueueKeyRangeRaisesSimError) {
  // The run-queue key packs the clock above a 6-bit core id, so a clock of
  // 2^58 cycles or more cannot be ordered. Each way a key is made must
  // fault rather than wrap around to an early time.
  constexpr Cycles kLimit = Cycles{1} << 58;
  {
    // The running core's own key, compared against a queued core.
    Machine m(cfg(2));
    WaitList wl;
    bool representable = false;
    m.spawn(0, [&] {
      mach().advance(10);
      mach().sync_to_global_order();  // core 1 runs and parks
      mach().advance(kLimit - 11);
      mach().wake_all(wl, 0);  // core 1 queued at 2^58 - 1
      mach().sync_to_global_order();
      representable = true;
      mach().advance(1);
      mach().sync_to_global_order();
      ADD_FAILURE() << "a clock of 2^58 was ordered";
    });
    m.spawn(1, [&] { mach().block_on(wl); });
    try {
      m.run();
      FAIL() << "expected SimError";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("2^58"), std::string::npos);
    }
    EXPECT_TRUE(representable);
  }
  {
    // A woken core re-queued at 2^58.
    Machine m(cfg(2));
    WaitList wl;
    m.spawn(0, [&] { mach().block_on(wl); });
    m.spawn(1, [&] {
      mach().advance(1);
      mach().sync_to_global_order();
      mach().wake_all(wl, kLimit);
    });
    EXPECT_THROW(m.run(), SimError);
  }
  {
    // A core respawned after its clock passed the bound.
    Machine m(cfg(1));
    m.spawn(0, [&] { mach().advance(kLimit); });
    m.run();
    EXPECT_THROW(m.spawn(0, [] {}), SimError);
  }
}

TEST(Machine, RejectsMoreCoresThanTheSharerMaskHolds) {
  EXPECT_THROW(Machine(cfg(65)), std::invalid_argument);
  EXPECT_NO_THROW(Machine(cfg(64)));
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

TEST(Machine, InterleavingMatchesRecordedOrder) {
  // Twelve cores run a seeded mix of exec, advance, mem_access, block_on
  // and wake_all over a few shared lines. Clocks are often aligned to a
  // common grid so that equal-clock ties are frequent, and wakes use both
  // zero and non-zero latency. The (core, clock) sequence of the memory
  // events is hashed and compared with a recorded value, so any change of
  // pick order or tie-break fails the test.
  constexpr int kCores = 12;
  constexpr int kSteps = 300;
  Machine m(cfg(kCores));
  std::array<WaitList, 3> lists;
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over 64-bit words
  auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  // Cores neither blocked nor finished, updated with no switch between the
  // check and the block. A core blocks only while another one stays
  // active, and every finishing core wakes all lists, so the run cannot
  // deadlock.
  int active = kCores;
  for (CoreId c = 0; c < kCores; ++c) {
    m.spawn(c, [&, c] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<unsigned>(c + 1);
      auto next = [&rng] {  // splitmix64
        std::uint64_t z = (rng += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
      };
      auto wake = [&](WaitList& wl, Cycles latency) {
        active += static_cast<int>(wl.size());
        mach().wake_all(wl, latency);
      };
      for (int i = 0; i < kSteps; ++i) {
        const std::uint64_t r = next();
        switch (r % 8) {
          case 0:
            mach().exec(1 + (r >> 8) % 6);
            break;
          case 1:  // align to a 16-cycle grid: equal clocks across cores
            mach().advance((16 - mach().now() % 16) % 16);
            break;
          case 2:
            mach().advance((r >> 8) % 3);
            break;
          case 3:
          case 4:
          case 5: {
            const Addr line = 0x40000 + 64 * ((r >> 8) % 12);
            mach().mem_access(line, (r >> 16) % 3 == 0 ? AccessType::kWrite
                                                       : AccessType::kRead);
            mix(static_cast<std::uint64_t>(c));
            mix(mach().now());
            break;
          }
          case 6:
            mach().sync_to_global_order();
            if (active > 1) {
              --active;
              mach().block_on(lists[(r >> 8) % lists.size()]);
            }
            break;
          case 7:
            mach().sync_to_global_order();
            wake(lists[(r >> 8) % lists.size()], (r >> 16) % 2 == 0 ? 0 : 5);
            break;
        }
      }
      mach().sync_to_global_order();
      for (WaitList& wl : lists) wake(wl, 0);
      --active;
    });
  }
  m.run();
  mix(m.elapsed());
  EXPECT_EQ(hash, 15141214710161517686ull);
}

}  // namespace
}  // namespace osim
