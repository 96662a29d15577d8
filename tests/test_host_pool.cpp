// HostPool: host-parallel execution of independent simulations must be
// invisible in simulated results. Each cell builds its own Env/Machine, so
// cycles, stats, and checksums have to be bit-identical whether the cells
// run serially or fanned out across host threads (the property the bench
// driver's --threads flag relies on).
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/host_pool.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/matmul.hpp"

namespace osim {
namespace {

struct CellOut {
  Cycles cycles = 0;
  std::uint64_t checksum = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_misses = 0;
  std::string metrics_dump;  ///< full registry dump (every metric)
};

/// A small grid of dissimilar cells: sequential and task-parallel variants,
/// different structures, different core counts.
std::vector<std::function<RunResult(Env&)>> cell_bodies() {
  DsSpec spec;
  spec.initial_size = 200;
  spec.ops = 60;
  spec.reads_per_write = 4;
  MatmulSpec mm;
  mm.n = 12;
  return {
      [spec](Env& env) { return linked_list_sequential(env, spec); },
      [spec](Env& env) { return linked_list_versioned(env, spec, 4); },
      [spec](Env& env) { return binary_tree_versioned(env, spec, 8); },
      [spec](Env& env) { return binary_tree_rwlock(env, spec, 8); },
      [mm](Env& env) { return matmul_versioned(env, mm, 4); },
  };
}

std::vector<CellOut> run_grid(int threads) {
  const auto bodies = cell_bodies();
  std::vector<CellOut> out(bodies.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    jobs.push_back([&, i] {
      MachineConfig cfg;
      cfg.num_cores = 8;
      Env env(cfg);
      const RunResult r = bodies[i](env);
      const telemetry::MetricRegistry& reg = env.metrics();
      out[i] = {r.cycles, r.checksum,
                reg.total(telemetry::Component::kCache, "l1_hits"),
                reg.total(telemetry::Component::kCache, "l2_misses"),
                reg.dump_str()};
    });
  }
  HostPool(threads).run(std::move(jobs));
  return out;
}

TEST(HostPool, ParallelResultsBitIdenticalToSerial) {
  const auto serial = run_grid(1);
  for (int threads : {2, 4, 8}) {
    const auto par = run_grid(threads);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].cycles, par[i].cycles) << "cell " << i;
      EXPECT_EQ(serial[i].checksum, par[i].checksum) << "cell " << i;
      EXPECT_EQ(serial[i].l1_hits, par[i].l1_hits) << "cell " << i;
      EXPECT_EQ(serial[i].l2_misses, par[i].l2_misses) << "cell " << i;
      // Every metric — not just the two cache counters above — must be
      // byte-identical regardless of host threading.
      EXPECT_EQ(serial[i].metrics_dump, par[i].metrics_dump) << "cell " << i;
    }
  }
}

TEST(HostPool, RunsEveryJobExactlyOnce) {
  constexpr int kJobs = 100;
  std::vector<std::atomic<int>> hits(kJobs);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  HostPool(4).run(std::move(jobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(HostPool, FirstExceptionByJobIndexPropagates) {
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back([i] {
      if (i == 3) throw std::runtime_error("cell 3");
      if (i == 7) throw std::runtime_error("cell 7");
    });
  }
  try {
    HostPool(4).run(std::move(jobs));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
}

TEST(HostPool, BatchDrainsEvenWhenJobsThrow) {
  constexpr int kJobs = 32;
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i % 5 == 0) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(HostPool(4).run(std::move(jobs)), std::runtime_error);
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(HostPool, DefaultThreadCountMatchesHardware) {
  EXPECT_EQ(HostPool(0).thread_count(), HostPool::hardware_threads());
  EXPECT_EQ(HostPool(-3).thread_count(), HostPool::hardware_threads());
  EXPECT_EQ(HostPool(5).thread_count(), 5);
  EXPECT_GE(HostPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace osim
