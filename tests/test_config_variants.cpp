// Correctness under every configuration variant: whatever the timing knobs
// (compression off, pollution-avoidance off, in-place compressed updates,
// unsorted lists, tiny GC-pressured pools, injected latencies), the
// parallel versioned execution must still produce exactly the sequential
// baseline's results. Timing models must never leak into semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "workloads/binary_tree.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/opgen.hpp"

namespace osim {
namespace {

using telemetry::Component;

DsSpec spec_small() {
  DsSpec s;
  s.initial_size = 150;
  s.ops = 120;
  s.reads_per_write = 2;
  s.seed = 77;
  return s;
}

struct Variant {
  const char* name;
  void (*apply)(MachineConfig&);
};

const Variant kVariants[] = {
    {"baseline", [](MachineConfig&) {}},
    {"no_compression",
     [](MachineConfig& c) { c.ostruct.enable_compression = false; }},
    {"no_pollution_avoidance",
     [](MachineConfig& c) { c.ostruct.pollution_avoidance = false; }},
    {"inplace_comp_update",
     [](MachineConfig& c) { c.ostruct.inplace_comp_update = true; }},
    {"unsorted_lists",
     [](MachineConfig& c) { c.ostruct.sorted_lists = false; }},
    {"tiny_pool_gc_pressure",
     [](MachineConfig& c) {
       c.ostruct.initial_pool_blocks = 128;
       c.ostruct.trap_grow_blocks = 64;
       c.ostruct.gc_watermark = 64;
     }},
    {"injected_latency_10",
     [](MachineConfig& c) { c.ostruct.injected_latency = 10; }},
    {"tiny_l1",
     [](MachineConfig& c) { c.l1.size_bytes = 8 * 1024; }},
};

// The parameter is an index into kVariants rather than a Variant: gtest
// lists a struct parameter by its raw bytes, and a Variant's bytes are
// pointers that differ on every run, so the listed test names would too.
class ConfigVariant : public ::testing::TestWithParam<std::size_t> {
 protected:
  const Variant& variant() const { return kVariants[GetParam()]; }
};

TEST_P(ConfigVariant, TreeResultsUnchanged) {
  const Variant& v = variant();
  const DsSpec spec = spec_small();
  MachineConfig seq_cfg;
  seq_cfg.num_cores = 1;
  Env seq_env(seq_cfg);
  const RunResult seq = binary_tree_sequential(seq_env, spec);

  MachineConfig par_cfg;
  par_cfg.num_cores = 8;
  v.apply(par_cfg);
  Env par_env(par_cfg);
  const RunResult par = binary_tree_versioned(par_env, spec, 8);
  EXPECT_EQ(par.checksum, seq.checksum) << v.name;
}

TEST_P(ConfigVariant, ListResultsUnchanged) {
  const Variant& v = variant();
  const DsSpec spec = spec_small();
  MachineConfig seq_cfg;
  seq_cfg.num_cores = 1;
  Env seq_env(seq_cfg);
  const RunResult seq = linked_list_sequential(seq_env, spec);

  MachineConfig par_cfg;
  par_cfg.num_cores = 4;
  v.apply(par_cfg);
  Env par_env(par_cfg);
  const RunResult par = linked_list_versioned(par_env, spec, 4);
  EXPECT_EQ(par.checksum, seq.checksum) << v.name;
}

INSTANTIATE_TEST_SUITE_P(AllKnobs, ConfigVariant,
                         ::testing::Range<std::size_t>(0, std::size(kVariants)),
                         [](const auto& info) {
                           return std::string(kVariants[info.param].name);
                         });

TEST(ConfigVariant, InjectedLatencyOnlySlowsDown) {
  const DsSpec spec = spec_small();
  auto run = [&](Cycles inject) {
    MachineConfig c;
    c.num_cores = 4;
    c.ostruct.injected_latency = inject;
    Env env(c);
    return binary_tree_versioned(env, spec, 4);
  };
  const RunResult base = run(0);
  const RunResult slow = run(10);
  EXPECT_EQ(base.checksum, slow.checksum);
  EXPECT_GT(slow.cycles, base.cycles);
}

TEST(ConfigVariant, GcPressureChangesTimingNotResults) {
  const DsSpec spec = spec_small();
  auto run = [&](std::size_t pool, std::size_t watermark) {
    MachineConfig c;
    c.num_cores = 4;
    c.ostruct.initial_pool_blocks = pool;
    c.ostruct.trap_grow_blocks = 64;
    c.ostruct.gc_watermark = watermark;
    Env env(c);
    const RunResult r = linked_list_versioned(env, spec, 4);
    EXPECT_LE(env.metrics().total(Component::kOsm, "blocks_freed"),
              env.metrics().total(Component::kOsm, "blocks_allocated"));
    return r;
  };
  const RunResult ample = run(1 << 20, 0);
  const RunResult tight = run(160, 96);
  EXPECT_EQ(ample.checksum, tight.checksum);
}

}  // namespace
}  // namespace osim
