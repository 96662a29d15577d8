// The per-figure table formatters (bench/report.hpp) that the benches and
// osim-report both print through: each test renders a small synthetic bench
// record and compares the table with hand-computed numbers.
#include "report.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

namespace osim::bench::report {
namespace {

/// Render bench `bench`'s record, given as the JSON text of its "cells"
/// array, expecting the loader to find nothing wrong with it.
std::string render_cells(const std::string& bench, const std::string& cells) {
  const Json rec = Json::parse("{\"cells\": " + cells + "}");
  BenchRecord b;
  EXPECT_TRUE(load_bench(bench, rec, b).empty());
  std::ostringstream os;
  EXPECT_TRUE(render(os, bench, b));
  return os.str();
}

/// JSON text of a cell that records only its name and cycles.
std::string cell(const std::string& name, std::uint64_t cycles) {
  return "{\"name\": \"" + name + "\", \"cycles\": " + std::to_string(cycles) +
         ", \"checksum\": 0}";
}

std::string cells(std::initializer_list<std::string> list) {
  std::string out = "[";
  for (const std::string& c : list) out += (out.size() > 1 ? ", " : "") + c;
  return out + "]";
}

TEST(Report, Table2ListsProbeCycles) {
  const std::string out = render_cells(
      "table2_platform", cells({cell("L1 hit", 4), cell("L2 hit", 39)}));
  EXPECT_NE(out.find("| probe | measured cycles |\n"
                     "|---|---|\n"
                     "| L1 hit | 4 |\n"
                     "| L2 hit | 39 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, Fig6PivotsSeqOverParIntoSizeAndMixColumns) {
  // Regular codes have no size/mix and land in the first column; a missing
  // pair leaves its column empty.
  const std::string out = render_cells(
      "fig6_speedup",
      cells({cell("linked_list/small/4R-1W/seq", 1000),
             cell("linked_list/small/4R-1W/par", 400),
             cell("linked_list/small/1R-1W/seq", 900),
             cell("linked_list/small/1R-1W/par", 300),
             cell("linked_list/large/4R-1W/seq", 1000),
             cell("linked_list/large/4R-1W/par", 3000),
             cell("matrix_mul/seq", 1750), cell("matrix_mul/par", 100)}));
  EXPECT_NE(
      out.find("| benchmark | small 4R-1W | small 1R-1W | large 4R-1W | "
               "large 1R-1W |\n"
               "|---|---|---|---|---|\n"
               "| linked_list | 2.50 | 3.00 | 0.33 |  |\n"
               "| matrix_mul | 17.50 |  |  |  |\n"),
      std::string::npos)
      << out;
}

TEST(Report, Fig7SpeedupOverOneCore) {
  const std::string out = render_cells(
      "fig7_scalability",
      cells({cell("a/cores=1", 1000), cell("a/cores=2", 500),
             cell("a/cores=4", 300), cell("b/cores=1", 90),
             cell("b/cores=2", 100), cell("b/cores=4", 45)}));
  EXPECT_NE(out.find("| benchmark | 2 | 4 |\n"
                     "|---|---|---|\n"
                     "| a | 2.00 | 3.33 |\n"
                     "| b | 0.90 | 2.00 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, Fig8RwlockOverVersionedAndMeanSelfSpeedups) {
  // Self-speedups, first to last core count, averaged over the ranges:
  // versioned (100/20 + 200/40) / 2 = 5.0; rwlock (50/30 + 100/80) / 2 =
  // 1.458.
  const std::string out = render_cells(
      "fig8_snapshot",
      cells({cell("range=1/cores=1/versioned", 100),
             cell("range=1/cores=1/rwlock", 50),
             cell("range=1/cores=4/versioned", 20),
             cell("range=1/cores=4/rwlock", 30),
             cell("range=8/cores=1/versioned", 200),
             cell("range=8/cores=1/rwlock", 100),
             cell("range=8/cores=4/versioned", 40),
             cell("range=8/cores=4/rwlock", 80)}));
  EXPECT_NE(out.find("| scan range | 1 core | 4 |\n"
                     "|---|---|---|\n"
                     "| 1 | 0.50 | 1.50 |\n"
                     "| 8 | 0.50 | 2.00 |\n"
                     "\n"
                     "Self-speedups cores=1 -> cores=4: versioned 5.0, "
                     "rwlock 1.5\n"),
            std::string::npos)
      << out;
}

TEST(Report, Fig9RelativeTo32KB) {
  const std::string out = render_cells(
      "fig9_l1size", cells({cell("x U/l1=8KB", 1200), cell("x U/l1=32KB", 1000),
                            cell("x U/l1=128KB", 800)}));
  EXPECT_NE(out.find("| run | 8KB | 32KB | 128KB |\n"
                     "|---|---|---|---|\n"
                     "| x U | 0.83 | 1.00 | 1.25 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, Fig10SlowdownAtThreeDecimals) {
  // 1000/1050 - 1 = -0.0476; 1000/1160 - 1 = -0.1379.
  const std::string out = render_cells(
      "fig10_latency", cells({cell("x 1T/+0cyc", 1000),
                              cell("x 1T/+2cyc", 1050),
                              cell("x 1T/+10cyc", 1160)}));
  EXPECT_NE(out.find("| run | +2cyc | +10cyc |\n"
                     "|---|---|---|\n"
                     "| x 1T | -0.048 | -0.138 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, GcOverheadVsAmpleAndVsPaper) {
  // blocks_freed as a per-core vector reads its total; the batch columns
  // are each policy's own histogram (bounds 1, 4, then overflow).
  const std::string out = render_cells("gc_overhead", R"([
    {"name": "tight", "cycles": 990, "checksum": 0,
     "metrics": {"gc/phases": 5, "osm/os_traps": 2,
                 "osm/blocks_freed": {"total": 7, "per_core": [7]}}},
    {"name": "ample", "cycles": 1000, "checksum": 0},
    {"name": "no-sorting", "cycles": 1000, "checksum": 0},
    {"name": "tight/gc=paper", "gc": "paper", "cycles": 1000, "checksum": 0,
     "metrics": {"gc/phases": 4, "osm/os_traps": 1, "osm/blocks_freed": 6,
                 "gc/pending_batch_blocks": {"count": 4, "sum": 6,
                     "bounds": [1, 4], "buckets": [3, 1, 0]}}},
    {"name": "tight/gc=bounded", "gc": "bounded", "cycles": 1010,
     "checksum": 0,
     "metrics": {"gc/sweeps": 3, "osm/blocks_freed": 6,
                 "gc/reclaim_batch_blocks": {"count": 3, "sum": 6,
                     "bounds": [1, 4], "buckets": [1, 1, 1]}}}])");
  EXPECT_NE(out.find("| config | cycles | GC phases | OS traps | "
                     "blocks freed | vs ample |\n"
                     "|---|---|---|---|---|---|\n"
                     "| tight | 990 | 5 | 2 | 7 | -1.000% |\n"
                     "| ample | 1000 | 0 | 0 | 0 | 0.000% |\n"
                     "| no-sorting | 1000 | 0 | 0 | 0 | 0.000% |\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("| policy | cycles | GC runs | OS traps | blocks freed "
                     "| vs paper | batch distribution |\n"
                     "|---|---|---|---|---|---|---|\n"
                     "| paper | 1000 | 4 | 1 | 6 | 0.000% | "
                     "n=4 mean=1.5 <=1:3 <=4:1 |\n"
                     "| bounded | 1010 | 3 | 0 | 6 | 1.000% | "
                     "n=3 mean=2.0 <=1:1 <=4:1 overflow:1 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, AblationRelativeToBaseline) {
  const std::string out = render_cells(
      "ablation", cells({cell("x 1T/baseline", 1000),
                         cell("x 1T/no-compress", 1250),
                         cell("x 1T/inplace-comp", 960)}));
  EXPECT_NE(out.find("| run | baseline | no-compress | inplace-comp |\n"
                     "|---|---|---|---|\n"
                     "| x 1T | 1.000 | 0.800 | 1.042 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, SwVsHwRatio) {
  const std::string out = render_cells(
      "sw_vs_hw", cells({cell("hw/cores=1", 100), cell("sw/cores=1", 250),
                         cell("hw/cores=8", 40), cell("sw/cores=8", 130)}));
  EXPECT_NE(out.find("| cores | hardware cycles | software cycles | sw/hw |\n"
                     "|---|---|---|---|\n"
                     "| 1 | 100 | 250 | 2.50 |\n"
                     "| 8 | 40 | 130 | 3.25 |\n"),
            std::string::npos)
      << out;
}

TEST(Report, BackendThroughputOpsPerSecondAndSpeedup) {
  // Each cell's ops over its own wall_seconds; speedup = timed seconds /
  // functional seconds; the aggregate sums both columns' seconds.
  const std::string out = render_cells("backend_throughput", R"([
    {"name": "ll/timed", "backend": "timed", "cycles": 1, "checksum": 0,
     "wall_seconds": 0.5, "ops": 1000},
    {"name": "ll/functional", "backend": "functional", "cycles": 1,
     "checksum": 0, "wall_seconds": 0.02, "ops": 1000},
    {"name": "ht/timed", "backend": "timed", "cycles": 1, "checksum": 0,
     "wall_seconds": 0.1, "ops": 300},
    {"name": "ht/functional", "backend": "functional", "cycles": 1,
     "checksum": 0, "wall_seconds": 0.01, "ops": 300}])");
  EXPECT_NE(out.find("| mix | ops | timed ops/s | func ops/s | speedup |\n"
                     "|---|---|---|---|---|\n"
                     "| ll | 1000 | 2000 | 50000 | 25.0x |\n"
                     "| ht | 300 | 3000 | 30000 | 10.0x |\n"
                     "\n"
                     "aggregate: 1300 structure ops; timed 0.60s, functional "
                     "0.03s (20.0x; best mix 25.0x)\n"),
            std::string::npos)
      << out;
}

TEST(Report, ChaosSoakCountersAndVerdicts) {
  const std::string out = render_cells("chaos_soak", R"([
    {"name": "r0/serial", "backend": "functional", "cycles": 0,
     "checksum": 1, "ops": 100,
     "metrics": {"chaos/aborts": 2, "chaos/aborted_blocks": 3,
                 "chaos/aborted_locks": 1, "chaos/retries": 2,
                 "chaos/giveups": 0, "chaos/backoff_us": 40},
     "check": {"errors": 0, "warnings": 1}},
    {"name": "r0/conc", "backend": "functional", "cycles": 0,
     "checksum": 1, "ops": 100}])");
  EXPECT_NE(out.find("| r0/serial | 100 | 2 | 3 | 1 | 2 | 0 | 40 | "
                     "1 warning(s) |\n"
                     "| r0/conc | 100 | 0 | 0 | 0 | 0 | 0 | 0 | "
                     "(unchecked) |\n"),
            std::string::npos)
      << out;
}

TEST(Report, UnknownBenchHasNoFormatter) {
  std::ostringstream os;
  EXPECT_FALSE(render(os, "no_such_bench", BenchRecord{}));
  EXPECT_TRUE(os.str().empty());
}

TEST(Report, MixedBackendsRefusedOutsideBackendThroughput) {
  const Json rec = Json::parse(R"({"cells": [
    {"name": "a/cores=1", "backend": "timed", "cycles": 1, "checksum": 0},
    {"name": "a/cores=2", "backend": "functional", "cycles": 1,
     "checksum": 0}]})");
  BenchRecord fig7, throughput;
  EXPECT_EQ(load_bench("fig7_scalability", rec, fig7).size(), 1u);
  EXPECT_EQ(fig7.cells.size(), 2u);
  EXPECT_TRUE(load_bench("backend_throughput", rec, throughput).empty());
}

}  // namespace
}  // namespace osim::bench::report
