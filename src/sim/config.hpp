// Machine configuration. Defaults reproduce Table II of the paper:
//   Processor   2-way in-order (ARM ISA), 2 GHz
//   L1 I/D      32 KB, 8-way, 64 B lines, 4-cycle hit latency
//   L2          1.5 MB x #cores, shared, 16-way, 64 B lines, 35-cycle hit
//   Memory      64 GB, 60 ns latency (120 cycles at 2 GHz)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/ostruct_config.hpp"
#include "core/types.hpp"

namespace osim {

/// Geometry and latency of one cache level.
struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  int ways = 8;
  int line_bytes = kLineBytes;
  Cycles hit_latency = 4;

  std::size_t num_sets() const {
    return size_bytes / (static_cast<std::size_t>(ways) * line_bytes);
  }
};

/// Which execution backend an Env builds around the VersionStore engine.
///   kTimed       the cycle-accurate fiber machine with cache models; every
///                result is deterministic simulated cycles.
///   kFunctional  host-speed in-order execution of the same versioned ISA
///                with no fibers and no cache models; results are values,
///                faults, and logical op counts — not cycles.
enum class BackendKind { kTimed, kFunctional };

inline const char* to_string(BackendKind b) {
  return b == BackendKind::kFunctional ? "functional" : "timed";
}

/// Whole-machine configuration (Table II defaults).
struct MachineConfig {
  int num_cores = 1;
  double ghz = 2.0;
  /// 2-way in-order core: non-memory instructions retire at up to 2/cycle.
  int issue_width = 2;

  CacheConfig l1{32 * 1024, 8, kLineBytes, 4};
  /// l2.size_bytes is *per core*; effective capacity = l2_per_core * cores
  /// (Table II: "1.5MB x #cores, shared").
  std::size_t l2_per_core_bytes = 3 * 512 * 1024;  // 1.5 MB
  int l2_ways = 16;
  Cycles l2_hit_latency = 35;

  /// 60 ns at 2 GHz.
  Cycles dram_latency = 120;
  /// Cache-to-cache forward from a remote L1. The paper observes LLC and
  /// remote-L1 transfers have comparable latencies (Sec. IV-D).
  Cycles remote_l1_latency = 38;
  /// Extra cost of invalidating remote sharers on an upgrade/write miss.
  Cycles invalidate_latency = 20;

  std::size_t fiber_stack_bytes = 512 * 1024;

  /// Execution backend; Env dispatches on this (see runtime/env.hpp).
  BackendKind backend = BackendKind::kTimed;

  OStructConfig ostruct{};

  CacheConfig l2_config() const {
    return CacheConfig{l2_per_core_bytes * static_cast<std::size_t>(num_cores),
                       l2_ways, kLineBytes, l2_hit_latency};
  }
};

}  // namespace osim
