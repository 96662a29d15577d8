// Deterministic operation-sequence generation for the data-structure
// workloads (paper Sec. IV-A): pre-populated structures, equal insert and
// delete counts (stable footprint), configurable read:write ratio and scan
// range, fixed seeds for bit-reproducible experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace osim {

enum class OpKind : std::uint8_t { kLookup, kScan, kInsert, kDelete };

struct Op {
  OpKind kind;
  std::uint64_t key;
};

/// Parameters for a data-structure experiment run.
struct DsSpec {
  std::size_t initial_size = 1000;  ///< small = 1000, large = 10000
  int ops = 1000;                   ///< measured operations
  int reads_per_write = 4;          ///< 4R-1W (read-intensive) or 1R-1W
  int scan_range = 1;               ///< 1 = simple get; 8/64 for Fig. 8
  std::uint64_t seed = 42;

  /// Keys are drawn from a space 4x the initial size, keeping the effective
  /// footprint stable as inserts and deletes balance out.
  std::uint64_t key_space() const { return initial_size * 4 + 1; }
};

/// The keys the structure is pre-populated with (distinct, pseudo-random).
std::vector<std::uint64_t> initial_keys(const DsSpec& spec);

/// The measured operation sequence. Reads (lookup, or scan when
/// spec.scan_range > 1) appear `reads_per_write` times per write; writes
/// alternate insert/delete so the footprint stays stable.
std::vector<Op> generate_ops(const DsSpec& spec);

/// Outcome of one workload run.
struct RunResult {
  Cycles cycles = 0;
  std::uint64_t checksum = 0;  ///< order-sensitive digest of op results
};

/// Mix a per-op result into an order-sensitive checksum.
inline void mix(std::uint64_t& sum, std::uint64_t value) {
  sum = sum * 1099511628211ull + value + 1;
}

}  // namespace osim
