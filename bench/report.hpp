// Per-figure tables from bench result records (one value of a schema-2
// result file's "benches" object). Each bench prints its own record through
// this module at the end of its run, and tools/osim-report prints saved
// --json files through it, so both show the same table for the same run.
// It links no simulator code.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "json.hpp"

namespace osim::bench::report {

struct Cell {
  std::string name;
  /// Backend that produced the cell. Older result files predate the field;
  /// they could only have come from the cycle-accurate backend.
  std::string backend = "timed";
  /// GC policy behind the cell. Older result files predate the field; they
  /// could only have run the paper's collector.
  std::string gc = "paper";
  std::uint64_t cycles = 0;
  std::uint64_t checksum = 0;
  /// Host seconds the cell measured (see CellResult::wall_seconds).
  double wall_seconds = 0.0;
  /// Operations the cell issued, for cells that count them; 0 = absent.
  std::uint64_t ops = 0;
  const Json* metrics = nullptr;  ///< owned by the record's Json
  const Json* check = nullptr;    ///< osim-check verdict (--check runs only)

  /// Machine-wide value of metric `key` (a per-core vector's total); 0 when
  /// absent.
  std::uint64_t metric(const std::string& key) const;
  /// Field `key` of the osim-check verdict; 0 when absent or unchecked.
  std::uint64_t check_count(const char* key) const;
};

struct BenchRecord {
  double scale = 1.0;
  std::uint64_t threads = 0;
  double wall_seconds = 0.0;
  bool checks_passed = false;
  std::vector<Cell> cells;

  const Cell* find(const std::string& name) const;
};

/// Read bench `bench`'s record `rec` into `out`, which points into `rec`.
/// Returns the problems found (no cell array, malformed cells, a table
/// that mixes backends or GC policies); the well-formed cells load anyway.
std::vector<std::string> load_bench(const std::string& bench, const Json& rec,
                                    BenchRecord& out);

/// Print bench `bench`'s title, table and reference note for `b`. Returns
/// false, printing nothing, when no formatter exists for `bench`.
bool render(std::ostream& os, const std::string& bench, const BenchRecord& b);

}  // namespace osim::bench::report
