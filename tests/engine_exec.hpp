// Test support: run an op stream through the VersionEngine facade.
//
// execute() is a test driver, not a fast path: it runs an op stream (the
// record the workload generators emit; analysis::VOp aliases
// VersionEngine::Op) through the per-op virtuals, catching each op's fault
// into Results and continuing. The conformance matrix
// (test_version_engine) and the differential tests (test_backend_diff)
// run every engine through it and compare the Results.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/version_engine.hpp"

namespace osim {

/// Observable outcome of an executed op stream. Two runs are equivalent iff
/// their Results compare equal field-for-field (messages excepted: the
/// engines word their would-block reports differently, so equality
/// compares fault positions and kinds only).
struct Results {
  struct Fault {
    std::size_t index = 0;  ///< stream index of the faulted op
    FaultKind kind{};
    std::string message;  ///< engine wording; excluded from operator==

    friend bool operator==(const Fault& a, const Fault& b) {
      return a.index == b.index && a.kind == b.kind;
    }
  };

  std::vector<std::uint64_t> reads;  ///< one value per completed load
  std::vector<Ver> found;            ///< version observed per *-LATEST
  std::vector<Fault> faults;         ///< per-op faults, stream order
  std::uint64_t executed = 0;        ///< ops completed without fault

  void clear() {
    reads.clear();
    found.clear();
    faults.clear();
    executed = 0;
  }

  /// Order-sensitive fold of every observable (for cross-engine checksum
  /// comparisons).
  std::uint64_t checksum() const {
    // splitmix64: cheap, well-mixed fold.
    auto mix = [](std::uint64_t h, std::uint64_t v) {
      h += 0x9e3779b97f4a7c15ull + v;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      return h ^ (h >> 31);
    };
    std::uint64_t h = 0;
    for (std::uint64_t r : reads) h = mix(h, r);
    for (Ver v : found) h = mix(h, v);
    for (const Fault& f : faults) {
      h = mix(h, f.index);
      h = mix(h, static_cast<std::uint64_t>(f.kind));
    }
    return mix(h, executed);
  }

  friend bool operator==(const Results& a, const Results& b) {
    return a.reads == b.reads && a.found == b.found && a.faults == b.faults &&
           a.executed == b.executed;
  }
};

/// Execute `ops` in order through `eng`'s per-op surface. An OFault fails
/// only the op that raised it — it is recorded in `out.faults` and
/// execution continues with the next op. Results are appended (call
/// out.clear() for a fresh run).
inline void execute(VersionEngine& eng,
                    std::span<const VersionEngine::Op> ops, Results& out) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const VersionEngine::Op& o = ops[i];
    try {
      switch (o.op) {
        case OpCode::kLoadVersion:
          out.reads.push_back(eng.load_version(o.addr, o.version));
          break;
        case OpCode::kLoadLatest: {
          Ver got = 0;
          out.reads.push_back(eng.load_latest(o.addr, o.cap, &got));
          out.found.push_back(got);
          break;
        }
        case OpCode::kStoreVersion:
          eng.store_version(o.addr, o.version, o.data);
          break;
        case OpCode::kLockLoadVersion:
          out.reads.push_back(
              eng.lock_load_version(o.addr, o.version, o.task));
          break;
        case OpCode::kLockLoadLatest: {
          Ver got = 0;
          out.reads.push_back(
              eng.lock_load_latest(o.addr, o.cap, o.task, &got));
          out.found.push_back(got);
          break;
        }
        case OpCode::kUnlockVersion:
          eng.unlock_version(o.addr, o.version, o.task, o.rename_to);
          break;
        case OpCode::kTaskBegin:
          eng.task_begin(o.task);
          break;
        case OpCode::kTaskEnd:
          eng.task_end(o.task);
          break;
      }
      ++out.executed;
    } catch (const OFault& f) {
      out.faults.push_back({i, f.kind(), f.what()});
    }
  }
}

}  // namespace osim
