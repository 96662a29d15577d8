// osim-check: static front end of the protocol checker.
//
// Validates an abstract versioned op stream *before* execution: the ops a
// workload intends to issue, in submission order (which is task-id order
// for the tasked runner). Catches protocol bugs that would otherwise
// surface as runtime faults or deadlocks mid-run:
//   * WAW to the same version without renaming (versions are immutable;
//     the second STORE-VERSION faults at runtime)
//   * missing TASK-BEGIN / TASK-END pairing (breaks the GC's progress
//     reports, so reclamation stalls or fences wrongly)
//   * reads of versions no store in the stream ever creates (the load
//     blocks forever: a structural deadlock)
// Findings use the same record type as the online checker and merge into
// the same per-run verdict.
#pragma once

#include <vector>

#include "analysis/checker.hpp"
#include "core/types.hpp"
#include "core/version_engine.hpp"

namespace osim::analysis {

/// One abstract versioned op — the op record of the VersionEngine facade
/// (core/version_engine.hpp), which owns the field definitions. The alias
/// keeps the analysis-layer spelling while letting the same streams drive
/// static_check() and the tests' op-stream driver (tests/engine_exec.hpp).
using VOp = ::osim::VersionEngine::Op;

/// Run the static pass over `ops`; returns findings (empty = clean).
std::vector<Finding> static_check(const std::vector<VOp>& ops,
                                  const CheckerOptions& opt = {});

}  // namespace osim::analysis
