// VersionEngine: the backend-agnostic facade over the two semantic engines.
//
// The versioned-ISA semantics of the paper live in two implementations with
// deliberately different synchronization cores: the serial VersionStore
// (core/version_store.hpp — single-threaded by contract, drives both the
// cycle-accurate machine and the functional backend through a pluggable
// TimingModel) and the ConcurrentVersionStore (core/concurrent_store.hpp —
// lock-striped shards, per-slot seqlocks, epoch reclamation, for real host
// threads). Everything *around* that core — the ISA surface, task
// lifecycle, abort accounting, fault injection, trace emission, protocol
// checking — is shared semantics, and this interface is where consumers
// (bench driver, chaos harness, differential tests) bind to it without
// knowing which engine they drive.
//
// The facade also defines Op, the record of one versioned op: the workload
// generators emit it and analysis::VOp aliases it. Running an op stream
// through the per-op virtuals is test support (tests/engine_exec.hpp),
// where the conformance matrix and the differential tests drive every
// engine and compare the observables.
//
// Layering (enforced by tools/run-lint.sh): core/ depends on telemetry/
// and itself only — never on runtime/, sim/, bench/, or analysis/. The
// facade therefore defines the op record; the analysis layer aliases it.
#pragma once

#include <cstdint>
#include <optional>

#include "core/fault.hpp"
#include "core/isa.hpp"
#include "core/types.hpp"
#include "telemetry/trace.hpp"

namespace osim {

class FaultInjector;

/// User-visible address of an O-structure slot (8-byte granularity inside
/// the versioned region). Defined here, at the facade, so both engines and
/// every consumer share one alias.
using OAddr = Addr;

/// Both engines' fault for a versioned op or release() on an address that
/// names no allocated slot (OFault kVersionedAccessToUnversionedPage):
/// "address A is outside the versioned region", else "slot N is not
/// allocated".
[[noreturn]] void fault_unversioned(OAddr a);

/// Facade-level abort accounting, identical fields for both engines (the
/// serial/concurrent drift in what each one counted is fixed here): bench
/// JSON and osim-report read these regardless of backend. Kept as plain
/// fields — not MetricRegistry counters — so attaching them costs nothing
/// and the timed backend's metric dump stays bit-identical.
struct EngineStats {
  std::uint64_t tasks_aborted = 0;   ///< abort_task() rollbacks performed
  std::uint64_t aborted_blocks = 0;  ///< created versions undone by rollbacks
  std::uint64_t aborted_locks = 0;   ///< held locks released by rollbacks
};

/// Degradation telemetry of a retrying runtime (the concurrent task pool,
/// the serial chaos round driver): one vocabulary, one JSON spelling, for
/// every engine. Aggregated outside the engine because retries/backoff are
/// runtime policy, not ISA semantics; the aborts themselves are the
/// engine's EngineStats::tasks_aborted.
struct RecoveryStats {
  std::uint64_t retries = 0;     ///< task re-runs after an abort
  std::uint64_t giveups = 0;     ///< recoverable faults past the retry cap
  std::uint64_t backoff_us = 0;  ///< total backoff sleep, microseconds
};

class VersionEngine {
 public:
  /// One abstract versioned op — the record the workload generators emit
  /// and the tests' op-stream driver runs (analysis::VOp aliases this
  /// type). `version` is the exact version stored, loaded, or locked (the
  /// task id for TASK-BEGIN/END); `cap` is the bound of the *-LATEST forms;
  /// `rename_to` is UNLOCK-VERSION's optional new version; `data` is
  /// STORE-VERSION's payload (ignored by the static checker).
  struct Op {
    OpCode op{};
    Addr addr = 0;
    Ver version = 0;
    Ver cap = 0;
    TaskId task = 0;
    std::optional<Ver> rename_to;
    std::uint64_t data = 0;
  };

  virtual ~VersionEngine() = default;

  // ---- O-structure allocation (the OS/runtime interface) ----
  virtual OAddr alloc(std::size_t slots) = 0;
  virtual void release(OAddr base, std::size_t slots) = 0;

  // ---- The versioned ISA ----
  // (Default arguments repeat on the engines' overrides — same values, so
  // the statically bound defaults agree no matter the static type.)
  virtual std::uint64_t load_version(OAddr a, Ver v) = 0;
  virtual std::uint64_t load_latest(OAddr a, Ver cap, Ver* found = nullptr) = 0;
  virtual void store_version(OAddr a, Ver v, std::uint64_t data) = 0;
  virtual std::uint64_t lock_load_version(OAddr a, Ver v, TaskId locker) = 0;
  virtual std::uint64_t lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                         Ver* found = nullptr) = 0;
  virtual void unlock_version(OAddr a, Ver locked_v, TaskId owner,
                              std::optional<Ver> rename_to = {}) = 0;

  // ---- Task lifecycle (GC rules #1-#3) ----
  virtual void task_created(TaskId t) = 0;
  virtual void task_begin(TaskId t) = 0;
  virtual void task_end(TaskId t) = 0;
  /// Roll back task `t`'s stores and locks, newest first (see
  /// core/undo_journal.hpp for the shared invariant). Requires the
  /// engine's track_aborts config.
  virtual void abort_task(TaskId t) = 0;

  // ---- Protection ----
  virtual bool is_versioned_addr(Addr a) const = 0;
  virtual void check_conventional(Addr a) const = 0;

  // ---- Host-side inspection (no timing; tests and tools) ----
  virtual std::optional<std::uint64_t> peek_version(OAddr a, Ver v) = 0;
  virtual std::optional<Ver> newest_version(OAddr a) = 0;
  virtual std::optional<TaskId> lock_holder(OAddr a, Ver v) = 0;
  virtual int version_count(OAddr a) = 0;

  // ---- Shared seams ----
  /// Abort accounting, same fields either engine (see EngineStats).
  virtual EngineStats engine_stats() const = 0;
  /// The engine's event-trace dispatcher. Attaching a sink is how the
  /// protocol checker rides any engine (analysis::attach_checker); on the
  /// concurrent engine the first call switches it into linearized-trace
  /// mode (reads serialized), so call it only when events are wanted, and
  /// before any ISA op runs.
  virtual telemetry::Tracer& tracer() = 0;
  /// Fault-injection seam: the attached injector, or null when detached.
  virtual FaultInjector* fault_injector() = 0;
  /// Attach an externally owned injector (tests/tools); replaces any
  /// config-built one at every engine site. Call before ISA ops run.
  virtual void attach_fault_injector(FaultInjector* inj) = 0;
};

}  // namespace osim
