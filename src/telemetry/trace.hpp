// Typed event tracing with pluggable sinks.
//
// Generalizes the original per-ISA-op trace ring (core/isa.hpp) to the full
// version lifecycle of the paper's Sec. III: block allocation, version
// store, shadowing, reclamation, lock acquire/release, GC phase
// boundaries, and OS traps. Producers emit through a Tracer, which fans the
// event out to whatever sinks are attached:
//
//   RingSink   fixed-capacity in-memory ring (the classic debugging trace;
//              an EventMask restricts which event types it keeps)
//   FileSink   binary file of fixed-size records, for offline analysis by
//              tools/osim-report
//   NullSink   swallows everything (measures emission overhead)
//
// With no sinks attached, Tracer::enabled() is false and every emission
// site is one branch — tracing costs nothing when off.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace osim {
// The ISA opcode of kIsaOp events. Opaque here: telemetry sits below the
// core layer, which defines the enumerators in core/isa.hpp.
enum class OpCode : std::uint8_t;
}  // namespace osim

namespace osim::telemetry {

/// Event types. Values are part of the binary trace format — append only.
enum class EventType : std::uint8_t {
  kIsaOp = 0,          ///< versioned instruction issued (op = which)
  kBlockAlloc = 1,     ///< version block left the free list (arg = block)
  kVersionStore = 2,   ///< version created on a slot (arg = block)
  kBlockShadowed = 3,  ///< block shadowed by a newer version (arg = block)
  kBlockFreed = 4,     ///< block reclaimed / released (arg = block)
  kLockAcquire = 5,    ///< version locked (arg = locking task)
  kLockRelease = 6,    ///< version unlocked (arg = former owner)
  kGcPhaseBegin = 7,   ///< collection phase started (arg = fence version)
  kGcPhaseEnd = 8,     ///< collection phase finalized (arg = blocks freed)
  kOsTrap = 9,         ///< free-list exhaustion trap (arg = blocks added)
  kTaskCreated = 10,   ///< task registered with the GC (version = task id)
  kBlockPending = 11,  ///< shadowed block entered a GC phase (arg = block)
  kVersionRead = 12,   ///< version resolved by a load (op = which, arg = cap)
  kTaskAborted = 13,   ///< task rolled back (version = task id,
                       ///< arg = versions undone)
  kBlockRestored = 14, ///< rollback un-shadowed a block: the version it
                       ///< carries is the slot's head again (arg = block)
};
inline constexpr int kNumEventTypes = 15;

const char* to_string(EventType t);

/// Bitmask over EventType; sinks keep only the types they accept.
using EventMask = std::uint32_t;
inline constexpr EventMask event_bit(EventType t) {
  return EventMask{1} << static_cast<int>(t);
}
inline constexpr EventMask kAllEvents =
    (EventMask{1} << kNumEventTypes) - 1;

/// One trace event. For kIsaOp events `op` identifies the instruction and
/// `version` its version/cap/task argument; lifecycle events use `version`
/// and `arg` as documented on EventType.
struct TraceEvent {
  Cycles time = 0;
  CoreId core = 0;
  EventType type = EventType::kIsaOp;
  OpCode op{};           ///< meaningful for kIsaOp only
  Addr addr = 0;         ///< O-structure address (0 when not applicable)
  Ver version = 0;
  std::uint64_t arg = 0;
};

/// Injected I/O failure modes a FileSink can be asked to simulate. Lives
/// here (not in core/) because telemetry sits below the core layer; the
/// core-side FaultInjector implements IoFaultHook to drive it.
enum class IoFault : std::uint8_t {
  kNone = 0,
  kShortWrite,  ///< the record write persists fewer bytes than requested
  kEnospc,      ///< the write fails outright with ENOSPC
};

/// Consulted by FileSink before each record write when attached. The hook
/// decides per record; decisions must be deterministic for replayable runs.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;
  virtual IoFault next_io_fault() = 0;
};

class TraceSink {
 public:
  explicit TraceSink(EventMask mask) : mask_(mask) {}
  virtual ~TraceSink() = default;

  bool accepts(EventType t) const { return (mask_ & event_bit(t)) != 0; }
  EventMask mask() const { return mask_; }

  virtual void on_event(const TraceEvent& e) = 0;
  /// Push buffered state out (FileSink); default is a no-op.
  virtual void flush() {}

 private:
  EventMask mask_;
};

/// Fixed-capacity ring of the most recent accepted events. Capacity 0 means
/// disabled: record() is a no-op and snapshot() is empty.
class RingSink : public TraceSink {
 public:
  explicit RingSink(std::size_t capacity, EventMask mask = kAllEvents)
      : TraceSink(mask), capacity_(capacity) {
    ring_.reserve(capacity);
  }

  bool enabled() const { return capacity_ > 0; }

  void record(const TraceEvent& e) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[next_] = e;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_;
  }

  void on_event(const TraceEvent& e) override { record(e); }

  /// Events in emission order, oldest first.
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_ || capacity_ == 0) {
      out = ring_;
    } else {
      out.insert(out.end(), ring_.begin() + static_cast<long>(next_),
                 ring_.end());
      out.insert(out.end(), ring_.begin(),
                 ring_.begin() + static_cast<long>(next_));
    }
    return out;
  }

  std::uint64_t total_recorded() const { return total_; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::vector<TraceEvent> ring_;
};

/// Binary trace file: a 16-byte header (magic, format version, record size)
/// followed by fixed 40-byte little-endian records. Buffered; flushed on
/// destruction.
///
/// I/O errors (unwritable path, full disk) do not vanish: the first failed
/// write latches failed()/error(), further events are dropped, and flush()
/// throws std::runtime_error so a traced run cannot silently produce a
/// truncated file. The destructor never throws; it prints the latched error
/// to stderr if flush() was never called.
class FileSink : public TraceSink {
 public:
  explicit FileSink(const std::string& path, EventMask mask = kAllEvents);
  ~FileSink() override;

  void on_event(const TraceEvent& e) override;
  void flush() override;

  /// True once any write or flush on the underlying file has failed.
  bool failed() const;
  /// Human-readable description of the first failure ("" while healthy).
  const std::string& error() const;

  /// Attach (or detach, with nullptr) a deterministic I/O fault source.
  /// Consulted once per record write; an injected failure latches exactly
  /// like a real one. The hook is borrowed and must outlive the sink.
  void set_fault_hook(IoFaultHook* hook);

  static constexpr std::uint32_t kMagic = 0x4f54524bu;  // "KRTO"
  static constexpr std::uint32_t kFormatVersion = 1;
  static constexpr std::size_t kRecordBytes = 40;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Swallows everything (overhead measurements, sink plumbing tests).
class NullSink : public TraceSink {
 public:
  explicit NullSink(EventMask mask = kAllEvents) : TraceSink(mask) {}
  void on_event(const TraceEvent&) override {}
};

/// Fan-out dispatcher the producing component owns. Sinks are either
/// borrowed (attach) or owned (add_sink); emission is skipped entirely
/// while no sink is attached.
class Tracer {
 public:
  bool enabled() const { return !sinks_.empty(); }

  void attach(TraceSink* sink) { sinks_.push_back(sink); }
  TraceSink* add_sink(std::unique_ptr<TraceSink> sink) {
    owned_.push_back(std::move(sink));
    sinks_.push_back(owned_.back().get());
    return sinks_.back();
  }

  void emit(const TraceEvent& e) {
    for (TraceSink* s : sinks_) {
      if (s->accepts(e.type)) s->on_event(e);
    }
  }

  void flush() {
    for (TraceSink* s : sinks_) s->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
  std::vector<std::unique_ptr<TraceSink>> owned_;
};

/// Read a FileSink-format trace back (osim-report, tests). Throws
/// std::runtime_error on a missing file or malformed header.
std::vector<TraceEvent> read_trace_file(const std::string& path);

}  // namespace osim::telemetry
