// Env: the software runtime's view of one execution backend — the semantic
// VersionStore engine plus whichever machine model MachineConfig::backend
// selects:
//
//   * BackendKind::kTimed      — the cycle-accurate fiber Machine with cache
//                                models (OStructureManager); results are
//                                deterministic simulated cycles.
//   * BackendKind::kFunctional — host-speed in-order execution with no
//                                fibers or cache models; results are values,
//                                faults and logical op counts.
//
// Workload code is execution-driven: data structures live in host memory and
// every modelled access goes through ld()/st(), which enforce the
// versioned-bit protection (conventional accesses to O-structure pages
// fault, paper Sec. III) and, on the timed backend, charge the memory
// hierarchy. Code written against Env, versioned<T> and TaskRuntime runs on
// either backend unchanged; only backend-specific callers (sw_ostructures,
// rwlock, raw fiber tests) reach through machine().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "analysis/checker.hpp"
#include "core/flat_map.hpp"
#include "core/ostructure_manager.hpp"
#include "runtime/arena.hpp"
#include "runtime/functional.hpp"
#include "sim/machine.hpp"

namespace osim {

class Env {
 public:
  explicit Env(const MachineConfig& cfg) : cfg_(cfg) {
    if (cfg.backend == BackendKind::kFunctional) {
      fb_ = std::make_unique<FunctionalBackend>(cfg);
    } else {
      m_ = std::make_unique<Machine>(cfg);
      osm_ = std::make_unique<OStructureManager>(*m_);
    }
    // Online protocol checking (osim-check): attach the checker as a trace
    // sink so it validates the event stream as the run produces it. It
    // charges no simulated cycles — checked runs stay bit-identical.
    if (cfg.ostruct.check_mode != 0) {
      analysis::CheckerOptions opt;
      opt.strict = cfg.ostruct.check_mode >= 2;
      auto sink =
          std::make_unique<analysis::CheckerSink>(cfg.num_cores, opt);
      checker_ = &sink->checker();
      store().tracer().add_sink(std::move(sink));
    }
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Whether this Env runs the cycle-accurate machine (vs. functional).
  bool timed() const { return m_ != nullptr; }

  /// The simulated machine; timed backend only.
  Machine& machine() {
    if (m_ == nullptr) {
      throw SimError("machine(): the functional backend has no machine");
    }
    return *m_;
  }
  /// The backend-independent semantic engine: the versioned ISA, allocation,
  /// protection, inspection and the event tracer — on either backend.
  VersionStore& store() { return m_ != nullptr ? osm_->store() : fb_->store(); }
  /// The same engine through the backend-agnostic facade, for consumers
  /// that should not care which implementation they drive.
  VersionEngine& engine() { return store(); }

  /// The online protocol checker, when OStructConfig::check_mode enabled
  /// one for this backend; nullptr otherwise.
  analysis::Checker* checker() { return checker_; }
  telemetry::MetricRegistry& metrics() {
    return m_ != nullptr ? m_->metrics() : fb_->metrics();
  }
  const telemetry::MetricRegistry& metrics() const {
    return m_ != nullptr ? m_->metrics() : fb_->metrics();
  }
  const MachineConfig& config() const { return cfg_; }
  Cycles elapsed() const {
    return m_ != nullptr ? m_->elapsed() : fb_->elapsed();
  }
  /// Current time from inside a running body: the core's clock on the timed
  /// backend (call only from a fiber), the logical op clock on functional.
  Cycles now() const { return m_ != nullptr ? m_->now() : fb_->elapsed(); }

  /// Conventional load of a host object (timed when the backend is; call
  /// from a core fiber on the timed backend).
  template <typename T>
  T ld(const T& ref) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Addr a = reinterpret_cast<Addr>(&ref);
    store().check_conventional(a);
    if (m_ != nullptr) m_->mem_access(translate(a), AccessType::kRead);
    return ref;
  }

  /// Conventional store to a host object.
  template <typename T>
  void st(T& ref, T val) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Addr a = reinterpret_cast<Addr>(&ref);
    store().check_conventional(a);
    if (m_ != nullptr) m_->mem_access(translate(a), AccessType::kWrite);
    ref = val;
  }

  /// Deterministic image of a host address: each distinct host cache line
  /// is assigned a synthetic line in first-touch order, so cache indexing
  /// (and therefore timing) is independent of the host allocator's layout.
  /// Runs on every conventional access, hence the flat map.
  Addr translate(Addr host) {
    const Addr line = line_of(host);
    auto [mapped, fresh] = line_map_.try_emplace(line);
    if (fresh) mapped = next_line_++;
    return kConventionalBase + mapped * kLineBytes + (host - line);
  }

  /// Charge `n` non-memory instructions (free on the functional backend).
  void exec(std::uint64_t n) {
    if (m_ != nullptr) m_->exec(n);
  }

  /// Arena for simulator-visible host objects (nodes, matrices, lock
  /// words). Anything whose address reaches ld()/st() must come from here:
  /// arena offsets depend only on the deterministic allocation sequence, so
  /// simulated timing is reproducible no matter how the host heap is laid
  /// out (or which host thread runs the cell). See runtime/arena.hpp.
  Arena& arena() { return arena_; }

  /// Construct a T in the arena; lives until this Env is destroyed.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    return arena_.create<T>(std::forward<Args>(args)...);
  }

  /// Value-initialized array of n Ts in the arena.
  template <typename T>
  T* make_array(std::size_t n) {
    return arena_.array_of<T>(n);
  }

  /// Install a program on a core. The timed backend runs one fiber per
  /// core; the functional backend runs the bodies to completion in spawn
  /// order on the host thread.
  void spawn(CoreId core, std::function<void()> body) {
    if (m_ != nullptr) {
      m_->spawn(core, std::move(body));
    } else {
      fb_->spawn(core, std::move(body));
    }
  }

  /// Run the backend to completion and return elapsed cycles (simulated
  /// cycles on timed; the logical op clock on functional).
  Cycles run() {
    if (m_ != nullptr) {
      m_->run();
      return m_->elapsed();
    }
    fb_->run();
    return fb_->elapsed();
  }

  /// Convenience: run `body` on core 0 only.
  Cycles run_sequential(std::function<void()> body) {
    spawn(0, std::move(body));
    return run();
  }

 private:
  MachineConfig cfg_;
  std::unique_ptr<Machine> m_;                // timed backend…
  std::unique_ptr<OStructureManager> osm_;    // …and its engine binding
  std::unique_ptr<FunctionalBackend> fb_;     // functional backend
  analysis::Checker* checker_ = nullptr;  // owned by the tracer's sink list
  FlatMap<Addr, Addr> line_map_;
  Addr next_line_ = 0;
  Arena arena_;  // last member: destroyed first, so arena-owned objects may
                 // still reach the machine from their destructors
};

}  // namespace osim
