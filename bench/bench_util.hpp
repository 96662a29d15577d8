// Shared utilities for the per-figure bench harnesses: command-line
// handling (scale, host threads, JSON output) and machine-config
// construction.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/fault_injection.hpp"
#include "runtime/env.hpp"
#include "workloads/opgen.hpp"

namespace osim::bench {

/// Workload scale: --quick for smoke runs, --full for paper-sized runs,
/// default is a medium scale that keeps every binary in the minutes range
/// while preserving the result shapes.
struct Scale {
  double factor = 1.0;

  int ops(int base) const {
    const int v = static_cast<int>(base * factor);
    return v < 16 ? 16 : v;
  }
  int dim(int base) const {
    const int v = static_cast<int>(base * (factor >= 1.0 ? 1.0 : 0.5));
    return v < 8 ? 8 : v;
  }
};

/// Parsed command line shared by every figure bench. Unknown flags are an
/// error: they print usage and exit non-zero instead of being silently
/// ignored.
struct Options {
  Scale scale;
  /// Host threads for the experiment driver; 0 = one per host core.
  int threads = 0;
  /// Write/merge machine-readable results into this JSON file ("" = off).
  std::string json_path;
  /// Stream each cell's version-lifecycle event trace to PATH.<cell-index>
  /// ("" = off). Per-cell suffixing keeps concurrent cells off one file.
  std::string trace_path;
  /// Online protocol checking (osim-check): 0 = off, 1 = --check,
  /// 2 = --check=strict. Checking charges no simulated cycles, so checked
  /// results stay bit-identical; findings land in the JSON and fail the
  /// bench's exit code.
  int check_mode = 0;
  /// Execution backend for every cell. The timed backend reports simulated
  /// cycles; the functional backend reports logical op counts at host
  /// speed. Benches whose figures are *about* simulated time reject
  /// kFunctional after parsing.
  BackendKind backend = BackendKind::kTimed;
  /// Reclamation policy for every cell (the GcPolicy seam,
  /// core/gc_policy.hpp). Benches whose figures reproduce the paper's
  /// collector reject kBounded after parsing (require_paper_gc); only the
  /// policy-comparison bench (bench_gc_overhead) accepts it.
  GcPolicyKind gc = GcPolicyKind::kPaper;
  /// Deterministic fault-injection plan applied to every cell's engine
  /// (core/fault_injection.hpp grammar; "" = no injector attached).
  /// Injection never charges simulated cycles, so "--inject none" (an
  /// attached but inert injector) is bit-identical to no flag at all.
  std::string inject_spec;

  [[noreturn]] static void usage(const char* argv0, int exit_code) {
    std::fprintf(
        stderr,
        "usage: %s [--quick | --full] [--threads N] [--json PATH] "
        "[--trace PATH] [--check[=strict]] [--backend=timed|functional]\n"
        "          [--gc=paper|bounded]\n"
        "  --quick      smoke-test scale (0.25x ops)\n"
        "  --full       paper-sized runs (4x ops)\n"
        "  --threads N  run experiment cells on N host threads\n"
        "               (default: one per host core; results are\n"
        "               bit-identical for every N)\n"
        "  --json PATH  write results into PATH, merging with any bench\n"
        "               results already recorded there\n"
        "  --trace PATH write each cell's binary event trace to\n"
        "               PATH.<cell-index> (read with tools/osim-report)\n"
        "  --check      validate the O-structure protocol online\n"
        "               (osim-check); findings fail the run and are\n"
        "               recorded in the JSON\n"
        "  --check=strict  as --check, but advisory findings also fail\n"
        "  --backend=timed       cycle-accurate simulation (default)\n"
        "  --backend=functional  host-speed semantic execution; cells\n"
        "               report logical op counts instead of cycles\n"
        "  --gc=paper   the paper's watermark/fence collector (default)\n"
        "  --gc=bounded bounded-space range-tracking reclamation; only\n"
        "               the policy-comparison bench (bench_gc_overhead)\n"
        "               accepts it — the figure benches reproduce the\n"
        "               paper's collector and pin --gc=paper\n"
        "  --inject SPEC  deterministic fault injection for every cell\n"
        "               (e.g. pool:0.001,deadlock@3,seed=7; see\n"
        "               core/fault_injection.hpp for the grammar)\n",
        argv0);
    std::exit(exit_code);
  }

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--quick") == 0) {
        o.scale.factor = 0.25;
      } else if (std::strcmp(a, "--full") == 0) {
        o.scale.factor = 4.0;
      } else if (std::strcmp(a, "--threads") == 0) {
        if (++i >= argc) {
          std::fprintf(stderr, "%s: --threads needs a value\n", argv[0]);
          usage(argv[0], 2);
        }
        char* end = nullptr;
        const long long n = std::strtoll(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || n < 0 || n > INT_MAX) {
          std::fprintf(stderr, "%s: bad --threads value '%s'\n", argv[0],
                       argv[i]);
          usage(argv[0], 2);
        }
        o.threads = static_cast<int>(n);
      } else if (std::strcmp(a, "--json") == 0) {
        if (++i >= argc) {
          std::fprintf(stderr, "%s: --json needs a path\n", argv[0]);
          usage(argv[0], 2);
        }
        o.json_path = argv[i];
      } else if (std::strcmp(a, "--trace") == 0) {
        if (++i >= argc) {
          std::fprintf(stderr, "%s: --trace needs a path\n", argv[0]);
          usage(argv[0], 2);
        }
        o.trace_path = argv[i];
      } else if (std::strcmp(a, "--check") == 0) {
        o.check_mode = 1;
      } else if (std::strcmp(a, "--check=strict") == 0) {
        o.check_mode = 2;
      } else if (std::strcmp(a, "--backend=timed") == 0) {
        o.backend = BackendKind::kTimed;
      } else if (std::strcmp(a, "--backend=functional") == 0) {
        o.backend = BackendKind::kFunctional;
      } else if (std::strncmp(a, "--backend", 9) == 0) {
        std::fprintf(stderr,
                     "%s: bad backend '%s' (use --backend=timed or "
                     "--backend=functional)\n",
                     argv[0], a);
        usage(argv[0], 2);
      } else if (std::strcmp(a, "--inject") == 0) {
        if (++i >= argc) {
          std::fprintf(stderr, "%s: --inject needs a spec\n", argv[0]);
          usage(argv[0], 2);
        }
        o.inject_spec = argv[i];
        try {
          (void)FaultPlan::parse(o.inject_spec);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
          usage(argv[0], 2);
        }
      } else if (std::strcmp(a, "--gc=paper") == 0) {
        o.gc = GcPolicyKind::kPaper;
      } else if (std::strcmp(a, "--gc=bounded") == 0) {
        o.gc = GcPolicyKind::kBounded;
      } else if (std::strncmp(a, "--gc", 4) == 0) {
        std::fprintf(stderr,
                     "%s: bad GC policy '%s' (use --gc=paper or "
                     "--gc=bounded)\n",
                     argv[0], a);
        usage(argv[0], 2);
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        usage(argv[0], 0);
      } else {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], a);
        usage(argv[0], 2);
      }
    }
    return o;
  }
};

/// Reject --gc=bounded on a bench whose figures reproduce the paper's
/// collector (the simulated cycles are only comparable against the paper
/// under its GC scheme). bench_gc_overhead — the bench whose *point* is
/// the policy comparison — is the one bench that skips this.
inline void require_paper_gc(const Options& o, const char* argv0) {
  if (o.gc != GcPolicyKind::kPaper) {
    std::fprintf(stderr,
                 "%s: this bench reproduces the paper's collector and pins "
                 "--gc=paper; the policy comparison lives in "
                 "bench_gc_overhead\n",
                 argv0);
    std::exit(2);
  }
}

namespace detail {
/// Trace file for the experiment cell running on this host thread
/// ("PATH.<cell-index>"; empty = tracing off). The driver sets it around
/// each cell so config helpers pick it up without threading a parameter
/// through every bench's grid code.
inline thread_local std::string g_cell_trace_path;
/// osim-check mode for the cell running on this host thread (see
/// Options::check_mode); driver-set like g_cell_trace_path.
inline thread_local int g_cell_check_mode = 0;
/// Execution backend for the cell running on this host thread (see
/// Options::backend); driver-set like g_cell_trace_path. Benches that mix
/// backends inside one run (bench_backend_throughput) override it on the
/// config after make_config.
inline thread_local BackendKind g_cell_backend = BackendKind::kTimed;
/// GC policy for the cell running on this host thread (see Options::gc);
/// driver-set like g_cell_trace_path. Cells that pin a policy regardless of
/// the flag (bench_gc_overhead's comparison pair) override it on the config
/// after make_config/with_cell_trace.
inline thread_local GcPolicyKind g_cell_gc = GcPolicyKind::kPaper;
/// Fault-injection spec for the cell running on this host thread (see
/// Options::inject_spec); driver-set like g_cell_trace_path.
inline thread_local std::string g_cell_inject;
}  // namespace detail

/// Stamp the running cell's trace path, check mode, backend, GC policy and
/// fault plan (the thread-locals above) onto `c`. A config built *outside*
/// the cell, where they are unset, is re-stamped with this inside it.
inline MachineConfig with_cell_trace(MachineConfig c) {
  c.backend = detail::g_cell_backend;
  c.ostruct.trace_path = detail::g_cell_trace_path;
  c.ostruct.check_mode = detail::g_cell_check_mode;
  c.ostruct.gc_policy = detail::g_cell_gc;
  c.ostruct.inject_spec = detail::g_cell_inject;
  return c;
}

inline MachineConfig make_config(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return with_cell_trace(c);
}

}  // namespace osim::bench
