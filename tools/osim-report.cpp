// osim-report: offline analysis of bench results and event traces.
//
// Reads the schema-2 JSON files written by `bench_* --json PATH` and prints
// the per-figure tables of EXPERIMENTS.md from the recorded cells alone —
// no re-simulation — through the benches' own formatters (bench/report.hpp).
// With `--trace PATH` it additionally reads the binary event trace(s)
// written by `--trace` (telemetry::FileSink format) and reports
// version-lifetime, reclamation-lag, and lock-hold distributions.
//
// `--validate` turns the run into a machine-checkable smoke test: every
// input must be a well-formed schema-2 result file (with all self-checks
// passed and a table formatter for every bench) and every trace must
// parse; exit status reports the verdict.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/isa.hpp"
#include "json.hpp"
#include "report.hpp"
#include "telemetry/trace.hpp"

namespace {

namespace report = osim::bench::report;
using osim::bench::Json;
using osim::bench::kJsonSchemaVersion;
using osim::telemetry::EventType;
using osim::telemetry::TraceEvent;
using report::BenchRecord;
using report::Cell;

// ---------------------------------------------------------------------------
// Result files
// ---------------------------------------------------------------------------

/// One loaded --json file. Bench order is file order; the Json root owns
/// every string the cells point into.
struct ResultFile {
  std::string path;
  Json root;
  std::vector<std::pair<std::string, BenchRecord>> benches;
};

int g_errors = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "osim-report: %s\n", what.c_str());
  ++g_errors;
}

bool load_results(const std::string& path, ResultFile& out) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    out.root = Json::parse(buf.str());
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return false;
  }
  out.path = path;
  const Json* schema = out.root.find("schema");
  if (schema == nullptr || !schema->is_number() ||
      schema->as_u64() != kJsonSchemaVersion) {
    fail(path + ": not a schema-" + std::to_string(kJsonSchemaVersion) +
         " result file (regenerate with a current bench build)");
    return false;
  }
  const Json* benches = out.root.find("benches");
  if (benches == nullptr || !benches->is_object()) {
    fail(path + ": missing \"benches\" object");
    return false;
  }
  for (const auto& [name, rec] : benches->items()) {
    BenchRecord b;
    for (const std::string& problem : report::load_bench(name, rec, b)) {
      fail(path + ": " + problem);
    }
    out.benches.emplace_back(name, std::move(b));
  }
  return true;
}

/// Summarize the osim-check verdicts recorded by `--check` runs. Cells with
/// errors fail validation and have their findings printed.
void report_checks(const std::string& path, const std::string& bench,
                   const BenchRecord& b) {
  std::size_t checked = 0;
  std::uint64_t errors = 0, warnings = 0;
  for (const Cell& c : b.cells) {
    if (c.check == nullptr) continue;
    ++checked;
    errors += c.check_count("errors");
    warnings += c.check_count("warnings");
  }
  if (checked == 0) return;
  std::printf("osim-check: %zu cell(s) checked, %llu error(s), "
              "%llu warning(s)\n",
              checked, static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(warnings));
  if (errors == 0) return;
  fail(path + ": bench '" + bench + "' recorded osim-check violations");
  for (const Cell& c : b.cells) {
    if (c.check_count("errors") == 0) continue;
    const Json* findings = c.check->find("findings");
    if (findings == nullptr) continue;
    for (const auto& [unused, f] : findings->items()) {
      (void)unused;
      const Json* sev = f.find("severity");
      const Json* inv = f.find("invariant");
      const Json* detail = f.find("detail");
      std::printf("  [%s] %s %s: %s\n", c.name.c_str(),
                  sev == nullptr ? "?" : sev->as_string().c_str(),
                  inv == nullptr ? "?" : inv->as_string().c_str(),
                  detail == nullptr ? "" : detail->as_string().c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

/// Distribution sketch over cycle samples: count/mean/max + power-of-two
/// buckets (the offline mirror of telemetry::Histogram).
struct Dist {
  std::vector<std::uint64_t> samples;

  void add(std::uint64_t v) { samples.push_back(v); }

  void print(const char* what) {
    if (samples.empty()) {
      std::printf("  %-22s (no samples)\n", what);
      return;
    }
    std::sort(samples.begin(), samples.end());
    std::uint64_t sum = 0;
    for (std::uint64_t s : samples) sum += s;
    std::printf("  %-22s n=%zu mean=%llu p50=%llu p90=%llu max=%llu\n", what,
                samples.size(),
                static_cast<unsigned long long>(sum / samples.size()),
                static_cast<unsigned long long>(samples[samples.size() / 2]),
                static_cast<unsigned long long>(
                    samples[samples.size() * 9 / 10]),
                static_cast<unsigned long long>(samples.back()));
    // Power-of-two bucket table.
    std::uint64_t bound = 64;
    std::size_t i = 0;
    std::printf("  %-22s", "");
    while (i < samples.size()) {
      std::size_t n = 0;
      while (i < samples.size() && samples[i] <= bound) {
        ++n;
        ++i;
      }
      if (n > 0) {
        std::printf(" <=%llu:%zu", static_cast<unsigned long long>(bound), n);
      }
      if (bound > samples.back()) break;
      bound *= 4;
    }
    std::printf("\n");
  }
};

bool report_trace(const std::string& path, const std::string& label) {
  std::vector<TraceEvent> events;
  try {
    events = osim::telemetry::read_trace_file(path);
  } catch (const std::exception& e) {
    fail(e.what());
    return false;
  }
  std::printf("\n## Trace %s%s — %zu events\n\n", path.c_str(),
              label.empty() ? "" : (" (" + label + ")").c_str(),
              events.size());

  std::uint64_t by_type[osim::telemetry::kNumEventTypes] = {};
  std::uint64_t by_op[osim::kNumOpCodes] = {};
  std::map<std::uint64_t, std::uint64_t> born;      // block -> alloc time
  std::map<std::uint64_t, std::uint64_t> shadowed;  // block -> shadow time
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
      locked;  // (addr, version) -> acquire time
  Dist lifetime, lag, hold;
  for (const TraceEvent& e : events) {
    by_type[static_cast<int>(e.type)]++;
    switch (e.type) {
      case EventType::kIsaOp:
        by_op[static_cast<int>(e.op)]++;
        break;
      case EventType::kBlockAlloc:
        born[e.arg] = e.time;
        break;
      case EventType::kBlockShadowed:
        shadowed[e.arg] = e.time;
        break;
      case EventType::kBlockFreed: {
        auto b = born.find(e.arg);
        if (b != born.end()) {
          lifetime.add(e.time - b->second);
          born.erase(b);
        }
        auto s = shadowed.find(e.arg);
        if (s != shadowed.end()) {
          lag.add(e.time - s->second);
          shadowed.erase(s);
        }
        break;
      }
      case EventType::kLockAcquire:
        locked[{e.addr, e.version}] = e.time;
        break;
      case EventType::kLockRelease: {
        auto it = locked.find({e.addr, e.version});
        if (it != locked.end()) {
          hold.add(e.time - it->second);
          locked.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }

  std::printf("Event counts:\n");
  for (int t = 0; t < osim::telemetry::kNumEventTypes; ++t) {
    if (by_type[t] == 0) continue;
    std::printf("  %-16s %llu\n",
                osim::telemetry::to_string(static_cast<EventType>(t)),
                static_cast<unsigned long long>(by_type[t]));
  }
  for (int op = 0; op < osim::kNumOpCodes; ++op) {
    if (by_op[op] == 0) continue;
    std::printf("    %-18s %llu\n",
                osim::to_string(static_cast<osim::OpCode>(op)),
                static_cast<unsigned long long>(by_op[op]));
  }
  std::printf("\nCycle distributions:\n");
  lifetime.print("version lifetime");
  lag.print("reclamation lag");
  hold.print("lock hold");
  if (!born.empty()) {
    std::printf("  %zu block(s) still live at end of trace\n", born.size());
  }
  return true;
}

/// Expand `p` to {p} if it exists, else {p.0, p.1, ...} (the per-cell
/// suffixes the bench driver writes).
std::vector<std::string> expand_trace_arg(const std::string& p) {
  std::vector<std::string> out;
  if (std::ifstream(p).good()) {
    out.push_back(p);
    return out;
  }
  for (int i = 0;; ++i) {
    const std::string candidate = p + "." + std::to_string(i);
    if (!std::ifstream(candidate).good()) break;
    out.push_back(candidate);
  }
  return out;
}

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: osim-report [--validate] [--trace PATH]... RESULTS.json...\n"
      "  Prints the per-figure tables from bench --json files, plus\n"
      "  lifetime/lock statistics from binary event traces.\n"
      "  --trace PATH   read PATH, or PATH.0, PATH.1, ... (per-cell files)\n"
      "  --validate     exit non-zero unless every input is well-formed,\n"
      "                 every recorded self-check passed and every bench\n"
      "                 has a table formatter\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> json_paths;
  std::vector<std::string> trace_args;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      if (++i >= argc) usage(2);
      trace_args.push_back(argv[i]);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(0);
    } else if (a[0] == '-') {
      std::fprintf(stderr, "osim-report: unknown flag '%s'\n", a);
      usage(2);
    } else {
      json_paths.push_back(a);
    }
  }
  if (json_paths.empty() && trace_args.empty()) usage(2);

  std::vector<ResultFile> files;
  files.reserve(json_paths.size());
  for (const std::string& path : json_paths) {
    ResultFile file;
    if (!load_results(path, file)) continue;
    files.push_back(std::move(file));
  }
  // Trace-suffix index -> cell, usable when the loaded results hold exactly
  // one bench (a --trace run traces one bench's cells, in registration
  // order). Inner Json nodes are heap-stable, so the pointers survive the
  // vector moves above.
  std::vector<const Cell*> cell_by_index;
  {
    const BenchRecord* only = nullptr;
    std::size_t nbenches = 0;
    for (const ResultFile& file : files) {
      for (const auto& [unused, rec] : file.benches) {
        (void)unused;
        only = &rec;
        ++nbenches;
      }
    }
    if (nbenches == 1) {
      for (const Cell& c : only->cells) cell_by_index.push_back(&c);
    }
  }

  for (const ResultFile& file : files) {
    const std::string& path = file.path;
    std::printf("# %s\n", path.c_str());
    for (const auto& [name, rec] : file.benches) {
      std::printf("\n## %s — scale %.2f, %llu thread(s), %.2fs wall",
                  name.c_str(), rec.scale,
                  static_cast<unsigned long long>(rec.threads),
                  rec.wall_seconds);
      std::printf(rec.checks_passed ? "\n" : " — SELF-CHECKS FAILED\n");
      if (!rec.checks_passed) {
        fail(path + ": bench '" + name + "' recorded failed self-checks");
      }
      report_checks(path, name, rec);
      if (!report::render(std::cout, name, rec)) {
        fail(path + ": bench '" + name + "' has no table formatter");
      }
    }
  }

  std::size_t traces_read = 0;
  for (const std::string& arg : trace_args) {
    const std::vector<std::string> files = expand_trace_arg(arg);
    if (files.empty()) {
      fail("no trace file at " + arg + " (or " + arg + ".0)");
      continue;
    }
    for (const std::string& f : files) {
      // Per-cell trace files carry the registering cell's index as their
      // suffix; label each section with that cell's name and GC policy so
      // the lifetime/lag distributions read per policy.
      std::string label;
      const std::size_t dot = f.rfind('.');
      if (dot != std::string::npos && dot + 1 < f.size()) {
        char* end = nullptr;
        const unsigned long idx = std::strtoul(f.c_str() + dot + 1, &end, 10);
        if (end != nullptr && *end == '\0') {
          if (const Cell* c = cell_by_index.size() > idx
                                  ? cell_by_index[idx]
                                  : nullptr) {
            label = "cell " + c->name + ", gc=" + c->gc;
          }
        }
      }
      traces_read += report_trace(f, label) ? 1 : 0;
    }
  }

  if (validate) {
    std::printf("\nvalidate: %zu result file(s), %zu trace(s), %d error(s)\n",
                json_paths.size(), traces_read, g_errors);
  }
  return validate && g_errors > 0 ? 1 : 0;
}
