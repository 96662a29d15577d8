// osim-report: offline analysis of bench results and event traces.
//
// Reads the schema-2 JSON files written by `bench_* --json PATH` and prints
// the per-figure tables of EXPERIMENTS.md from the recorded cells alone —
// no re-simulation. With `--trace PATH` it additionally reads the binary
// event trace(s) written by `--trace` (telemetry::FileSink format) and
// reports version-lifetime, reclamation-lag, and lock-hold distributions.
//
// `--validate` turns the run into a machine-checkable smoke test: every
// input must be a well-formed schema-2 result file (with all self-checks
// passed) and every trace must parse; exit status reports the verdict.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/isa.hpp"
#include "json.hpp"
#include "telemetry/trace.hpp"

namespace {

using osim::bench::Json;
using osim::bench::kJsonSchemaVersion;
using osim::telemetry::EventType;
using osim::telemetry::TraceEvent;

// ---------------------------------------------------------------------------
// Result-file model
// ---------------------------------------------------------------------------

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
  /// Versioned ISA ops the cell issued (osim-chaos rounds); 0 = absent.
  std::uint64_t ops = 0;
  const Json* metrics = nullptr;  ///< owned by the file's Json root
  const Json* check = nullptr;    ///< osim-check verdict (--check runs only)
};

struct BenchRecord {
  double scale = 1.0;
  std::uint64_t threads = 0;
  double wall_seconds = 0.0;
  bool checks_passed = false;
  std::vector<Cell> cells;

  const Cell* find(const std::string& name) const {
    for (const Cell& c : cells) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }
};

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
    if (const Json* v = rec.find("scale")) b.scale = v->as_double();
    if (const Json* v = rec.find("threads")) b.threads = v->as_u64();
    if (const Json* v = rec.find("wall_seconds")) {
      b.wall_seconds = v->as_double();
    }
    if (const Json* v = rec.find("checks_passed")) {
      b.checks_passed = v->as_bool();
    }
    const Json* cells = rec.find("cells");
    if (cells == nullptr || !cells->is_array()) {
      fail(path + ": bench '" + name + "' has no cell array");
      continue;
    }
    for (const auto& [unused, jc] : cells->items()) {
      (void)unused;
      const Json* cn = jc.find("name");
      const Json* cy = jc.find("cycles");
      const Json* ck = jc.find("checksum");
      if (cn == nullptr || cy == nullptr || ck == nullptr) {
        fail(path + ": bench '" + name + "' has a malformed cell");
        continue;
      }
      Cell c;
      c.name = cn->as_string();
      if (const Json* cb = jc.find("backend")) c.backend = cb->as_string();
      if (const Json* cg = jc.find("gc")) c.gc = cg->as_string();
      c.cycles = cy->as_u64();
      c.checksum = ck->as_u64();
      if (const Json* v = jc.find("ops")) c.ops = v->as_u64();
      c.metrics = jc.find("metrics");
      c.check = jc.find("check");
      b.cells.push_back(std::move(c));
    }
    // A figure table mixes cycle counts from different backends only by
    // mistake (a functional rerun merged over a timed one, or vice versa) —
    // refuse it. backend_throughput is the one bench whose whole point is
    // the side-by-side comparison.
    if (name.find("backend_throughput") == std::string::npos) {
      for (const Cell& c : b.cells) {
        if (c.backend != b.cells.front().backend) {
          fail(path + ": bench '" + name + "' mixes backends ('" +
               b.cells.front().backend + "' and '" + c.backend +
               "'); rerun the bench with one --backend");
          break;
        }
      }
    }
    // The same rule for GC policies: a figure table only compares cycles
    // produced under one reclamation scheme. gc_overhead is the one bench
    // whose point is the paper-vs-bounded comparison.
    if (name.find("gc_overhead") == std::string::npos) {
      for (const Cell& c : b.cells) {
        if (c.gc != b.cells.front().gc) {
          fail(path + ": bench '" + name + "' mixes GC policies ('" +
               b.cells.front().gc + "' and '" + c.gc +
               "'); rerun the bench with one --gc");
          break;
        }
      }
    }
    out.benches.emplace_back(name, std::move(b));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Table helpers (markdown, the EXPERIMENTS.md format)
// ---------------------------------------------------------------------------

void md_row(const std::vector<std::string>& cells) {
  std::printf("|");
  for (const auto& c : cells) std::printf(" %s |", c.c_str());
  std::printf("\n");
}

void md_header(const std::vector<std::string>& cells) {
  md_row(cells);
  std::printf("|");
  for (std::size_t i = 0; i < cells.size(); ++i) std::printf("---|");
  std::printf("\n");
}

std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// "a/b/c" -> {"a","b","c"}.
std::vector<std::string> split(const std::string& s, char sep = '/') {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::uint64_t check_u64(const Json* check, const char* key) {
  if (check == nullptr) return 0;
  const Json* v = check->find(key);
  return v == nullptr ? 0 : v->as_u64();
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
    errors += check_u64(c.check, "errors");
    warnings += check_u64(c.check, "warnings");
  }
  if (checked == 0) return;
  std::printf("osim-check: %zu cell(s) checked, %llu error(s), "
              "%llu warning(s)\n",
              checked, static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(warnings));
  if (errors == 0) return;
  fail(path + ": bench '" + bench + "' recorded osim-check violations");
  for (const Cell& c : b.cells) {
    if (check_u64(c.check, "errors") == 0) continue;
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

std::uint64_t metric_u64(const Cell& c, const std::string& key) {
  if (c.metrics == nullptr) return 0;
  const Json* m = c.metrics->find(key);
  if (m == nullptr) return 0;
  if (m->is_number()) return m->as_u64();
  const Json* total = m->find("total");  // per-core counter vector
  return total == nullptr ? 0 : total->as_u64();
}

// ---------------------------------------------------------------------------
// Per-figure formatters. Each mirrors the ratio logic of its bench's own
// print code, reconstructed from cell names.
// ---------------------------------------------------------------------------

/// Rows keyed by the name prefix before "/<axis>=..."; columns in first-seen
/// order of the axis value. Returns {row order, row -> axis -> cell}.
struct Grid {
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  std::map<std::string, std::map<std::string, const Cell*>> at;

  void add(const std::string& r, const std::string& c, const Cell* cell) {
    if (at.find(r) == at.end()) rows.push_back(r);
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
    at[r][c] = cell;
  }
  const Cell* cell(const std::string& r, const std::string& c) const {
    auto it = at.find(r);
    if (it == at.end()) return nullptr;
    auto jt = it->second.find(c);
    return jt == it->second.end() ? nullptr : jt->second;
  }
};

/// Cells named "row/axis" -> grid (axis = last path segment).
Grid grid_by_last(const BenchRecord& b) {
  Grid g;
  for (const Cell& c : b.cells) {
    const std::size_t cut = c.name.rfind('/');
    if (cut == std::string::npos) continue;
    g.add(c.name.substr(0, cut), c.name.substr(cut + 1), &c);
  }
  return g;
}

void report_table2(const BenchRecord& b) {
  md_header({"probe", "measured cycles"});
  for (const Cell& c : b.cells) md_row({c.name, std::to_string(c.cycles)});
}

void report_fig6(const BenchRecord& b) {
  // Cells: "name/size/mix/{seq,par}" (or "name/{seq,par}" for the regular
  // codes). Ratio = seq / par, pivoted to the EXPERIMENTS.md columns.
  Grid g = grid_by_last(b);  // row = name[/size/mix], col = seq|par
  const std::vector<std::string> cols = {"small 4R-1W", "small 1R-1W",
                                         "large 4R-1W", "large 1R-1W"};
  std::vector<std::string> order;
  std::map<std::string, std::map<std::string, std::string>> table;
  for (const std::string& key : g.rows) {
    const Cell* seq = g.cell(key, "seq");
    const Cell* par = g.cell(key, "par");
    if (seq == nullptr || par == nullptr) continue;
    const std::vector<std::string> parts = split(key);
    const std::string bench = parts[0];
    const std::string col =
        parts.size() >= 3 ? parts[1] + " " + parts[2] : cols[0];
    if (table.find(bench) == table.end()) order.push_back(bench);
    table[bench][col] = fmt(ratio(seq->cycles, par->cycles));
  }
  md_header({"benchmark", cols[0], cols[1], cols[2], cols[3]});
  for (const std::string& bench : order) {
    std::vector<std::string> row{bench};
    for (const std::string& col : cols) {
      auto it = table[bench].find(col);
      row.push_back(it == table[bench].end() ? "" : it->second);
    }
    md_row(row);
  }
}

void report_fig7(const BenchRecord& b) {
  // Cells: "name/cores=N"; speedup over the same workload's cores=1 cell.
  Grid g = grid_by_last(b);
  std::vector<std::string> header{"benchmark"};
  for (const std::string& c : g.cols) {
    if (c != "cores=1") header.push_back(c.substr(std::strlen("cores=")));
  }
  md_header(header);
  for (const std::string& r : g.rows) {
    const Cell* base = g.cell(r, "cores=1");
    if (base == nullptr) continue;
    std::vector<std::string> row{r};
    for (const std::string& c : g.cols) {
      if (c == "cores=1") continue;
      const Cell* cell = g.cell(r, c);
      row.push_back(cell == nullptr ? ""
                                    : fmt(ratio(base->cycles, cell->cycles)));
    }
    md_row(row);
  }
}

void report_fig8(const BenchRecord& b) {
  // Cells: "range=R/cores=N/{versioned,rwlock}"; ratio = rwlock/versioned.
  Grid g = grid_by_last(b);  // row = range=R/cores=N
  std::vector<std::string> ranges, cores;
  for (const std::string& r : g.rows) {
    const std::vector<std::string> parts = split(r);
    if (parts.size() != 2) continue;
    if (std::find(ranges.begin(), ranges.end(), parts[0]) == ranges.end()) {
      ranges.push_back(parts[0]);
    }
    if (std::find(cores.begin(), cores.end(), parts[1]) == cores.end()) {
      cores.push_back(parts[1]);
    }
  }
  std::vector<std::string> header{"scan range"};
  for (const std::string& c : cores) {
    header.push_back(c.substr(std::strlen("cores=")) +
                     (c == cores.front() ? " core" : ""));
  }
  md_header(header);
  double ver_self = 0.0, rw_self = 0.0;
  int self_count = 0;
  for (const std::string& rg : ranges) {
    std::vector<std::string> row{rg.substr(std::strlen("range="))};
    for (const std::string& c : cores) {
      const Cell* ver = g.cell(rg + "/" + c, "versioned");
      const Cell* rw = g.cell(rg + "/" + c, "rwlock");
      row.push_back(ver == nullptr || rw == nullptr
                        ? ""
                        : fmt(ratio(rw->cycles, ver->cycles)));
    }
    md_row(row);
    const Cell* v1 = g.cell(rg + "/" + cores.front(), "versioned");
    const Cell* vN = g.cell(rg + "/" + cores.back(), "versioned");
    const Cell* r1 = g.cell(rg + "/" + cores.front(), "rwlock");
    const Cell* rN = g.cell(rg + "/" + cores.back(), "rwlock");
    if (v1 && vN && r1 && rN) {
      ver_self += ratio(v1->cycles, vN->cycles);
      rw_self += ratio(r1->cycles, rN->cycles);
      ++self_count;
    }
  }
  if (self_count > 0) {
    std::printf(
        "\nSelf-speedups %s -> %s: versioned %.1f, rwlock %.1f\n",
        cores.front().c_str(), cores.back().c_str(), ver_self / self_count,
        rw_self / self_count);
  }
}

void report_fig9(const BenchRecord& b) {
  // Cells: "label/l1=KKB"; ratio = cycles(32KB) / cycles(K).
  Grid g = grid_by_last(b);
  std::vector<std::string> header{"run"};
  for (const std::string& c : g.cols) {
    header.push_back(c.substr(std::strlen("l1=")));
  }
  md_header(header);
  for (const std::string& r : g.rows) {
    const Cell* base = g.cell(r, "l1=32KB");
    if (base == nullptr) continue;
    std::vector<std::string> row{r};
    for (const std::string& c : g.cols) {
      const Cell* cell = g.cell(r, c);
      row.push_back(cell == nullptr ? ""
                                    : fmt(ratio(base->cycles, cell->cycles)));
    }
    md_row(row);
  }
}

void report_fig10(const BenchRecord& b) {
  // Cells: "label/+Ncyc"; slowdown = cycles(+0)/cycles(+N) - 1.
  Grid g = grid_by_last(b);
  std::vector<std::string> header{"run"};
  for (const std::string& c : g.cols) {
    if (c != "+0cyc") header.push_back(c);
  }
  md_header(header);
  for (const std::string& r : g.rows) {
    const Cell* base = g.cell(r, "+0cyc");
    if (base == nullptr) continue;
    std::vector<std::string> row{r};
    for (const std::string& c : g.cols) {
      if (c == "+0cyc") continue;
      const Cell* cell = g.cell(r, c);
      row.push_back(
          cell == nullptr
              ? ""
              : fmt(ratio(base->cycles, cell->cycles) - 1.0, 3));
    }
    md_row(row);
  }
}

/// Compact rendering of a gc/* batch histogram out of a cell's metric
/// snapshot: "n=N mean=M; <=b0:c0 <=b1:c1 ... >bk:ck".
std::string hist_text(const Cell& c, const std::string& key) {
  if (c.metrics == nullptr) return "";
  const Json* h = c.metrics->find(key);
  if (h == nullptr) return "";
  const Json* count = h->find("count");
  const Json* sum = h->find("sum");
  const Json* bounds = h->find("bounds");
  const Json* buckets = h->find("buckets");
  if (count == nullptr || sum == nullptr || bounds == nullptr ||
      buckets == nullptr || count->as_u64() == 0) {
    return "(no samples)";
  }
  std::string out = "n=" + std::to_string(count->as_u64()) +
                    " mean=" + fmt(ratio(sum->as_u64(), count->as_u64()), 1);
  std::size_t i = 0;
  for (const auto& [unused, n] : buckets->items()) {
    (void)unused;
    if (n.as_u64() != 0) {
      const Json* bound = i < bounds->items().size()
                              ? &bounds->items()[i].second
                              : nullptr;
      out += bound != nullptr
                 ? " <=" + std::to_string(bound->as_u64()) + ":" +
                       std::to_string(n.as_u64())
                 : " overflow:" + std::to_string(n.as_u64());
    }
    ++i;
  }
  return out;
}

void report_gc(const BenchRecord& b) {
  const Cell* ample = b.find("ample");
  md_header(
      {"config", "cycles", "GC phases", "OS traps", "blocks freed",
       "vs ample"});
  for (const Cell& c : b.cells) {
    if (c.name.find("/gc=") != std::string::npos) continue;
    md_row({c.name, std::to_string(c.cycles),
            std::to_string(metric_u64(c, "gc/phases")),
            std::to_string(metric_u64(c, "osm/os_traps")),
            std::to_string(metric_u64(c, "osm/blocks_freed")),
            ample == nullptr || &c == ample
                ? "0.000%"
                : fmt(100.0 * (ratio(c.cycles, ample->cycles) - 1.0), 3) +
                      "%"});
  }
  // GC policy comparison: the bench's pinned tight/gc=... cell pair, same
  // workload under each reclamation policy. "GC runs" is phases (paper) or
  // sweeps (bounded); the batch distribution is each policy's own
  // histogram (blocks parked per phase / reclaimed per sweep). The
  // reclaim-lag and version-lifetime *cycle* distributions per policy come
  // from the per-cell traces — run the bench with --trace and pass it
  // here; the trace sections below are labeled with each cell's policy.
  const Cell* paper = b.find("tight/gc=paper");
  const Cell* bounded = b.find("tight/gc=bounded");
  if (paper == nullptr || bounded == nullptr) return;
  std::printf("\nGC policy comparison (tight configuration):\n\n");
  md_header({"policy", "cycles", "GC runs", "blocks freed", "vs paper",
             "batch distribution"});
  for (const Cell* c : {paper, bounded}) {
    md_row({c->gc, std::to_string(c->cycles),
            std::to_string(metric_u64(*c, "gc/phases") +
                           metric_u64(*c, "gc/sweeps")),
            std::to_string(metric_u64(*c, "osm/blocks_freed")),
            c == paper ? "0.000%"
                       : fmt(100.0 * (ratio(c->cycles, paper->cycles) - 1.0),
                             3) + "%",
            hist_text(*c, c->gc == "bounded" ? "gc/reclaim_batch_blocks"
                                             : "gc/pending_batch_blocks")});
  }
}

void report_ablation(const BenchRecord& b) {
  // Cells: "label/variant"; ratio = cycles(baseline) / cycles(variant).
  Grid g = grid_by_last(b);
  std::vector<std::string> header{"run"};
  header.insert(header.end(), g.cols.begin(), g.cols.end());
  md_header(header);
  for (const std::string& r : g.rows) {
    const Cell* base = g.cell(r, "baseline");
    if (base == nullptr) continue;
    std::vector<std::string> row{r};
    for (const std::string& c : g.cols) {
      const Cell* cell = g.cell(r, c);
      row.push_back(cell == nullptr
                        ? ""
                        : fmt(ratio(base->cycles, cell->cycles), 3));
    }
    md_row(row);
  }
}

void report_chaos(const BenchRecord& b) {
  // Cells: "r<round>/{serial,conc}" from osim-chaos, each recording the
  // fault-injection degradation counters — rollbacks performed, what the
  // rollbacks undid (blocks unlinked, locks released), task re-runs, tasks
  // past the retry cap — and the checker verdict over the whole (aborts
  // included) event stream. Both engines report through the facade's
  // EngineStats, so every column reads the same keys for either row.
  md_header({"round/engine", "ops", "aborts", "undone blocks",
             "undone locks", "retries", "giveups", "backoff us", "checker"});
  for (const Cell& c : b.cells) {
    std::string verdict = "(unchecked)";
    if (c.check != nullptr) {
      const std::uint64_t errors = check_u64(c.check, "errors");
      const std::uint64_t warnings = check_u64(c.check, "warnings");
      verdict = errors != 0     ? std::to_string(errors) + " error(s)"
                : warnings != 0 ? std::to_string(warnings) + " warning(s)"
                                : "clean";
    }
    md_row({c.name, std::to_string(c.ops),
            std::to_string(metric_u64(c, "chaos/aborts")),
            std::to_string(metric_u64(c, "chaos/aborted_blocks")),
            std::to_string(metric_u64(c, "chaos/aborted_locks")),
            std::to_string(metric_u64(c, "chaos/retries")),
            std::to_string(metric_u64(c, "chaos/giveups")),
            std::to_string(metric_u64(c, "chaos/backoff_us")), verdict});
  }
}

void report_sw_vs_hw(const BenchRecord& b) {
  // Cells: "{hw,sw}/cores=N"; ratio = sw / hw.
  md_header({"cores", "hardware cycles", "software cycles", "sw/hw"});
  for (const Cell& c : b.cells) {
    const std::vector<std::string> parts = split(c.name);
    if (parts.size() != 2 || parts[0] != "hw") continue;
    const Cell* sw = b.find("sw/" + parts[1]);
    if (sw == nullptr) continue;
    md_row({parts[1].substr(std::strlen("cores=")), std::to_string(c.cycles),
            std::to_string(sw->cycles), fmt(ratio(sw->cycles, c.cycles))});
  }
}

struct Formatter {
  const char* bench;
  const char* title;
  void (*print)(const BenchRecord&);
};

const Formatter kFormatters[] = {
    {"table2_platform", "Table II — delivered latencies", report_table2},
    {"fig6_speedup",
     "Figure 6 — speedup of 32-core versioned over sequential unversioned",
     report_fig6},
    {"fig7_scalability",
     "Figure 7 — scalability over sequential versioned", report_fig7},
    {"fig8_snapshot", "Figure 8 — versioned tree / rwlock tree",
     report_fig8},
    {"fig9_l1size", "Figure 9 — L1 size sensitivity (vs 32 KB)",
     report_fig9},
    {"fig10_latency",
     "Figure 10 — slowdown under injected versioned-op latency",
     report_fig10},
    {"gc_overhead", "Sec. IV-F — GC overhead", report_gc},
    {"ablation", "Ablation — performance relative to baseline",
     report_ablation},
    {"sw_vs_hw", "Hardware vs software O-structures", report_sw_vs_hw},
    {"chaos_soak",
     "Chaos soak — graceful degradation under injected faults",
     report_chaos},
};

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
      "  --validate     exit non-zero unless every input is well-formed\n"
      "                 and every recorded self-check passed\n");
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
      const Formatter* f = nullptr;
      for (const Formatter& cand : kFormatters) {
        if (name == cand.bench) f = &cand;
      }
      if (f == nullptr) {
        std::printf("(no table formatter for this bench; %zu cells)\n",
                    rec.cells.size());
        continue;
      }
      std::printf("%s\n\n", f->title);
      f->print(rec);
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
