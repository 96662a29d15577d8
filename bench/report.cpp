#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace osim::bench::report {

std::uint64_t Cell::metric(const std::string& key) const {
  if (metrics == nullptr) return 0;
  const Json* m = metrics->find(key);
  if (m == nullptr) return 0;
  if (m->is_number()) return m->as_u64();
  const Json* total = m->find("total");  // per-core counter vector
  return total == nullptr ? 0 : total->as_u64();
}

std::uint64_t Cell::check_count(const char* key) const {
  if (check == nullptr) return 0;
  const Json* v = check->find(key);
  return v == nullptr ? 0 : v->as_u64();
}

const Cell* BenchRecord::find(const std::string& name) const {
  for (const Cell& c : cells) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> load_bench(const std::string& bench, const Json& rec,
                                    BenchRecord& out) {
  std::vector<std::string> problems;
  if (const Json* v = rec.find("scale")) out.scale = v->as_double();
  if (const Json* v = rec.find("threads")) out.threads = v->as_u64();
  if (const Json* v = rec.find("wall_seconds")) {
    out.wall_seconds = v->as_double();
  }
  if (const Json* v = rec.find("checks_passed")) {
    out.checks_passed = v->as_bool();
  }
  const Json* cells = rec.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    problems.push_back("bench '" + bench + "' has no cell array");
    return problems;
  }
  for (const auto& [unused, jc] : cells->items()) {
    (void)unused;
    const Json* cn = jc.find("name");
    const Json* cy = jc.find("cycles");
    const Json* ck = jc.find("checksum");
    if (cn == nullptr || cy == nullptr || ck == nullptr) {
      problems.push_back("bench '" + bench + "' has a malformed cell");
      continue;
    }
    Cell c;
    c.name = cn->as_string();
    if (const Json* cb = jc.find("backend")) c.backend = cb->as_string();
    if (const Json* cg = jc.find("gc")) c.gc = cg->as_string();
    c.cycles = cy->as_u64();
    c.checksum = ck->as_u64();
    if (const Json* v = jc.find("wall_seconds")) {
      c.wall_seconds = v->as_double();
    }
    if (const Json* v = jc.find("ops")) c.ops = v->as_u64();
    c.metrics = jc.find("metrics");
    c.check = jc.find("check");
    out.cells.push_back(std::move(c));
  }
  // A figure table mixes cycle counts from different backends only by
  // mistake (a functional rerun merged over a timed one, or vice versa) —
  // refuse it. backend_throughput is the one bench whose whole point is
  // the side-by-side comparison.
  if (bench.find("backend_throughput") == std::string::npos) {
    for (const Cell& c : out.cells) {
      if (c.backend != out.cells.front().backend) {
        problems.push_back("bench '" + bench + "' mixes backends ('" +
                           out.cells.front().backend + "' and '" + c.backend +
                           "'); rerun the bench with one --backend");
        break;
      }
    }
  }
  // The same rule for GC policies: a figure table only compares cycles
  // produced under one reclamation scheme. gc_overhead is the one bench
  // whose point is the paper-vs-bounded comparison.
  if (bench.find("gc_overhead") == std::string::npos) {
    for (const Cell& c : out.cells) {
      if (c.gc != out.cells.front().gc) {
        problems.push_back("bench '" + bench + "' mixes GC policies ('" +
                           out.cells.front().gc + "' and '" + c.gc +
                           "'); rerun the bench with one --gc");
        break;
      }
    }
  }
  return problems;
}

namespace {

// ---------------------------------------------------------------------------
// Table helpers (markdown, the EXPERIMENTS.md format)
// ---------------------------------------------------------------------------

void md_row(std::ostream& os, const std::vector<std::string>& cells) {
  os << "|";
  for (const auto& c : cells) os << " " << c << " |";
  os << "\n";
}

void md_header(std::ostream& os, const std::vector<std::string>& cells) {
  md_row(os, cells);
  os << "|";
  for (std::size_t i = 0; i < cells.size(); ++i) os << "---|";
  os << "\n";
}

std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

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

// ---------------------------------------------------------------------------
// Per-figure formatters, each reading its bench's cell-name grammar.
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

void report_table2(std::ostream& os, const BenchRecord& b) {
  md_header(os, {"probe", "measured cycles"});
  for (const Cell& c : b.cells) md_row(os, {c.name, std::to_string(c.cycles)});
}

void report_fig6(std::ostream& os, const BenchRecord& b) {
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
  md_header(os, {"benchmark", cols[0], cols[1], cols[2], cols[3]});
  for (const std::string& bench : order) {
    std::vector<std::string> row{bench};
    for (const std::string& col : cols) {
      auto it = table[bench].find(col);
      row.push_back(it == table[bench].end() ? "" : it->second);
    }
    md_row(os, row);
  }
}

/// Cells "row/col", each shown as cycles(row/`base`) / cycles(cell) -
/// `minus` at `prec` decimals: the speedup over the row's `base` cell, or
/// with `minus` = 1 the relative change against it. The base column shows
/// only with `show_base`; column labels drop a "key=" prefix.
void report_vs_base(std::ostream& os, const BenchRecord& b, const char* first,
                    const std::string& base, bool show_base, int prec,
                    double minus) {
  Grid g = grid_by_last(b);
  std::vector<std::string> cols, header{first};
  for (const std::string& c : g.cols) {
    if (c == base && !show_base) continue;
    cols.push_back(c);
    header.push_back(c.substr(c.find('=') + 1));  // no '=': npos + 1 == 0
  }
  md_header(os, header);
  for (const std::string& r : g.rows) {
    const Cell* base_cell = g.cell(r, base);
    if (base_cell == nullptr) continue;
    std::vector<std::string> row{r};
    for (const std::string& c : cols) {
      const Cell* cell = g.cell(r, c);
      row.push_back(cell == nullptr
                        ? ""
                        : fmt(ratio(base_cell->cycles, cell->cycles) - minus,
                              prec));
    }
    md_row(os, row);
  }
}

void report_fig7(std::ostream& os, const BenchRecord& b) {
  // Cells: "name/cores=N"; speedup over the same workload's cores=1 cell.
  report_vs_base(os, b, "benchmark", "cores=1", /*show_base=*/false, 2, 0.0);
}

void report_fig8(std::ostream& os, const BenchRecord& b) {
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
  md_header(os, header);
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
    md_row(os, row);
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
    os << "\nSelf-speedups " << cores.front() << " -> " << cores.back()
       << ": versioned " << fmt(ver_self / self_count, 1) << ", rwlock "
       << fmt(rw_self / self_count, 1) << "\n";
  }
}

void report_fig9(std::ostream& os, const BenchRecord& b) {
  // Cells: "label/l1=KKB"; ratio = cycles(32KB) / cycles(K).
  report_vs_base(os, b, "run", "l1=32KB", /*show_base=*/true, 2, 0.0);
}

void report_fig10(std::ostream& os, const BenchRecord& b) {
  // Cells: "label/+Ncyc"; slowdown = cycles(+0)/cycles(+N) - 1.
  report_vs_base(os, b, "run", "+0cyc", /*show_base=*/false, 3, 1.0);
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

void report_gc(std::ostream& os, const BenchRecord& b) {
  const Cell* ample = b.find("ample");
  md_header(os, {"config", "cycles", "GC phases", "OS traps", "blocks freed",
                 "vs ample"});
  for (const Cell& c : b.cells) {
    if (c.name.find("/gc=") != std::string::npos) continue;
    md_row(os,
           {c.name, std::to_string(c.cycles),
            std::to_string(c.metric("gc/phases")),
            std::to_string(c.metric("osm/os_traps")),
            std::to_string(c.metric("osm/blocks_freed")),
            ample == nullptr || &c == ample
                ? "0.000%"
                : fmt(100.0 * (ratio(c.cycles, ample->cycles) - 1.0), 3) +
                      "%"});
  }
  // GC policy comparison: the bench's pinned tight/gc=... cell pair, same
  // workload under each reclamation policy. "GC runs" is phases (paper) or
  // sweeps (bounded); the batch distribution is each policy's own
  // histogram (blocks parked per phase / reclaimed per sweep). Per-policy
  // reclaim-lag and version-lifetime cycles come from --trace files.
  const Cell* paper = b.find("tight/gc=paper");
  const Cell* bounded = b.find("tight/gc=bounded");
  if (paper == nullptr || bounded == nullptr) return;
  os << "\nGC policy comparison (tight configuration):\n\n";
  md_header(os, {"policy", "cycles", "GC runs", "OS traps", "blocks freed",
                 "vs paper", "batch distribution"});
  for (const Cell* c : {paper, bounded}) {
    md_row(os,
           {c->gc, std::to_string(c->cycles),
            std::to_string(c->metric("gc/phases") + c->metric("gc/sweeps")),
            std::to_string(c->metric("osm/os_traps")),
            std::to_string(c->metric("osm/blocks_freed")),
            c == paper
                ? "0.000%"
                : fmt(100.0 * (ratio(c->cycles, paper->cycles) - 1.0), 3) +
                      "%",
            hist_text(*c, c->gc == "bounded" ? "gc/reclaim_batch_blocks"
                                             : "gc/pending_batch_blocks")});
  }
}

void report_ablation(std::ostream& os, const BenchRecord& b) {
  // Cells: "label/variant"; ratio = cycles(baseline) / cycles(variant).
  report_vs_base(os, b, "run", "baseline", /*show_base=*/true, 3, 0.0);
}

void report_sw_vs_hw(std::ostream& os, const BenchRecord& b) {
  // Cells: "{hw,sw}/cores=N"; ratio = sw / hw.
  md_header(os, {"cores", "hardware cycles", "software cycles", "sw/hw"});
  for (const Cell& c : b.cells) {
    const std::vector<std::string> parts = split(c.name);
    if (parts.size() != 2 || parts[0] != "hw") continue;
    const Cell* sw = b.find("sw/" + parts[1]);
    if (sw == nullptr) continue;
    md_row(os, {parts[1].substr(std::strlen("cores=")),
                std::to_string(c.cycles), std::to_string(sw->cycles),
                fmt(ratio(sw->cycles, c.cycles))});
  }
}

void report_backend_throughput(std::ostream& os, const BenchRecord& b) {
  // Cells: "mix/{timed,functional}", each recording its structure-level op
  // count (ops) and the host time of the workload call alone
  // (wall_seconds); speedup = timed time / functional time.
  Grid g = grid_by_last(b);
  md_header(os, {"mix", "ops", "timed ops/s", "func ops/s", "speedup"});
  double timed_wall = 0.0, func_wall = 0.0, best = 0.0;
  std::uint64_t total_ops = 0;
  for (const std::string& r : g.rows) {
    const Cell* t = g.cell(r, "timed");
    const Cell* f = g.cell(r, "functional");
    if (t == nullptr || f == nullptr) continue;
    const double speedup = ratio(t->wall_seconds, f->wall_seconds);
    best = std::max(best, speedup);
    timed_wall += t->wall_seconds;
    func_wall += f->wall_seconds;
    total_ops += t->ops;
    md_row(os, {r, std::to_string(t->ops),
                fmt(ratio(t->ops, t->wall_seconds), 0),
                fmt(ratio(f->ops, f->wall_seconds), 0),
                fmt(speedup, 1) + "x"});
  }
  os << "\naggregate: " << total_ops << " structure ops; timed "
     << fmt(timed_wall) << "s, functional " << fmt(func_wall) << "s ("
     << fmt(ratio(timed_wall, func_wall), 1) << "x; best mix "
     << fmt(best, 1) << "x)\n";
}

void report_chaos(std::ostream& os, const BenchRecord& b) {
  // Cells: "r<round>/{serial,conc}" from osim-chaos, each recording the
  // fault-injection degradation counters — rollbacks performed, what the
  // rollbacks undid (blocks unlinked, locks released), task re-runs, tasks
  // past the retry cap — and the checker verdict over the whole (aborts
  // included) event stream. Both engines report through the facade's
  // EngineStats, so every column reads the same keys for either row.
  md_header(os, {"round/engine", "ops", "aborts", "undone blocks",
                 "undone locks", "retries", "giveups", "backoff us",
                 "checker"});
  for (const Cell& c : b.cells) {
    std::string verdict = "(unchecked)";
    if (c.check != nullptr) {
      const std::uint64_t errors = c.check_count("errors");
      const std::uint64_t warnings = c.check_count("warnings");
      verdict = errors != 0     ? std::to_string(errors) + " error(s)"
                : warnings != 0 ? std::to_string(warnings) + " warning(s)"
                                : "clean";
    }
    md_row(os, {c.name, std::to_string(c.ops),
                std::to_string(c.metric("chaos/aborts")),
                std::to_string(c.metric("chaos/aborted_blocks")),
                std::to_string(c.metric("chaos/aborted_locks")),
                std::to_string(c.metric("chaos/retries")),
                std::to_string(c.metric("chaos/giveups")),
                std::to_string(c.metric("chaos/backoff_us")), verdict});
  }
}

struct Formatter {
  const char* bench;
  const char* title;
  void (*print)(std::ostream&, const BenchRecord&);
  const char* note;  ///< what the paper reports or the bench expects
};

const Formatter kFormatters[] = {
    {"table2_platform", "Table II — delivered latencies of the modelled "
     "hierarchy",
     report_table2,
     "Paper reference (Table II): L1 hit 4 cycles, L2 hit 35 cycles, "
     "memory 60 ns;\neach probe is self-checked against the latency its "
     "configuration sets."},
    {"fig6_speedup",
     "Figure 6 — speedup of 32-core versioned over sequential unversioned",
     report_fig6,
     "Paper reference (Fig. 6): regular codes ~11-25x; linked list up to "
     "~19x;\ntree/hash mid-range; red-black tree lowest (~1-3x)."},
    {"fig7_scalability",
     "Figure 7 — scalability over sequential (1-core) versioned;\n"
     "large (10000 elements), read-intensive (4R-1W) runs",
     report_fig7,
     "Paper reference (Fig. 7): matmul/Levenshtein near-linear to ~25x;\n"
     "linked list ~19x; tree/hash mid; red-black tree flattens lowest."},
    {"fig8_snapshot",
     "Figure 8 — performance ratio, versioned tree / rwlock tree\n"
     "(tree size 10000, scans:inserts 3:1; >1 means versioned is faster)",
     report_fig8,
     "Paper reference (Fig. 8): versioned below 1.0 on one core, above 1.0\n"
     "at scale (+16% average); self-speedups 12.2 (versioned) vs 7.9 "
     "(rwlock)."},
    {"fig9_l1size",
     "Figure 9 — L1 size sensitivity, relative to the 32KB baseline\n"
     "(U = unversioned sequential, 1T = versioned 1 core, 32T = versioned "
     "32 cores;\nlarge, read-intensive runs)",
     report_fig9,
     "Paper reference (Fig. 9): growing L1 beyond 32KB gains at most "
     "~1.23x\nand usually much less; 32T runs are the least sensitive."},
    {"fig10_latency",
     "Figure 10 — relative speedup (negative = slowdown) when injecting\n"
     "2..10 extra cycles into every versioned operation",
     report_fig10,
     "Paper reference (Fig. 10): at most ~16% slowdown at +10 cycles,\n"
     "milder at small injections; sensitivity shrinks with parallelism."},
    {"gc_overhead",
     "Sec. IV-F — GC overhead: sequential runs on a 10-element sorted list",
     report_gc,
     "Paper reference (Sec. IV-F): 135 GC phases; tight ~0.1% slower than\n"
     "ample; ample ~0.1% slower than no-sorting."},
    {"ablation",
     "Ablation — performance relative to the baseline configuration\n"
     "(>1 would mean the variant is faster; large read-intensive runs)",
     report_ablation,
     "Expected: no-compress hurts single-core runs most (direct access\n"
     "is the paper's fast path); no-pollute hurts long-walk workloads;\n"
     "inplace-comp helps multicore runs by preserving remote direct "
     "access."},
    {"sw_vs_hw",
     "Hardware vs software O-structures (paper Sec. II-C):\n"
     "randomized store / load-latest / lock-rename mix",
     report_sw_vs_hw,
     "The software runtime pays lock acquisition, pointer-chasing loads\n"
     "and call overhead per operation — the overhead that made the paper\n"
     "abandon its software prototype for architectural support."},
    {"backend_throughput",
     "Backend throughput — cycle-accurate vs functional, same VersionStore "
     "engine",
     report_backend_throughput,
     "\"ops\" are structure-level operations; each expands to many "
     "versioned ISA ops."},
    {"chaos_soak",
     "Chaos soak — graceful degradation under injected faults",
     report_chaos, nullptr},
};

}  // namespace

bool render(std::ostream& os, const std::string& bench, const BenchRecord& b) {
  for (const Formatter& f : kFormatters) {
    if (bench != f.bench) continue;
    os << f.title << "\n\n";
    f.print(os, b);
    if (f.note != nullptr) os << "\n" << f.note << "\n";
    return true;
  }
  return false;
}

}  // namespace osim::bench::report
