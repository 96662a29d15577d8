#include "driver.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "json.hpp"
#include "report.hpp"
#include "sim/host_pool.hpp"

namespace osim::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Json metrics_json(const telemetry::MetricRegistry& reg) {
  Json out = Json::object();
  for (const auto& m : reg.metrics()) {
    const std::string key =
        std::string(telemetry::to_string(m.component)) + "/" + m.name;
    if (m.kind == telemetry::MetricKind::kHistogram) {
      const std::size_t nb = m.bounds.size();
      Json h = Json::object();
      h["count"] = Json::number(m.slot(nb + 2));
      h["sum"] = Json::number(m.slot(nb + 1));
      Json bounds = Json::array();
      for (std::uint64_t b : m.bounds) bounds.push_back(Json::number(b));
      h["bounds"] = std::move(bounds);
      Json buckets = Json::array();  // last element counts overflows
      for (std::size_t i = 0; i <= nb; ++i) {
        buckets.push_back(Json::number(m.slot(i)));
      }
      h["buckets"] = std::move(buckets);
      out[key] = std::move(h);
    } else if (m.per_core) {
      Json v = Json::object();
      v["total"] = Json::number(m.total());
      Json per = Json::array();
      for (std::size_t i = 0; i < m.width; ++i) {
        per.push_back(Json::number(m.slot(i)));
      }
      v["per_core"] = std::move(per);
      out[key] = std::move(v);
    } else {
      out[key] = Json::number(m.total());
    }
  }
  return out;
}

void fill_check(analysis::Checker& checker, CellResult& r) {
  checker.finish();
  r.checked = true;
  r.check_errors = checker.error_count();
  r.check = Json::object();
  r.check["errors"] = Json::number(checker.error_count());
  r.check["warnings"] = Json::number(checker.warning_count());
  r.check["total"] = Json::number(checker.total_findings());
  Json findings = Json::array();
  for (const analysis::Finding& f : checker.findings()) {
    Json jf = Json::object();
    jf["severity"] = Json::string(
        f.severity == analysis::Severity::kError ? "error" : "warning");
    jf["invariant"] = Json::string(analysis::id(f.invariant));
    jf["time"] = Json::number(static_cast<std::uint64_t>(f.time));
    jf["core"] = Json::number(static_cast<std::uint64_t>(f.core));
    jf["addr"] = Json::number(static_cast<std::uint64_t>(f.addr));
    jf["version"] = Json::number(static_cast<std::uint64_t>(f.version));
    jf["task"] = Json::number(static_cast<std::uint64_t>(f.task));
    jf["other_task"] = Json::number(static_cast<std::uint64_t>(f.other_task));
    jf["detail"] = Json::string(f.detail);
    findings.push_back(std::move(jf));
  }
  r.check["findings"] = std::move(findings);
}

void harvest_check(Env& env, CellResult& r) {
  analysis::Checker* checker = env.checker();
  if (checker == nullptr) return;
  fill_check(*checker, r);
}

Driver::Driver(std::string bench_name, Options options)
    : name_(std::move(bench_name)), opt_(std::move(options)) {}

std::size_t Driver::add(std::string name, CellFn fn) {
  cells_.push_back(Cell{std::move(name), std::move(fn), {}, false});
  return cells_.size() - 1;
}

void Driver::run_all() {
  std::vector<std::function<void()>> jobs;
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& cell = cells_[i];
    if (cell.done) continue;
    fresh.push_back(i);
    // Per-cell trace file: concurrent cells must not share one stream.
    std::string trace = opt_.trace_path.empty()
                            ? std::string()
                            : opt_.trace_path + "." + std::to_string(i);
    jobs.push_back([&cell, trace = std::move(trace), check = opt_.check_mode,
                    backend = opt_.backend, gc = opt_.gc,
                    inject = opt_.inject_spec] {
      detail::g_cell_trace_path = trace;
      detail::g_cell_check_mode = check;
      detail::g_cell_backend = backend;
      detail::g_cell_gc = gc;
      detail::g_cell_inject = inject;
      const auto t0 = std::chrono::steady_clock::now();
      cell.result = cell.fn();
      if (cell.result.wall_seconds == 0.0) {
        cell.result.wall_seconds = seconds_since(t0);
      }
      cell.done = true;
      detail::g_cell_trace_path.clear();
      detail::g_cell_check_mode = 0;
      detail::g_cell_backend = BackendKind::kTimed;
      detail::g_cell_gc = GcPolicyKind::kPaper;
      detail::g_cell_inject.clear();
    });
  }
  if (jobs.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  HostPool pool(opt_.threads);
  pool.run(std::move(jobs));
  total_wall_ += seconds_since(t0);
  // Checked cells must come back clean; record one named invariant per
  // cell so finish() fails (and prints) on any protocol violation.
  if (opt_.check_mode != 0) {
    for (std::size_t i : fresh) {
      const Cell& cell = cells_[i];
      if (!cell.result.checked) continue;  // cell has no Env/checker
      check("osim-check clean: " + cell.name, cell.result.check_errors == 0);
      if (cell.result.check_errors != 0) {
        if (const Json* fs = cell.result.check.find("findings")) {
          for (const auto& [unused, f] : fs->items()) {
            (void)unused;
            const Json* inv = f.find("invariant");
            const Json* detail = f.find("detail");
            std::fprintf(stderr, "%s: [%s] %s: %s\n", name_.c_str(),
                         cell.name.c_str(),
                         inv != nullptr ? inv->as_string().c_str() : "?",
                         detail != nullptr ? detail->as_string().c_str()
                                           : "");
          }
        }
      }
    }
  }
}

const CellResult& Driver::result(std::size_t handle) const {
  const Cell& cell = cells_.at(handle);
  if (!cell.done) {
    throw std::logic_error("cell '" + cell.name + "' read before run_all()");
  }
  return cell.result;
}

void Driver::check(const std::string& what, bool ok) {
  checks_.push_back(Check{what, ok});
}

int Driver::finish() {
  std::size_t passed = 0;
  for (const Check& c : checks_) {
    if (c.ok) {
      ++passed;
    } else {
      std::fprintf(stderr, "%s: CHECK FAILED: %s\n", name_.c_str(),
                   c.what.c_str());
    }
  }
  const bool all_ok = passed == checks_.size();
  const int threads = HostPool(opt_.threads).thread_count();

  Json mine = Json::object();
  mine["scale"] = Json::number(opt_.scale.factor);
  mine["threads"] = Json::number(static_cast<std::uint64_t>(threads));
  mine["wall_seconds"] = Json::number(total_wall_);
  mine["checks_passed"] = Json::boolean(all_ok);
  Json cells = Json::array();
  for (const Cell& c : cells_) {
    Json jc = Json::object();
    jc["name"] = Json::string(c.name);
    jc["backend"] = Json::string(c.result.backend.empty()
                                     ? to_string(opt_.backend)
                                     : c.result.backend);
    jc["gc"] = Json::string(c.result.gc.empty() ? to_string(opt_.gc)
                                                : c.result.gc);
    jc["cycles"] = Json::number(static_cast<std::uint64_t>(c.result.cycles));
    jc["checksum"] = Json::number(c.result.checksum);
    jc["wall_seconds"] = Json::number(c.result.wall_seconds);
    if (c.result.ops != 0) jc["ops"] = Json::number(c.result.ops);
    if (!c.result.metrics.is_null()) jc["metrics"] = c.result.metrics;
    if (c.result.checked) jc["check"] = c.result.check;
    cells.push_back(std::move(jc));
  }
  mine["cells"] = std::move(cells);

  // The table osim-report prints for the file this run writes: the same
  // loader and formatter, fed the same record.
  report::BenchRecord rec;
  std::vector<std::string> problems = report::load_bench(name_, mine, rec);
  if (!report::render(std::cout, name_, rec)) {
    problems.push_back("no table formatter for this bench");
  }
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), problem.c_str());
  }
  std::printf(
      "\n[%s] %zu cells, %.2fs wall on %d host thread(s); checks: %zu/%zu "
      "passed\n",
      name_.c_str(), cells_.size(), total_wall_, threads, passed,
      checks_.size());

  if (!opt_.json_path.empty()) {
    // Versioned result schema (v2): {"schema": 2, "benches": {name: {...}}}.
    // Merge: keep other benches' entries, replace our own. Files in an
    // older/foreign layout are discarded with a warning rather than mixed.
    Json root = Json::object();
    {
      std::ifstream in(opt_.json_path);
      if (in) {
        std::stringstream buf;
        buf << in.rdbuf();
        try {
          Json existing = Json::parse(buf.str());
          const Json* schema = existing.find("schema");
          const Json* benches = existing.find("benches");
          if (schema != nullptr && schema->is_number() &&
              schema->as_u64() == kJsonSchemaVersion && benches != nullptr &&
              benches->is_object()) {
            root = std::move(existing);
          } else {
            std::fprintf(stderr,
                         "%s: %s is not a schema-%llu result file; "
                         "starting fresh\n",
                         name_.c_str(), opt_.json_path.c_str(),
                         static_cast<unsigned long long>(kJsonSchemaVersion));
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: ignoring unreadable %s (%s)\n",
                       name_.c_str(), opt_.json_path.c_str(), e.what());
        }
      }
    }
    root["schema"] = Json::number(kJsonSchemaVersion);
    root["benches"][name_] = std::move(mine);

    std::ofstream out(opt_.json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                   opt_.json_path.c_str());
      return 1;
    }
    out << root.dump();
    std::printf("[%s] results written to %s\n", name_.c_str(),
                opt_.json_path.c_str());
  }
  return all_ok && problems.empty() ? 0 : 1;
}

}  // namespace osim::bench
