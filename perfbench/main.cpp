// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: sim_list32, conc_read_mostly, conc_contended (README.md says
// why each exists). Untraced runs (--trace 0) report the end-to-end
// metrics; traced runs (--trace 1) report the per-layer metrics. Every run
// checks the program's outputs; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when the run was correct.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks) +
         static_cast<std::uint64_t>(mi.hblkhd);
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1 : n;
}

void Report::print() const {
  for (const std::string& line : info_) std::printf("# %s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim_list32|conc_read_mostly|"
               "conc_contended --seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        usage(argv[0]);
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0]);
      }
      args.trace = value[0] == '1';
    } else {
      usage(argv[0]);
    }
  }

  perfbench::Report report;
  try {
    if (args.workload == "sim_list32") {
      perfbench::run_sim_list32(args, report);
    } else if (args.workload == "conc_read_mostly") {
      perfbench::run_conc_read_mostly(args, report);
    } else if (args.workload == "conc_contended") {
      perfbench::run_conc_contended(args, report);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    report.violation(std::string("run aborted: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
