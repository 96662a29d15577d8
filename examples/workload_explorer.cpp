// Workload explorer: a command-line driver over the whole library. Runs
// any of the paper's workloads under any machine configuration and prints
// cycles plus the full statistics block — the quickest way to poke at the
// system without writing code.
//
//   workload_explorer --workload=tree --mode=par --cores=16 --size=10000
//                     --ops=2000 --rpw=4 --stats        (one command line)
//   workload_explorer --workload=list --mode=seq --size=1000 --ops=500
//   workload_explorer --workload=matmul --mode=par --cores=32 --dim=100
//   workload_explorer --workload=tree --mode=rwlock --cores=8 --scan=8
//
// Flags: --workload=list|tree|hash|rb|matmul|lev   --mode=seq|par|rwlock
//        --cores=N --size=N --ops=N --rpw=N --scan=N --dim=N --seed=N
//        --l1kb=N --inject=N --no-compression --unsorted --stats --trace=N
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/levenshtein.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/matmul.hpp"
#include "workloads/rb_tree.hpp"

using namespace osim;

namespace {

struct Options {
  std::string workload = "tree";
  std::string mode = "par";
  int cores = 8;
  DsSpec ds;
  int dim = 64;
  std::size_t l1kb = 32;
  Cycles inject = 0;
  bool no_compression = false;
  bool unsorted = false;
  bool stats = false;
  std::size_t trace = 0;
};

bool parse_flag(const char* arg, const char* name, long* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::strtol(arg + n + 1, nullptr, 10);
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  o.ds.initial_size = 1000;
  o.ds.ops = 500;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    long v = 0;
    if (std::strncmp(a, "--workload=", 11) == 0) {
      o.workload = a + 11;
    } else if (std::strncmp(a, "--mode=", 7) == 0) {
      o.mode = a + 7;
    } else if (parse_flag(a, "--cores", &v)) {
      o.cores = static_cast<int>(v);
    } else if (parse_flag(a, "--size", &v)) {
      o.ds.initial_size = static_cast<std::size_t>(v);
    } else if (parse_flag(a, "--ops", &v)) {
      o.ds.ops = static_cast<int>(v);
    } else if (parse_flag(a, "--rpw", &v)) {
      o.ds.reads_per_write = static_cast<int>(v);
    } else if (parse_flag(a, "--scan", &v)) {
      o.ds.scan_range = static_cast<int>(v);
    } else if (parse_flag(a, "--seed", &v)) {
      o.ds.seed = static_cast<std::uint64_t>(v);
    } else if (parse_flag(a, "--dim", &v)) {
      o.dim = static_cast<int>(v);
    } else if (parse_flag(a, "--l1kb", &v)) {
      o.l1kb = static_cast<std::size_t>(v);
    } else if (parse_flag(a, "--inject", &v)) {
      o.inject = static_cast<Cycles>(v);
    } else if (parse_flag(a, "--trace", &v)) {
      o.trace = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--no-compression") == 0) {
      o.no_compression = true;
    } else if (std::strcmp(a, "--unsorted") == 0) {
      o.unsorted = true;
    } else if (std::strcmp(a, "--stats") == 0) {
      o.stats = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (see header comment)\n", a);
      std::exit(2);
    }
  }
  return o;
}

MachineConfig config_of(const Options& o) {
  MachineConfig c;
  c.num_cores = o.mode == "seq" ? 1 : o.cores;
  c.l1.size_bytes = o.l1kb * 1024;
  c.ostruct.injected_latency = o.inject;
  c.ostruct.enable_compression = !o.no_compression;
  c.ostruct.sorted_lists = !o.unsorted;
  c.ostruct.trace_capacity = o.trace;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Env env(config_of(o));

  RunResult r;
  if (o.workload == "list") {
    r = o.mode == "seq" ? linked_list_sequential(env, o.ds)
                        : linked_list_versioned(env, o.ds, o.cores);
  } else if (o.workload == "tree") {
    r = o.mode == "seq"      ? binary_tree_sequential(env, o.ds)
        : o.mode == "rwlock" ? binary_tree_rwlock(env, o.ds, o.cores)
                             : binary_tree_versioned(env, o.ds, o.cores);
  } else if (o.workload == "hash") {
    r = o.mode == "seq" ? hash_table_sequential(env, o.ds)
                        : hash_table_versioned(env, o.ds, o.cores);
  } else if (o.workload == "rb") {
    r = o.mode == "seq" ? rb_tree_sequential(env, o.ds)
                        : rb_tree_versioned(env, o.ds, o.cores);
  } else if (o.workload == "matmul") {
    MatmulSpec spec;
    spec.n = o.dim;
    spec.seed = o.ds.seed;
    r = o.mode == "seq" ? matmul_sequential(env, spec)
                        : matmul_versioned(env, spec, o.cores);
  } else if (o.workload == "lev") {
    LevSpec spec;
    spec.n = o.dim;
    spec.seed = o.ds.seed;
    r = o.mode == "seq" ? levenshtein_sequential(env, spec)
                        : levenshtein_versioned(env, spec, o.cores);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }

  std::printf("%s/%s: %llu cycles (%.3f ms at %.0f GHz), checksum %016llx\n",
              o.workload.c_str(), o.mode.c_str(),
              static_cast<unsigned long long>(r.cycles),
              static_cast<double>(r.cycles) / (env.config().ghz * 1e6),
              env.config().ghz,
              static_cast<unsigned long long>(r.checksum));

  if (o.stats) {
    std::printf("\n");
    env.metrics().dump(std::cout);
  }
  if (o.trace > 0) {
    std::printf("\nlast %zu versioned ops:\n", o.trace);
    for (const telemetry::TraceEvent& t : env.store().trace().snapshot()) {
      std::printf("  cycle %-10llu core %-2d %-18s addr %llx ver %llu\n",
                  static_cast<unsigned long long>(t.time), t.core,
                  to_string(t.op), static_cast<unsigned long long>(t.addr),
                  static_cast<unsigned long long>(t.version));
    }
  }
  return 0;
}
