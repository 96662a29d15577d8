// Wavefront-parallel Levenshtein distance (paper Sec. IV-B).
//
// One task per DP row; each cell is an I-structure. The load of the
// upper-row cell blocks until the previous row's task produced it, so rows
// pipeline diagonally across the cores — the classic wavefront, expressed
// with no explicit synchronization at all.
#include <cstdio>

#include "runtime/env.hpp"
#include "workloads/levenshtein.hpp"

using namespace osim;

int main() {
  LevSpec spec;
  spec.n = 200;

  std::printf("Levenshtein distance, strings of length %d\n\n", spec.n);

  MachineConfig c1;
  c1.num_cores = 1;
  Env seq_env(c1);
  const RunResult seq = levenshtein_sequential(seq_env, spec);
  std::printf("sequential unversioned: %llu cycles\n",
              static_cast<unsigned long long>(seq.cycles));

  for (int cores : {1, 2, 8, 32}) {
    MachineConfig c;
    c.num_cores = cores;
    Env env(c);
    const RunResult r = levenshtein_versioned(env, spec, cores);
    const std::uint64_t stalls =
        env.metrics().total(telemetry::Component::kOsm, "stalls");
    std::printf(
        "versioned, %2d cores:   %9llu cycles  (vs unversioned %.2fx)  "
        "stalls %llu  output %s\n",
        cores, static_cast<unsigned long long>(r.cycles),
        static_cast<double>(seq.cycles) / r.cycles,
        static_cast<unsigned long long>(stalls),
        r.checksum == seq.checksum ? "matches" : "MISMATCH");
  }

  std::printf(
      "\nStalls are the wavefront itself: a row task catching up with its\n"
      "predecessor parks on the missing cell and is woken by its store.\n");
  return 0;
}
