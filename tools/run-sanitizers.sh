#!/usr/bin/env bash
# Sanitizer CI gate: build and run the unit suite under ASan+UBSan (with
# libstdc++ assertions, so unchecked container indexing aborts), then
# the host-threading tests under TSan. Any sanitizer report fails the
# script (halt_on_error aborts the offending test, which fails ctest).
#
# The simulated cores are cooperative fibers on hand-rolled stack switches
# (src/sim/fiber_switch.S); ASan and UBSan handle that fine, but TSan's
# shadow state does not follow custom context switches, so the TSan legs
# run only fiber-free code: the host-side thread-pool tests and the
# functional backend (which executes tasks inline, no fibers).
#
# Usage: tools/run-sanitizers.sh [JOBS]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

# Sanitizer runtime knobs: abort on the first report rather than printing
# and carrying on, so CI can't go green past a finding.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:abort_on_error=0"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

echo "== ASan+UBSan: full unit suite =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
# Unit tests only: the bench_smoke label re-runs whole benches, which is
# redundant coverage at sanitizer speed.
ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
  -LE bench_smoke

echo
echo "== ASan+UBSan: functional backend, bench path =="
# The unit suite above already runs the backend differential tests; this
# adds the driver->Env->FunctionalBackend bench path under strict checking.
cmake --build --preset asan-ubsan -j "$jobs" --target bench_gc_overhead
./build-asan-ubsan/bench/bench_gc_overhead --quick --threads 2 \
  --check=strict --backend=functional
# Same path with the bounded-space collector steering the paper-table
# cells (the pinned comparison pair runs both policies either way).
./build-asan-ubsan/bench/bench_gc_overhead --quick --threads 2 \
  --check=strict --backend=functional --gc=bounded

echo
echo "== ASan+UBSan: osim-mc exhaustive exploration =="
# The model checker exercises the concurrent engine's rarest paths by
# construction (every interleaving of each litmus), so an instrumented
# sweep is disproportionately valuable: any schedule-dependent heap
# misuse or UB in the store shows up here first. Replay of the committed
# fixture also pins the scheduler's own bookkeeping under ASan.
cmake --build --preset asan-ubsan -j "$jobs" --target osim-mc
for prog in mp2 lock_handoff wide3 gc_fence ctx_bound deadlock_pair; do
  ./build-asan-ubsan/tools/osim-mc --program "$prog" --mode naive
done
./build-asan-ubsan/tools/osim-mc --replay tools/testdata/mc_mp2.sched
./build-asan-ubsan/tools/osim-mc --replay tools/testdata/mc_mp2_checked.sched

echo
echo "== ASan+UBSan: chaos soak (fault injection + abort/retry) =="
# The degradation paths — injected kResourceExhausted, abort_task rollback,
# backoff-and-retry, giveup post-mortem cleanup — run code (journal replay,
# shadow restore, park/wake under stop) that a clean run never touches.
# The chaos harness drives both engines through them deterministically.
cmake --build --preset asan-ubsan -j "$jobs" --target osim-chaos
./build-asan-ubsan/tools/osim-chaos --backend both --rounds 2 --tasks 16 \
  --ops 200 --workers 4 --retries 50 --seed 11
# Aggressive leg: retries exhausted, every giveup must still unwind to a
# checker-clean state (exercises the abort-on-giveup path end to end).
./build-asan-ubsan/tools/osim-chaos --backend serial --rounds 1 --tasks 16 \
  --ops 200 --retries 2 --inject "pool:0.02,deadlock:0.01,seed=99"

echo
echo "== TSan: host thread pool =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target test_host_pool
# Run the binary directly: only this target is built, so ctest's
# discovered test lists for the rest of the tree don't exist here.
./build-tsan/tests/test_host_pool

echo
echo "== TSan: functional engine under the driver's thread pool =="
# The functional backend has no fibers — tasks run inline on the calling
# host thread — so unlike the cycle-accurate machine it CAN run under
# TSan. The experiment driver fans cells out across real host threads, so
# this leg checks the functional engine for host-level races end to end.
cmake --build --preset tsan -j "$jobs" --target bench_gc_overhead
./build-tsan/bench/bench_gc_overhead --quick --threads 2 \
  --check=strict --backend=functional
./build-tsan/bench/bench_gc_overhead --quick --threads 2 \
  --check=strict --backend=functional --gc=bounded

echo
echo "== TSan: concurrent engine (seqlock + epoch reclamation) =="
# The whole point of ConcurrentVersionStore is to be data-race-free at the
# C++ memory-model level, not merely "works on x86": every field shared
# with lock-free readers is std::atomic and the seqlock fences pair
# acquire/release. The stress test hammers optimistic readers against
# writers, lock hand-offs, and block reclamation on real host threads,
# which is exactly the code TSan can follow (no fibers anywhere).
cmake --build --preset tsan -j "$jobs" --target test_concurrent_store
./build-tsan/tests/test_concurrent_store
# The GcPolicy differential: the bounded range rule deciding reclaims
# under the shard lock while writer/reader threads race (plus the serial
# functional-backend stress, which is fiber-free and TSan-safe too).
cmake --build --preset tsan -j "$jobs" --target test_gc_policy
./build-tsan/tests/test_gc_policy

echo
echo "== TSan: VersionEngine facade conformance (concurrent cells) =="
# The facade on real host threads: the conformance suite's Concurrent*
# tests drive ConcurrentVersionStore purely through VersionEngine's
# virtuals, via the tests' op-stream driver (tests/engine_exec.hpp) — the
# matrix cells single-driver, the threaded test as per-task batches under
# the work pool — so a race behind the facade's dispatch surfaces here.
# (The serial cells need the fiber machine, which TSan cannot follow; the
# filter keeps them out.)
cmake --build --preset tsan -j "$jobs" --target test_version_engine
./build-tsan/tests/test_version_engine --gtest_filter='*Concurrent*'


echo
echo "== TSan: concurrent chaos soak (abort/retry on real threads) =="
# Workers aborting and retrying tasks while neighbours run is the most
# race-prone path in the concurrent engine: journal replay under the shard
# locks, shadow restores racing optimistic readers, wake-ups of parked ops
# whose version just vanished. TSan follows all of it (no fibers), and
# the strict checker rides the store's tracer through both rounds.
cmake --build --preset tsan -j "$jobs" --target osim-chaos
./build-tsan/tools/osim-chaos --backend concurrent --rounds 2 --tasks 16 \
  --ops 150 --workers 4 --retries 50 --seed 7
# Short tasks: thousands of one-op tasks finish at once on neighbouring
# workers, so the harness's own per-task bookkeeping (commit flags, store
# records) is written concurrently at its densest.
./build-tsan/tools/osim-chaos --backend concurrent --rounds 1 --tasks 2000 \
  --ops 1 --workers 4 --retries 50 --seed 7

echo
echo "sanitizer gate: PASS"
