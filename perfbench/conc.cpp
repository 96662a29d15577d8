// The concurrent workloads: ConcurrentVersionStore driven by a
// ConcurrentTaskPool on one worker per host core.
//
//   conc_read_mostly  95% LOAD-LATEST capped at the task's own version base,
//                     5% STORE-VERSION, uniform slots: the optimistic read
//                     path (thread lookup, epoch pin, seqlock walk).
//   conc_contended    50% STORE-VERSION, 40% exact LOAD-VERSION of an
//                     earlier task's version, 10% LOCK-LOAD-LATEST + UNLOCK
//                     with rename, Zipfian slots: shard locks, spin/park,
//                     block allocation.
//
// A run is a sequence of rounds. Each round generates the op script from
// the seed, builds a fresh store with its setup stores (that is setup_s),
// runs every task on the pool (the timed section) and checks every load
// and the final state. Tasks are small and created in ascending tid, so
// the pool's home queues (tid % workers) interleave them across workers.
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "core/concurrent_store.hpp"
#include "runtime/concurrent.hpp"

namespace perfbench {
namespace {

using osim::ConcurrentTaskPool;
using osim::ConcurrentVersionStore;
using osim::OAddr;
using osim::TaskId;
using osim::Ver;

constexpr TaskId kFirstTask = 2;  // version 1 is every slot's setup store
constexpr int kVersionBits = 10;  // version base of task t: t << kVersionBits

Ver version_base(TaskId t) { return static_cast<Ver>(t) << kVersionBits; }

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The data every store of version v on a slot writes: loads validate
/// against it.
std::uint64_t slot_data(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot * 0xD1B54A32D192ED03ull) ^
         0xA5A5A5A5A5A5A5A5ull;
}

/// Zipfian(1.0) sampler over n slots (cumulative weights, binary search).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cum_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cum_[i] = total;
    }
    for (double& c : cum_) c /= total;
  }
  std::uint32_t sample(std::uint64_t r) const {
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    std::size_t lo = 0, hi = cum_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cum_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::uint32_t>(lo);
  }

 private:
  std::vector<double> cum_;
};

enum class Kind : std::uint8_t {
  kLoadLatest,   // LOAD-LATEST capped at the task's version base
  kLoadVersion,  // exact LOAD-VERSION of `version`
  kStore,        // STORE-VERSION of the op's own version
  kLockRename,   // LOCK-LOAD-LATEST capped at `version`, UNLOCK renaming it
                 // to the op's own version
};

struct ScriptOp {
  std::uint32_t slot;
  Kind kind;
  Ver version;          ///< kLoadVersion / kLockRename: the version named
  std::uint64_t expect; ///< kLoadVersion / kLockRename: its data
};

/// One workload's shape.
struct Shape {
  const char* name;
  std::size_t slots;
  int ops_per_task;
  int tasks;  ///< per round
  bool zipf;
  int load_latest_pct, load_version_pct, store_pct;  // rest: lock+rename
  bool markers;  ///< read-mostly's cross-worker window (see marker_window)
};

constexpr Shape kReadMostly{"conc_read_mostly", 4096, 64, 32768, false,
                            95, 0, 5, true};
constexpr Shape kContended{"conc_contended", 1024, 64, 4096, true,
                           0, 40, 50, false};

/// Marker slots of the read-mostly window; at least the window size, so a
/// marker is at most one version deep when its reader walks to it.
constexpr std::size_t kMarkers = 1024;

/// The generated input of one round. Op j of task i is ops[i * P + j];
/// version_base(kFirstTask + i) + 1 + j is its own version.
struct Script {
  std::vector<ScriptOp> ops;
  std::uint64_t digest = 0;        ///< of the op script
  std::uint64_t final_digest = 0;  ///< expected final per-slot state
  std::uint64_t isa_ops = 0;       ///< ISA calls a round issues
};

/// Read-mostly tasks first LOAD-VERSION the marker stored (as the task's
/// last op) by the task `window` tids earlier. Without that cross-worker
/// tie the workers drift apart and lagging readers walk past many newer
/// versions; a window that is a multiple of the worker count would tie
/// each worker only to itself (home queues are tid % workers). A wide
/// window lets the others run on for about a millisecond while one worker
/// is descheduled, instead of parking at once.
int marker_window(int workers) {
  int w = 513;
  if (workers > 1 && w % workers == 0) ++w;
  return w;
}

Script make_script(const Shape& shape, std::uint64_t seed, int window) {
  Script s;
  const std::size_t n = static_cast<std::size_t>(shape.tasks) *
                        static_cast<std::size_t>(shape.ops_per_task);
  s.ops.reserve(n);
  std::uint64_t rng = seed ^ (shape.zipf ? 0xC0FFEEull : 0xBEEFull);
  const Zipf zipf(shape.zipf ? shape.slots : 1);

  // Latest write per slot by an *earlier* task: exact loads and lock
  // targets name it, so every dependency points at an older task.
  struct Last {
    Ver version;
    std::uint64_t data;
  };
  std::vector<Last> last(shape.slots);
  std::vector<Digest> slot_state(shape.slots + (shape.markers ? kMarkers : 0));
  for (std::size_t i = 0; i < shape.slots; ++i) {
    last[i] = {1, slot_data(1, i)};
    slot_state[i].add(1);
    slot_state[i].add(slot_data(1, i));
  }
  for (std::size_t m = 0; m < (shape.markers ? kMarkers : 0); ++m) {
    slot_state[shape.slots + m].add(1);
    slot_state[shape.slots + m].add(slot_data(1, shape.slots + m));
  }

  Digest script;
  std::vector<std::pair<std::uint32_t, Last>> pending;
  for (int t = 0; t < shape.tasks; ++t) {
    const TaskId tid = kFirstTask + static_cast<TaskId>(t);
    const Ver base = version_base(tid);
    pending.clear();
    if (shape.markers) s.isa_ops += (t >= window ? 2 : 1);
    for (int j = 0; j < shape.ops_per_task; ++j) {
      ScriptOp op{};
      const std::uint64_t r1 = splitmix64(rng);
      op.slot = shape.zipf ? zipf.sample(r1)
                           : static_cast<std::uint32_t>(r1 % shape.slots);
      const int pct = static_cast<int>(splitmix64(rng) % 100);
      const Ver own = base + 1 + static_cast<Ver>(j);
      if (pct < shape.load_latest_pct) {
        op.kind = Kind::kLoadLatest;
        s.isa_ops += 1;
      } else if (pct < shape.load_latest_pct + shape.load_version_pct) {
        op.kind = Kind::kLoadVersion;
        op.version = last[op.slot].version;
        op.expect = last[op.slot].data;
        s.isa_ops += 1;
      } else if (pct < shape.load_latest_pct + shape.load_version_pct +
                           shape.store_pct) {
        op.kind = Kind::kStore;
        pending.push_back({op.slot, {own, slot_data(own, op.slot)}});
        s.isa_ops += 1;
      } else {
        op.kind = Kind::kLockRename;
        op.version = last[op.slot].version;
        op.expect = last[op.slot].data;
        pending.push_back({op.slot, {own, op.expect}});
        s.isa_ops += 3;  // wait for the version, lock it, unlock + rename
      }
      script.add(op.slot);
      script.add(static_cast<std::uint64_t>(op.kind));
      s.ops.push_back(op);
    }
    // A task's writes carry versions above every earlier task's, so each
    // slot's writes arrive here in ascending version order.
    for (const auto& [slot, w] : pending) {
      last[slot] = w;
      slot_state[slot].add(w.version);
      slot_state[slot].add(w.data);
    }
    if (shape.markers) {
      const std::size_t m = shape.slots + static_cast<std::size_t>(t) % kMarkers;
      slot_state[m].add(base);
      slot_state[m].add(slot_data(base, m));
    }
  }
  Digest fin;
  for (const Digest& d : slot_state) fin.add(d.h);
  s.digest = script.h;
  s.final_digest = fin.h;
  return s;
}

// ---------------------------------------------------------------------------
// Traced runs: every public op of the store timed per call, into per-thread
// histograms. Untraced runs use the store as is.

enum TimedOp : int {
  kOpLoadLatest,
  kOpLoadVersion,
  kOpStoreVersion,
  kOpLockLoadLatest,
  kOpUnlockVersion,
  kOpTaskBegin,
  kOpTaskEnd,
  kNumOps
};
constexpr const char* kOpNames[kNumOps] = {
    "load_latest",      "load_version", "store_version", "lock_load_latest",
    "unlock_version",   "task_begin",   "task_end"};

class OpTimers {
 public:
  struct PerThread {
    std::array<LatencyHistogram, kNumOps> ops;
  };

  /// This thread's histograms; registered on the thread's first call.
  PerThread& local() {
    thread_local const OpTimers* owner = nullptr;
    thread_local PerThread* mine = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> g(mu_);
      mine = &threads_.emplace_back();
      owner = this;
    }
    return *mine;
  }
  /// Only calls made while armed (the pool's run) are timed; the host
  /// thread's setup stores are not.
  std::atomic<bool> armed{false};

  /// Sum over threads; call while no thread is recording.
  std::array<LatencyHistogram, kNumOps> total() {
    std::lock_guard<std::mutex> g(mu_);
    std::array<LatencyHistogram, kNumOps> sum{};
    for (const PerThread& t : threads_) {
      for (int i = 0; i < kNumOps; ++i) sum[i].merge(t.ops[i]);
    }
    return sum;
  }

 private:
  std::mutex mu_;
  std::deque<PerThread> threads_;  // stable addresses
};

class TracedStore final : public ConcurrentVersionStore {
 public:
  TracedStore(const osim::ConcurrencyConfig& cfg, OpTimers& timers)
      : ConcurrentVersionStore(cfg), timers_(timers) {}

  std::uint64_t load_version(OAddr a, Ver v) override {
    return timed(kOpLoadVersion,
                 [&] { return ConcurrentVersionStore::load_version(a, v); });
  }
  std::uint64_t load_latest(OAddr a, Ver cap, Ver* found) override {
    return timed(kOpLoadLatest, [&] {
      return ConcurrentVersionStore::load_latest(a, cap, found);
    });
  }
  void store_version(OAddr a, Ver v, std::uint64_t data) override {
    timed(kOpStoreVersion, [&] {
      ConcurrentVersionStore::store_version(a, v, data);
      return 0;
    });
  }
  std::uint64_t lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                 Ver* found) override {
    return timed(kOpLockLoadLatest, [&] {
      return ConcurrentVersionStore::lock_load_latest(a, cap, locker, found);
    });
  }
  void unlock_version(OAddr a, Ver locked_v, TaskId owner,
                      std::optional<Ver> rename_to) override {
    timed(kOpUnlockVersion, [&] {
      ConcurrentVersionStore::unlock_version(a, locked_v, owner, rename_to);
      return 0;
    });
  }
  void task_begin(TaskId t) override {
    timed(kOpTaskBegin, [&] {
      ConcurrentVersionStore::task_begin(t);
      return 0;
    });
  }
  void task_end(TaskId t) override {
    timed(kOpTaskEnd, [&] {
      ConcurrentVersionStore::task_end(t);
      return 0;
    });
  }

 private:
  template <typename F>
  std::invoke_result_t<F&> timed(TimedOp op, F&& f) {
    if (!timers_.armed.load(std::memory_order_relaxed)) return f();
    const auto t0 = Clock::now();
    auto r = f();
    timers_.local().ops[op].record(ns_since(t0));
    return r;
  }
  OpTimers& timers_;
};

// ---------------------------------------------------------------------------
// Rounds

struct Round {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t isa_ops = 0;
  std::uint64_t failed = 0;
  bool state_ok = false;
  std::vector<std::uint64_t> task_ns;
  ConcurrentVersionStore::Stats stats;
  std::uint64_t store_bytes = 0;  ///< heap held by the store after the run
  std::uint64_t versions = 0;     ///< live versions after the run
  std::uint64_t final_digest = 0; ///< of the final per-slot state
};

/// Shared by a round's tasks; tasks index task_ns by their own position.
struct RoundCtx {
  const Shape* shape;
  const Script* script;
  ConcurrentVersionStore* store;
  OAddr data_base;
  OAddr marker_base;
  int window;
  std::vector<std::uint64_t>* task_ns;
  std::atomic<std::uint64_t> failed{0};
};

void run_task(RoundCtx& c, int t, TaskId tid) {
  const auto t0 = Clock::now();
  const Shape& sh = *c.shape;
  ConcurrentVersionStore& st = *c.store;
  const Ver base = version_base(tid);
  std::uint64_t failed = 0;
  auto check = [&failed](bool ok) {
    if (!ok) ++failed;
  };
  if (sh.markers && t >= c.window) {
    const int src = t - c.window;
    const std::size_t m = static_cast<std::size_t>(src) % kMarkers;
    const Ver v = version_base(kFirstTask + static_cast<TaskId>(src));
    try {
      check(st.load_version(c.marker_base + 8 * m, v) ==
            slot_data(v, sh.slots + m));
    } catch (const std::exception&) {
      ++failed;
    }
  }
  const ScriptOp* ops =
      c.script->ops.data() + static_cast<std::size_t>(t) * sh.ops_per_task;
  for (int j = 0; j < sh.ops_per_task; ++j) {
    const ScriptOp& op = ops[j];
    const OAddr a = c.data_base + 8 * op.slot;
    const Ver own = base + 1 + static_cast<Ver>(j);
    try {
      switch (op.kind) {
        case Kind::kLoadLatest: {
          Ver found = 0;
          const std::uint64_t d = st.load_latest(a, base, &found);
          check(found >= 1 && found <= base &&
                d == slot_data(found, op.slot));
          break;
        }
        case Kind::kLoadVersion:
          check(st.load_version(a, op.version) == op.expect);
          break;
        case Kind::kStore:
          st.store_version(a, own, slot_data(own, op.slot));
          break;
        case Kind::kLockRename: {
          // Waiting for the named version first makes the lock target (and
          // so the renamed data) the same in every interleaving.
          check(st.load_version(a, op.version) == op.expect);
          Ver found = 0;
          const std::uint64_t d = st.lock_load_latest(a, op.version, tid, &found);
          check(found == op.version && d == op.expect);
          st.unlock_version(a, found, tid, own);
          break;
        }
      }
    } catch (const std::exception&) {
      ++failed;
    }
  }
  if (sh.markers) {
    const std::size_t m = static_cast<std::size_t>(t) % kMarkers;
    try {
      st.store_version(c.marker_base + 8 * m, base,
                       slot_data(base, sh.slots + m));
    } catch (const std::exception&) {
      ++failed;
    }
  }
  (*c.task_ns)[static_cast<std::size_t>(t)] = ns_since(t0);
  if (failed != 0) c.failed.fetch_add(failed, std::memory_order_relaxed);
}

/// Digest of the store's final per-slot state, in the order make_script
/// computes the expected one (each slot's versions ascending).
std::uint64_t final_digest(ConcurrentVersionStore& st, const Shape& sh,
                           OAddr data_base, OAddr marker_base,
                           std::uint64_t* versions) {
  Digest fin;
  const std::size_t n = sh.slots + (sh.markers ? kMarkers : 0);
  for (std::size_t s = 0; s < n; ++s) {
    const OAddr a = s < sh.slots ? data_base + 8 * s
                                 : marker_base + 8 * (s - sh.slots);
    const auto vs = st.slot_versions(a);  // newest first
    Digest d;
    for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
      d.add(it->first);
      d.add(it->second);
    }
    fin.add(d.h);
    *versions += vs.size();
  }
  return fin.h;
}

Round run_round(const Shape& sh, std::uint64_t seed, int workers,
                OpTimers* timers, std::uint64_t* script_digest) {
  Round r;
  r.task_ns.assign(static_cast<std::size_t>(sh.tasks), 0);
  const int window = marker_window(workers);

  const auto t0 = Clock::now();
  const Script script = make_script(sh, seed, window);
  const std::uint64_t heap0 = heap_bytes();
  // Engine defaults, except that a blocked op faults only after 10 s, as in
  // bench_backend_throughput (a host that takes the workers' CPUs away for a
  // while must slow the run down, not fail it), and that every worker and
  // the host thread can register however many cores the host has.
  osim::ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 10000;
  cfg.max_threads = std::max(cfg.max_threads, workers + 1);
  std::unique_ptr<ConcurrentVersionStore> store =
      timers != nullptr ? std::make_unique<TracedStore>(cfg, *timers)
                        : std::make_unique<ConcurrentVersionStore>(cfg);
  const OAddr data_base = store->alloc(sh.slots);
  const OAddr marker_base = sh.markers ? store->alloc(kMarkers) : 0;
  for (std::size_t s = 0; s < sh.slots; ++s) {
    store->store_version(data_base + 8 * s, 1, slot_data(1, s));
  }
  for (std::size_t m = 0; sh.markers && m < kMarkers; ++m) {
    store->store_version(marker_base + 8 * m, 1, slot_data(1, sh.slots + m));
  }
  const std::uint64_t setup_ops = store->stats().ops;
  RoundCtx ctx{&sh, &script, store.get(), data_base, marker_base,
               window, &r.task_ns, {}};
  const std::uint64_t heap1 = heap_bytes();
  ConcurrentTaskPool pool(*store, workers);
  for (int t = 0; t < sh.tasks; ++t) {
    pool.create_task(kFirstTask + static_cast<TaskId>(t),
                     [&ctx, t](TaskId tid) { run_task(ctx, t, tid); });
  }
  const std::uint64_t pool_bytes = heap_bytes() - heap1;
  r.setup_s = seconds_since(t0);

  if (timers != nullptr) timers->armed.store(true);
  r.run_s = pool.run();
  if (timers != nullptr) timers->armed.store(false);

  r.stats = store->stats();
  r.store_bytes = heap_bytes() - heap0 - pool_bytes;
  r.isa_ops = script.isa_ops;
  r.failed = ctx.failed.load();
  if (r.stats.ops - setup_ops != script.isa_ops) {
    ++r.failed;  // the engine saw a different op count than was issued
  }
  r.final_digest = final_digest(*store, sh, data_base, marker_base, &r.versions);
  r.state_ok = r.final_digest == script.final_digest;
  *script_digest = script.digest;
  return r;
}

struct Series {
  std::vector<Round> rounds;
  std::uint64_t script_digest = 0;
  /// Peak resident memory after the first round: later rounds reuse the
  /// freed heap in an order the worker threads' arenas make nondeterministic.
  double first_round_peak_mb = 0;
};

/// Rounds until `seconds` of wall time have passed (at least two).
Series run_rounds(const Shape& sh, std::uint64_t seed, int workers,
                  double seconds, OpTimers* timers) {
  Series s;
  const auto start = Clock::now();
  do {
    s.rounds.push_back(run_round(sh, seed, workers, timers, &s.script_digest));
    if (s.rounds.size() == 1) s.first_round_peak_mb = peak_rss_mb();
  } while (s.rounds.size() < 2 || seconds_since(start) < seconds);
  return s;
}

double ops_per_s(const Round& r) {
  return static_cast<double>(r.isa_ops) / r.run_s;
}

/// Folds a series' checks into the report.
void account(const Series& s, const Shape& sh, int workers, Report& report) {
  for (const Round& r : s.rounds) {
    report.count(r.isa_ops, r.failed);
    if (r.failed != 0) {
      report.violation(std::string(sh.name) + " at " +
                       std::to_string(workers) + " worker(s): " +
                       std::to_string(r.failed) + " failed op(s)");
    }
    if (!r.state_ok) {
      report.violation(std::string(sh.name) + " at " +
                       std::to_string(workers) +
                       " worker(s): final state differs from the script's");
    }
  }
}

void run_conc(const Shape& sh, const Args& args, Report& report) {
  const auto run_start = Clock::now();
  const int workers = host_cores();
  const double budget = args.trace ? args.seconds / 3 : args.seconds;

  const Series main = run_rounds(sh, args.seed, workers, budget, nullptr);
  account(main, sh, workers, report);

  report.info(std::string("workload=") + sh.name +
              " seed=" + std::to_string(args.seed) +
              " script_digest=" + std::to_string(main.script_digest) +
              " final_state_digest=" +
              std::to_string(main.rounds.front().final_digest) +
              " workers=" + std::to_string(workers) +
              " nproc=" + std::to_string(host_cores()) +
              " tasks_per_round=" + std::to_string(sh.tasks) +
              " ops_per_task=" + std::to_string(sh.ops_per_task) +
              " slots=" + std::to_string(sh.slots) +
              " window=" + (sh.markers ? std::to_string(marker_window(workers))
                                       : std::string("none")) +
              " build=" PERFBENCH_BUILD_TYPE);

  // Per-round figures, reported as medians over the rounds: a round that a
  // descheduled worker stalls moves its own p99, not the run's.
  std::vector<double> setup_s, rates, p50_us, p99_us;
  for (const Round& r : main.rounds) {
    setup_s.push_back(r.setup_s);
    rates.push_back(ops_per_s(r));
    p50_us.push_back(quantile(r.task_ns, 0.50) / 1e3);
    p99_us.push_back(quantile(r.task_ns, 0.99) / 1e3);
  }
  report.info("rounds=" + std::to_string(main.rounds.size()) +
              " isa_ops_per_round=" + std::to_string(main.rounds[0].isa_ops) +
              " round p99_us min/median/max " +
              std::to_string(quantile(p99_us, 0)) + "/" +
              std::to_string(median(p99_us)) + "/" +
              std::to_string(quantile(p99_us, 1)));

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("host_ops_per_s", median(rates), "1/s");
    report.metric("task_p50_us", median(p50_us), "us");
    report.metric("task_p99_us", median(p99_us), "us");
    report.metric("peak_rss_mb", main.first_round_peak_mb, "MB");
    report.info("run_s=" + std::to_string(seconds_since(run_start)));
    return;
  }

  // Engine counters and the pool's busy share, from the untraced rounds.
  std::vector<double> busy, retries, spins, parks, allocated, reclaimed, bpv;
  for (const Round& r : main.rounds) {
    double task_s = 0;
    for (std::uint64_t ns : r.task_ns) task_s += static_cast<double>(ns) / 1e9;
    busy.push_back(task_s / (workers * r.run_s));
    const double kops = static_cast<double>(r.isa_ops) / 1e3;
    retries.push_back(static_cast<double>(r.stats.seq_retries) / kops);
    spins.push_back(static_cast<double>(r.stats.spin_waits) / kops);
    parks.push_back(static_cast<double>(r.stats.parks) / kops);
    allocated.push_back(static_cast<double>(r.stats.blocks_allocated));
    reclaimed.push_back(static_cast<double>(r.stats.blocks_reclaimed));
    bpv.push_back(static_cast<double>(r.store_bytes) /
                  static_cast<double>(r.versions));
  }

  // The same input per call timed, and on a single worker.
  OpTimers timers;
  const Series traced = run_rounds(sh, args.seed, workers, budget, &timers);
  account(traced, sh, workers, report);
  const Series single = run_rounds(sh, args.seed, 1, budget, nullptr);
  account(single, sh, 1, report);
  std::vector<double> traced_rates, single_rates;
  for (const Round& r : traced.rounds) traced_rates.push_back(ops_per_s(r));
  for (const Round& r : single.rounds) single_rates.push_back(ops_per_s(r));

  const auto hist = timers.total();
  for (int i = 0; i < kNumOps; ++i) {
    const std::string p = std::string("core.conc.") + kOpNames[i];
    report.metric(p + "_ns.p50", hist[i].quantile_ns(0.50), "ns");
    report.metric(p + "_ns.p99", hist[i].quantile_ns(0.99), "ns");
    report.metric(p + ".calls", static_cast<double>(hist[i].calls()), "count");
    report.metric(p + ".self_s", static_cast<double>(hist[i].sum_ns()) / 1e9,
                  "s");
  }
  report.metric("core.conc.seq_retries_per_kop", median(retries), "count");
  report.metric("core.conc.spin_waits_per_kop", median(spins), "count");
  report.metric("core.conc.parks_per_kop", median(parks), "count");
  report.metric("core.conc.blocks_allocated", median(allocated), "count");
  report.metric("core.conc.blocks_reclaimed", median(reclaimed), "count");
  report.metric("core.conc.bytes_per_version", median(bpv), "B");
  report.metric("runtime.pool.busy_share", median(busy), "ratio");
  report.metric("runtime.pool.speedup_vs_t1",
                median(rates) / median(single_rates), "ratio");
  report.metric("bench.traced_over_untraced",
                median(traced_rates) / median(rates), "ratio");
  probe_conc_layers(report);
  report.info("run_s=" + std::to_string(seconds_since(run_start)));
}

}  // namespace

void run_conc_read_mostly(const Args& args, Report& report) {
  run_conc(kReadMostly, args, report);
}

void run_conc_contended(const Args& args, Report& report) {
  run_conc(kContended, args, report);
}

}  // namespace perfbench
