// sim_list32: the paper's flagship (Fig. 6/7) on the timed backend — the
// versioned linked list, 32 simulated cores, 10,000 elements, 4R-1W. Every
// hand-over-hand step is a stall/wake fiber round trip, so host time is
// dominated by the sim layer; the functional backend on the same input
// isolates the VersionStore semantics (core.semantics_s).
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/isa.hpp"
#include "runtime/env.hpp"
#include "telemetry/trace.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/opgen.hpp"

namespace perfbench {
namespace {

using osim::BackendKind;
using osim::Cycles;
using osim::telemetry::Component;

constexpr int kCores = 32;
constexpr std::size_t kElements = 10000;
constexpr int kOps = 960;
constexpr int kReadsPerWrite = 4;
/// Distinct inputs per run (seeds seed * kInputs + k): the simulated task
/// latencies and the per-op host cost vary with the input, and pooling four
/// inputs keeps one unlucky draw from moving a run's figures.
constexpr int kInputs = 4;
constexpr double kSimGhz = 2.0;  // MachineConfig default (Table II)

/// Recorded outputs of the timed run per input seed (runs with --seed 0 to
/// 15). Any difference is a change of the simulated model, not of host
/// speed.
struct Reference {
  std::uint64_t seed;
  Cycles cycles;
  std::uint64_t checksum;
  std::uint64_t versioned_ops;
};
constexpr Reference kReferences[] = {
    {0, 11722065, 6404959399476845441ull, 5736078},
    {1, 11728855, 18244812607164080629ull, 5618238},
    {2, 11958865, 4059180917665816160ull, 5712715},
    {3, 11699810, 1193568591140032994ull, 5967297},
    {4, 11515450, 3344166231359601891ull, 5838189},
    {5, 12179892, 3833567352230657997ull, 5880145},
    {6, 11873432, 5516850605725743814ull, 5596357},
    {7, 11542083, 12441414894502258458ull, 5704762},
    {8, 11759966, 11820793182619205992ull, 5564694},
    {9, 11523924, 17035173898741955279ull, 5947135},
    {10, 11848040, 8779723184828138049ull, 5781950},
    {11, 11567620, 12198382986313860075ull, 5801511},
    {12, 11842437, 4026651311211213650ull, 5857686},
    {13, 11388769, 17908705087626366824ull, 5629963},
    {14, 11810267, 1430496162992995663ull, 5582158},
    {15, 12321811, 6914533030405497594ull, 5696466},
    {16, 11472939, 1390767470638563677ull, 5654860},
    {17, 11602564, 14507360461391535152ull, 5846355},
    {18, 12414751, 18024123932419352545ull, 5770736},
    {19, 11879416, 10566709508196253927ull, 5732296},
    {20, 11373543, 7063342276506846649ull, 5782970},
    {21, 12558558, 7356323912867176932ull, 5762102},
    {22, 11819332, 8968156637665614962ull, 5719182},
    {23, 12133760, 5823057298606620849ull, 5815586},
    {24, 12335406, 17374418074309165230ull, 5587722},
    {25, 12028373, 14362010002843433030ull, 5638543},
    {26, 12234258, 8761777564140906571ull, 5769840},
    {27, 11661727, 2498085749154005923ull, 5610586},
    {28, 12358762, 15851253592199616950ull, 5851595},
    {29, 11293824, 4035307010857633103ull, 5755538},
    {30, 11694245, 6966522024578046675ull, 5878571},
    {31, 12021464, 14973989403122663849ull, 5855254},
    {32, 12058770, 14460503642948744180ull, 5720590},
    {33, 11624731, 14946148339080618344ull, 5801016},
    {34, 12353363, 7487599783360721894ull, 5841129},
    {35, 11665670, 16444079038420962714ull, 5800074},
    {36, 11384762, 10281215270547516656ull, 5409038},
    {37, 11213495, 7547403223007323165ull, 5695165},
    {38, 12272705, 11281352201990195751ull, 5695711},
    {39, 12214795, 6737000573506507456ull, 5749637},
    {40, 12154367, 1857538048512272522ull, 5928948},
    {41, 11507062, 11874482488985125901ull, 5705085},
    {42, 11413409, 7820839547333471693ull, 5652151},
    {43, 12419803, 11879176517883133736ull, 5798145},
    {44, 12009743, 11151696602368548423ull, 5861324},
    {45, 11417966, 14124768784184136530ull, 5596180},
    {46, 11946192, 16206185078250541836ull, 5755682},
    {47, 12178384, 7307382674688708799ull, 5640433},
    {48, 11569314, 12851834411021548753ull, 5610825},
    {49, 11625777, 16576667729542959938ull, 5846022},
    {50, 11357986, 16948530031758116869ull, 5621640},
    {51, 11838940, 12909509028208765255ull, 5664029},
    {52, 11816610, 12971898356644540953ull, 5653538},
    {53, 11204499, 9836896701672891223ull, 5893429},
    {54, 11774652, 13918314720677479512ull, 5739179},
    {55, 12445426, 14075580704242487966ull, 5523403},
    {56, 13000209, 3757231923065612278ull, 5952050},
    {57, 11383263, 12314283551958606902ull, 5691580},
    {58, 12122690, 7345194328964492555ull, 5870317},
    {59, 12550207, 10919763751965757020ull, 5783461},
    {60, 12365627, 610960137998345707ull, 6001345},
    {61, 11265600, 6682214844886283313ull, 5548285},
    {62, 11511291, 8297860867360985972ull, 5750898},
    {63, 12065962, 13346770904292550127ull, 5757366},
};

osim::DsSpec make_spec(std::uint64_t seed, int ops) {
  osim::DsSpec spec;
  spec.initial_size = kElements;
  spec.ops = ops;
  spec.reads_per_write = kReadsPerWrite;
  spec.scan_range = 1;
  spec.seed = seed;
  return spec;
}

osim::MachineConfig make_config(BackendKind backend) {
  osim::MachineConfig cfg;
  cfg.num_cores = kCores;
  cfg.backend = backend;
  return cfg;
}

/// Digest of the generated input: the initial keys and the op script.
std::uint64_t input_digest(const osim::DsSpec& spec) {
  Digest d;
  for (std::uint64_t k : osim::initial_keys(spec)) d.add(k);
  for (const osim::Op& op : osim::generate_ops(spec)) {
    d.add(static_cast<std::uint64_t>(op.kind));
    d.add(op.key);
  }
  return d.h;
}

/// Simulated latency of every task, from its TASK-BEGIN/TASK-END events
/// (stamped with the running core's clock).
class TaskLatencySink final : public osim::telemetry::TraceSink {
 public:
  TaskLatencySink()
      : TraceSink(osim::telemetry::event_bit(
            osim::telemetry::EventType::kIsaOp)),
        begin_(kCores, 0) {}
  void on_event(const osim::telemetry::TraceEvent& e) override {
    if (e.op == osim::OpCode::kTaskBegin) {
      begin_[static_cast<std::size_t>(e.core)] = e.time;
    } else if (e.op == osim::OpCode::kTaskEnd) {
      cycles.push_back(e.time - begin_[static_cast<std::size_t>(e.core)]);
    }
  }
  std::vector<Cycles> cycles;

 private:
  std::vector<Cycles> begin_;
};

/// Counts every event the engine emits: the traced rep's telemetry load.
class CountingSink final : public osim::telemetry::TraceSink {
 public:
  CountingSink() : TraceSink(osim::telemetry::kAllEvents) {}
  void on_event(const osim::telemetry::TraceEvent&) override { ++events; }
  std::uint64_t events = 0;
};

/// Registry counts of one run (telemetry layer, read after the run).
struct Counts {
  std::uint64_t versioned_ops = 0, loads = 0, stores = 0, l1_hits = 0,
                l1_misses = 0, remote_l1_fills = 0, stall_cycles = 0,
                full_lookups = 0, walk_blocks = 0, stalls = 0;

  static Counts read(const osim::telemetry::MetricRegistry& m) {
    Counts c;
    c.versioned_ops = m.total(Component::kOsm, "versioned_ops");
    c.loads = m.total(Component::kCache, "loads");
    c.stores = m.total(Component::kCache, "stores");
    c.l1_hits = m.total(Component::kCache, "l1_hits");
    c.l1_misses = m.total(Component::kCache, "l1_misses");
    c.remote_l1_fills = m.total(Component::kCache, "remote_l1_fills");
    c.stall_cycles = m.total(Component::kCore, "stall_cycles");
    c.full_lookups = m.total(Component::kOsm, "full_lookups");
    c.walk_blocks = m.total(Component::kOsm, "walk_blocks");
    c.stalls = m.total(Component::kOsm, "stalls");
    return c;
  }
  Counts plus(const Counts& o) const {
    Counts c;
    c.versioned_ops = versioned_ops + o.versioned_ops;
    c.loads = loads + o.loads;
    c.stores = stores + o.stores;
    c.l1_hits = l1_hits + o.l1_hits;
    c.l1_misses = l1_misses + o.l1_misses;
    c.remote_l1_fills = remote_l1_fills + o.remote_l1_fills;
    c.stall_cycles = stall_cycles + o.stall_cycles;
    c.full_lookups = full_lookups + o.full_lookups;
    c.walk_blocks = walk_blocks + o.walk_blocks;
    c.stalls = stalls + o.stalls;
    return c;
  }
  Counts minus(const Counts& o) const {
    Counts c;
    c.versioned_ops = versioned_ops - o.versioned_ops;
    c.loads = loads - o.loads;
    c.stores = stores - o.stores;
    c.l1_hits = l1_hits - o.l1_hits;
    c.l1_misses = l1_misses - o.l1_misses;
    c.remote_l1_fills = remote_l1_fills - o.remote_l1_fills;
    c.stall_cycles = stall_cycles - o.stall_cycles;
    c.full_lookups = full_lookups - o.full_lookups;
    c.walk_blocks = walk_blocks - o.walk_blocks;
    c.stalls = stalls - o.stalls;
    return c;
  }
};

/// Set-up: input generation, Env construction and the list's setup stores
/// (the unmeasured populate phase, run alone with zero measured ops).
struct Setup {
  double total_s = 0;
  double populate_s = 0;
  std::uint64_t digest = 0;
  Counts counts;
};

Setup run_setup(std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  osim::Env env(make_config(BackendKind::kTimed));
  s.digest = input_digest(make_spec(seed, kOps));
  const auto t1 = Clock::now();
  osim::linked_list_versioned(env, make_spec(seed, 0), kCores);
  s.populate_s = seconds_since(t1);
  s.total_s = seconds_since(t0);
  s.counts = Counts::read(env.metrics());
  return s;
}

struct Rep {
  double host_s = 0;  ///< the whole linked_list_versioned call
  Cycles cycles = 0;
  std::uint64_t checksum = 0;
  Counts counts;
  std::vector<Cycles> task_cycles;
  std::uint64_t events = 0;  ///< engine events (traced reps only)
};

Rep run_rep(std::uint64_t seed, BackendKind backend, bool count_events) {
  osim::Env env(make_config(backend));
  osim::telemetry::Tracer& tracer = env.store().tracer();
  auto* tasks = static_cast<TaskLatencySink*>(
      tracer.add_sink(std::make_unique<TaskLatencySink>()));
  CountingSink* counter = nullptr;
  if (count_events) {
    counter = static_cast<CountingSink*>(
        tracer.add_sink(std::make_unique<CountingSink>()));
  }
  Rep rep;
  const auto t0 = Clock::now();
  const osim::RunResult r =
      osim::linked_list_versioned(env, make_spec(seed, kOps), kCores);
  rep.host_s = seconds_since(t0);
  rep.cycles = r.cycles;
  rep.checksum = r.checksum;
  rep.counts = Counts::read(env.metrics());
  rep.task_cycles = std::move(tasks->cycles);
  if (counter != nullptr) rep.events = counter->events;
  return rep;
}

/// One of a run's inputs with everything measured on it.
struct Input {
  std::uint64_t seed = 0;  ///< DsSpec seed
  std::uint64_t digest = 0;
  Counts setup_counts;
  std::uint64_t oracle_checksum = 0;
  std::vector<double> functional_s;
  std::vector<Rep> reps;  ///< timed

  std::uint64_t measured_ops() const {
    return reps.front().counts.versioned_ops - setup_counts.versioned_ops;
  }
};

/// Checks a timed rep against the functional oracle, the input's first
/// rep and the recorded reference; returns whether it passed.
bool check_rep(const Rep& rep, const Input& in, Report& report) {
  const std::string who = "input seed " + std::to_string(in.seed) + ": ";
  bool ok = true;
  if (rep.checksum != in.oracle_checksum) {
    report.violation(who + "timed checksum " + std::to_string(rep.checksum) +
                     " != functional checksum " +
                     std::to_string(in.oracle_checksum));
    ok = false;
  }
  if (!in.reps.empty()) {
    const Rep& first = in.reps.front();
    if (rep.cycles != first.cycles || rep.checksum != first.checksum ||
        rep.counts.versioned_ops != first.counts.versioned_ops) {
      report.violation(who + "a rerun differs from the first timed run");
      ok = false;
    }
  }
  if (rep.task_cycles.size() != static_cast<std::size_t>(kOps)) {
    report.violation(who + "saw " + std::to_string(rep.task_cycles.size()) +
                     " task completions, expected " + std::to_string(kOps));
    ok = false;
  }
  for (const Reference& ref : kReferences) {
    if (ref.seed != in.seed) continue;
    if (rep.cycles != ref.cycles || rep.checksum != ref.checksum ||
        rep.counts.versioned_ops != ref.versioned_ops) {
      report.violation(
          who + "cycles/checksum/versioned_ops " + std::to_string(rep.cycles) +
          "/" + std::to_string(rep.checksum) + "/" +
          std::to_string(rep.counts.versioned_ops) +
          " differ from the recorded reference " + std::to_string(ref.cycles) +
          "/" + std::to_string(ref.checksum) + "/" +
          std::to_string(ref.versioned_ops));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

void run_sim_list32(const Args& args, Report& report) {
  const auto run_start = Clock::now();
  std::vector<Input> inputs(kInputs);
  for (int k = 0; k < kInputs; ++k) inputs[k].seed = args.seed * kInputs + k;

  // Set-up twice per input; the populate time is subtracted from each timed
  // call, whose measured section starts after the setup stores.
  std::vector<double> setup_s, populate_s;
  for (int pass = 0; pass < 2; ++pass) {
    for (Input& in : inputs) {
      const Setup s = run_setup(in.seed);
      setup_s.push_back(s.total_s);
      populate_s.push_back(s.populate_s);
      in.digest = s.digest;
      in.setup_counts = s.counts;
    }
  }
  const double populate = median(populate_s);

  // Functional oracle on each input: its checksum is the reference for the
  // timed runs, its host time the semantics-only cost.
  for (Input& in : inputs) {
    const Rep oracle = run_rep(in.seed, BackendKind::kFunctional, false);
    in.oracle_checksum = oracle.checksum;
    in.functional_s.push_back(oracle.host_s);
  }

  // Passes over the inputs while the budget lasts (at least one). The first
  // timed call also pays the allocator's first touch of the machine model;
  // peak memory is read right after it, before later calls' heap reuse can
  // move it.
  double peak_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  const auto measure_start = Clock::now();
  const double budget = args.trace ? 0 : args.seconds;
  double pass_s = 0;
  do {
    const auto pass_start = Clock::now();
    for (Input& in : inputs) {
      Rep rep = run_rep(in.seed, BackendKind::kTimed, false);
      if (peak_mb == 0) peak_mb = peak_rss_mb();
      attempted += kOps;
      if (!check_rep(rep, in, report)) failed += kOps;
      in.reps.push_back(std::move(rep));
    }
    pass_s = seconds_since(pass_start);
  } while (seconds_since(measure_start) + pass_s < budget);
  report.count(attempted, failed);

  auto rate = [&](const Input& in, const Rep& r) {
    return static_cast<double>(in.measured_ops()) / (r.host_s - populate);
  };
  std::vector<double> input_rates, task_us;
  for (const Input& in : inputs) {
    std::vector<double> rates;
    for (const Rep& r : in.reps) rates.push_back(rate(in, r));
    input_rates.push_back(median(rates));
    for (Cycles c : in.reps.front().task_cycles) {
      task_us.push_back(static_cast<double>(c) / (kSimGhz * 1e3));
    }
  }

  report.info("workload=sim_list32 seed=" + std::to_string(args.seed) +
              " inputs=" + std::to_string(kInputs) +
              " cores=" + std::to_string(kCores) +
              " elements=" + std::to_string(kElements) +
              " ops=" + std::to_string(kOps) + " reads_per_write=" +
              std::to_string(kReadsPerWrite) + " nproc=" +
              std::to_string(host_cores()) + " build=" PERFBENCH_BUILD_TYPE);
  for (const Input& in : inputs) {
    const Rep& r = in.reps.front();
    std::string rep_s;
    for (const Rep& x : in.reps) rep_s += " " + std::to_string(x.host_s);
    report.info("input seed=" + std::to_string(in.seed) +
                " digest=" + std::to_string(in.digest) +
                " sim_cycles=" + std::to_string(r.cycles) +
                " checksum=" + std::to_string(r.checksum) +
                " versioned_ops=" + std::to_string(r.counts.versioned_ops) +
                " timed_s:" + rep_s);
  }

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("host_ops_per_s", median(input_rates), "1/s");
    report.metric("task_p50_us", quantile(task_us, 0.50), "us");
    report.metric("task_p99_us", quantile(task_us, 0.99), "us");
    report.metric("peak_rss_mb", peak_mb, "MB");
    report.info("run_s=" + std::to_string(seconds_since(run_start)));
    return;
  }

  // Traced: one input once more with every engine event delivered to a
  // sink, the functional split, and the calibration probes. The traced
  // input is the second: the first untraced call also paid the allocator's
  // first touch, which would flatter the traced rerun.
  Input& again = inputs[1];
  const Rep traced = run_rep(again.seed, BackendKind::kTimed, true);
  report.count(kOps, check_rep(traced, again, report) ? 0 : kOps);
  Cycles cycles = 0;
  Counts measured;
  double timed = 0, semantics = 0;
  for (Input& in : inputs) {
    for (int i = 0; i < 2; ++i) {
      in.functional_s.push_back(
          run_rep(in.seed, BackendKind::kFunctional, false).host_s);
    }
    std::vector<double> timed_s;
    for (const Rep& r : in.reps) timed_s.push_back(r.host_s);
    timed += median(timed_s);
    semantics += median(in.functional_s);
    cycles += in.reps.front().cycles;
    measured = measured.plus(in.reps.front().counts.minus(in.setup_counts));
  }

  report.metric("sim.cycles", static_cast<double>(cycles), "cycles");
  report.metric("core.osm.versioned_ops",
                static_cast<double>(measured.versioned_ops), "count");
  report.metric("sim.timing_model_s", timed - semantics, "s");
  report.metric("core.semantics_s", semantics, "s");
  report.metric("sim.memsys.accesses",
                static_cast<double>(measured.loads + measured.stores), "count");
  // Every access probes its core's L1, so the ratio's base is the accesses.
  const std::uint64_t l1 = measured.l1_hits + measured.l1_misses;
  report.metric("sim.memsys.l1_miss_ratio",
                l1 == 0 ? 0.0
                        : static_cast<double>(measured.l1_misses) /
                              static_cast<double>(l1),
                "ratio");
  report.metric("sim.memsys.remote_l1_fills",
                static_cast<double>(measured.remote_l1_fills), "count");
  report.metric("sim.core.stall_cycles",
                static_cast<double>(measured.stall_cycles), "cycles");
  report.metric("core.osm.full_lookups",
                static_cast<double>(measured.full_lookups), "count");
  report.metric("core.osm.walk_blocks",
                static_cast<double>(measured.walk_blocks), "count");
  report.metric("core.osm.stalls", static_cast<double>(measured.stalls),
                "count");
  report.metric("telemetry.trace.events", static_cast<double>(traced.events),
                "count");
  report.metric("bench.traced_over_untraced",
                rate(again, traced) / input_rates[1], "ratio");
  probe_sim_layers(report);
  report.info("run_s=" + std::to_string(seconds_since(run_start)));
}

}  // namespace perfbench
