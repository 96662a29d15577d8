// Snapshot isolation through versioning and renaming (paper Sec. IV-C).
//
// A writer task repeatedly replaces elements of a versioned array while
// reader tasks scan it. Each reader sees a *consistent snapshot*: the array
// exactly as it was when the reader's turn came, regardless of how far the
// writer has advanced meanwhile. With a mutex or rwlock this would require
// excluding the writer for the whole scan; with O-structure renaming the
// writer never waits for readers and readers never wait for the writer.
#include <cstdio>
#include <vector>

#include "runtime/pipeline.hpp"
#include "runtime/task.hpp"

using namespace osim;

int main() {
  constexpr int kSlots = 32;
  constexpr int kWriters = 8;  // writer generations
  constexpr int kCores = 8;

  MachineConfig config;
  config.num_cores = kCores;
  Env env(config);

  // A versioned array: generation g writes value g into every slot.
  std::vector<versioned<std::uint64_t>> arr;
  arr.reserve(kSlots);
  for (int i = 0; i < kSlots; ++i) arr.emplace_back(env);

  TicketRoot<std::uint64_t> ticket(env);
  TaskRuntime rt(env, kCores);
  rt.set_setup([&] {
    for (auto& a : arr) a.store_ver(0, 1);
    ticket.init(0, 1);
  });

  // Interleave: writer, then 3 readers, writer, 3 readers, ...
  std::vector<std::uint64_t> scan_sums((kWriters + 1) * 3, ~0ull);
  TaskId tid = 2;
  Ver last_writer = 1;
  int reader_idx = 0;
  for (int g = 1; g <= kWriters; ++g) {
    const Ver prev = last_writer;
    rt.create_task(tid, [&env, &arr, &ticket, prev, g](TaskId t) {
      ticket.enter_mut(t, prev);
      // Renaming: every slot gets a NEW version g; old versions stay
      // readable for older snapshots (no write-after-read hazards).
      for (auto& a : arr) {
        a.store_ver(static_cast<std::uint64_t>(g), t);
        env.exec(4);
      }
      ticket.leave_mut(t, prev);
    });
    last_writer = tid;
    ++tid;
    for (int r = 0; r < 3; ++r) {
      const Ver my_prev = last_writer;
      const int idx = reader_idx++;
      rt.create_task(tid, [&env, &arr, &ticket, &scan_sums, my_prev,
                           idx](TaskId t) {
        ticket.enter_ro(my_prev);
        std::uint64_t sum = 0;
        for (auto& a : arr) {
          sum += a.load_latest(t);
          env.exec(4);
        }
        scan_sums[idx] = sum;
      });
      ++tid;
    }
  }

  const Cycles cycles = rt.run();

  // Every scan must be internally consistent: all slots from the same
  // generation, i.e. the sum is a multiple of kSlots.
  bool ok = true;
  for (int i = 0; i < reader_idx; ++i) {
    if (scan_sums[i] % kSlots != 0) ok = false;
  }
  std::printf("%d snapshot scans over %d writer generations in %llu cycles\n",
              reader_idx, kWriters,
              static_cast<unsigned long long>(cycles));
  std::printf("every scan saw a consistent snapshot: %s\n",
              ok ? "yes" : "NO — torn read!");
  const auto osm = [&env](const char* name) {
    return static_cast<unsigned long long>(
        env.metrics().total(telemetry::Component::kOsm, name));
  };
  std::printf("versioned ops: %llu (direct hits %llu, stalls %llu)\n",
              osm("versioned_ops"), osm("direct_hits"), osm("stalls"));
  return ok ? 0 : 1;
}
