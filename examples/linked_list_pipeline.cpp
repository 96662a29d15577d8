// The paper's Figure 1 scenario: parallelizing *sequential* insertions into
// a sorted linked list with the library API (versioned<node_t*>), using the
// Sec. IV-D pipelining protocol:
//
//   * each insertion is a task; tasks enter the list in program order
//     through the root ticket (LOCK-LOAD-VERSION),
//   * traversal locks hand-over-hand with LOCK-LOAD-LATEST, so task t+1
//     follows task t down the list one node behind,
//   * pointer updates rename (STORE-VERSION), never overwrite.
//
// The output is provably identical to the sequential program — verified at
// the end — while the insertions overlap across cores.
#include <cstdio>
#include <memory>
#include <vector>

#include "runtime/pipeline.hpp"
#include "runtime/task.hpp"

using namespace osim;

namespace {

struct node_t {
  node_t(Env& env, long v) : value(v), next(env) {}
  const long value;
  versioned<node_t*> next;
};

std::vector<std::unique_ptr<node_t>> g_nodes;

node_t* make_node(Env& env, long v) {
  g_nodes.push_back(std::make_unique<node_t>(env, v));
  return g_nodes.back().get();
}

/// Insert `n` in sorted position. `prev_ver` is the root version published
/// by the previous insertion (every task mutates here, so prev = tid - 1).
void insert_sorted(TicketRoot<node_t*>& root, TaskId tid, node_t* n) {
  node_t* cur = root.enter_mut(tid, tid - 1);
  if (cur == nullptr || cur->value >= n->value) {
    n->next.store_ver(cur, tid);
    root.leave_mut(tid, tid - 1, n);  // new first node
    return;
  }
  HandOverHand<node_t*> hoh(tid);
  node_t* nxt = hoh.advance(cur->next);
  root.leave_mut(tid, tid - 1);  // admit the next task
  while (nxt != nullptr && nxt->value < n->value) {
    nxt = hoh.advance(nxt->next);
  }
  n->next.store_ver(nxt, tid);
  hoh.modify_and_release(n);
}

}  // namespace

int main() {
  constexpr int kInsertions = 64;
  constexpr int kCores = 8;

  MachineConfig config;
  config.num_cores = kCores;
  Env env(config);

  TicketRoot<node_t*> root(env);
  TaskRuntime rt(env, kCores);
  rt.set_setup([&] { root.init(nullptr, /*setup_version=*/1); });

  // The "outer loop" of Figure 1: create one task per insertion, ids in
  // program order. Values interleave so inserts hit the whole list.
  for (TaskId tid = 2; tid < 2 + kInsertions; ++tid) {
    const long value = static_cast<long>((tid * 37) % kInsertions);
    rt.create_task(tid, [&env, &root, value](TaskId t) {
      insert_sorted(root, t, make_node(env, value));
    });
  }

  const Cycles cycles = rt.run();

  // Verify: walk the final snapshot (LOAD-LATEST at a cap beyond all tasks)
  // and check sortedness and length — identical to sequential execution.
  int count = 0;
  bool sorted = true;
  env.spawn(0, [&] {
    long last = -1;
    const Ver now = 2 + kInsertions;
    for (node_t* p = root.slot().load_latest(now); p != nullptr;
         p = p->next.load_latest(now)) {
      if (p->value < last) sorted = false;
      last = p->value;
      ++count;
    }
  });
  env.run();

  std::printf("inserted %d nodes on %d cores in %llu cycles\n", count, kCores,
              static_cast<unsigned long long>(cycles));
  std::printf("list is %s\n", sorted && count == kInsertions
                                  ? "sorted and complete: identical to the "
                                    "sequential program"
                                  : "WRONG");
  return sorted && count == kInsertions ? 0 : 1;
}
