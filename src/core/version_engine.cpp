#include "core/version_engine.hpp"

namespace osim {

namespace {

/// splitmix64: cheap, well-mixed fold for observable checksums.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ull + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

std::uint64_t VersionEngine::Results::checksum() const {
  std::uint64_t h = 0;
  for (std::uint64_t r : reads) h = mix(h, r);
  for (Ver v : found) h = mix(h, v);
  for (const Fault& f : faults) {
    h = mix(h, f.index);
    h = mix(h, static_cast<std::uint64_t>(f.kind));
  }
  return mix(h, executed);
}

void VersionEngine::execute(std::span<const Op> ops, Results& out) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& o = ops[i];
    try {
      switch (o.op) {
        case OpCode::kLoadVersion:
          out.reads.push_back(load_version(o.addr, o.version));
          break;
        case OpCode::kLoadLatest: {
          Ver got = 0;
          out.reads.push_back(load_latest(o.addr, o.cap, &got));
          out.found.push_back(got);
          break;
        }
        case OpCode::kStoreVersion:
          store_version(o.addr, o.version, o.data);
          break;
        case OpCode::kLockLoadVersion:
          out.reads.push_back(lock_load_version(o.addr, o.version, o.task));
          break;
        case OpCode::kLockLoadLatest: {
          Ver got = 0;
          out.reads.push_back(lock_load_latest(o.addr, o.cap, o.task, &got));
          out.found.push_back(got);
          break;
        }
        case OpCode::kUnlockVersion:
          unlock_version(o.addr, o.version, o.task, o.rename_to);
          break;
        case OpCode::kTaskBegin:
          task_begin(o.task);
          break;
        case OpCode::kTaskEnd:
          task_end(o.task);
          break;
      }
      ++out.executed;
    } catch (const OFault& f) {
      out.faults.push_back({i, f.kind(), f.what()});
    }
  }
}

}  // namespace osim
