// The versioned instruction set surface (paper Sec. II-A). Issued ops are
// traced as telemetry::EventType::kIsaOp events (telemetry/trace.hpp).
#pragma once

#include <cassert>
#include <cstdint>

namespace osim {

/// The eight instructions the architecture adds.
enum class OpCode : std::uint8_t {
  kLoadVersion,
  kLoadLatest,
  kStoreVersion,
  kLockLoadVersion,
  kLockLoadLatest,
  kUnlockVersion,
  kTaskBegin,
  kTaskEnd,
};

inline constexpr int kNumOpCodes = 8;

inline const char* to_string(OpCode op) {
  switch (op) {
    case OpCode::kLoadVersion:
      return "LOAD-VERSION";
    case OpCode::kLoadLatest:
      return "LOAD-LATEST";
    case OpCode::kStoreVersion:
      return "STORE-VERSION";
    case OpCode::kLockLoadVersion:
      return "LOCK-LOAD-VERSION";
    case OpCode::kLockLoadLatest:
      return "LOCK-LOAD-LATEST";
    case OpCode::kUnlockVersion:
      return "UNLOCK-VERSION";
    case OpCode::kTaskBegin:
      return "TASK-BEGIN";
    case OpCode::kTaskEnd:
      return "TASK-END";
  }
  assert(!"to_string: unknown OpCode");
  return "?";
}

}  // namespace osim
