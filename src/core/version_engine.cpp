#include "core/version_engine.hpp"

#include <string>

#include "core/address_map.hpp"

namespace osim {

void fault_unversioned(OAddr a) {
  if (a < kOStructBase || (a - kOStructBase) % 8 != 0) {
    throw OFault(FaultKind::kVersionedAccessToUnversionedPage,
                 "address " + std::to_string(a) +
                     " is outside the versioned region");
  }
  throw OFault(FaultKind::kVersionedAccessToUnversionedPage,
               "slot " + std::to_string((a - kOStructBase) / 8) +
                   " is not allocated");
}

}  // namespace osim
