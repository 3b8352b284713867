#ifndef HETPS_TESTS_TEST_PRINTERS_H_
#define HETPS_TESTS_TEST_PRINTERS_H_

// gtest printers for the enums that parameterize tests. Without them gtest
// prints an enum class as its raw bytes ("4-byte object <00-00 00-00>"),
// and ctest's test names carry those bytes.

#include <ostream>

#include "core/sync_policy.h"
#include "data/sharding.h"
#include "ps/partition.h"

namespace hetps {

inline void PrintTo(Protocol protocol, std::ostream* os) {
  *os << ProtocolName(protocol);
}

inline void PrintTo(PartitionScheme scheme, std::ostream* os) {
  *os << PartitionSchemeName(scheme);
}

inline void PrintTo(ShardingPolicy policy, std::ostream* os) {
  *os << (policy == ShardingPolicy::kContiguous ? "contiguous"
                                                : "round-robin");
}

}  // namespace hetps

#endif  // HETPS_TESTS_TEST_PRINTERS_H_
