#ifndef HETPS_PS_PARTITION_H_
#define HETPS_PS_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "math/sparse_vector.h"

namespace hetps {

/// Parameter-partitioning strategies studied in §6 "Parameter Partition".
enum class PartitionScheme {
  /// Contiguous key ranges assigned to servers in order. Fast range
  /// queries, but popular low-index keys can overload one server.
  kRange,
  /// Cyclic (key mod partitions) striping — balanced point queries, but a
  /// range query touches every partition.
  kHash,
  /// The paper's hybrid: contiguous ranges, each range assigned to a
  /// server by hashing the range id — range locality plus balance.
  kRangeHash,
};

const char* PartitionSchemeName(PartitionScheme scheme);

/// Maps the global key space [0, dim) onto partitions, and partitions onto
/// servers. Partitions are the unit of storage and synchronization; a
/// server may own several.
class Partitioner {
 public:
  /// `num_partitions` must be >= `num_servers` and <= dim.
  Partitioner(PartitionScheme scheme, int64_t dim, int num_servers,
              int num_partitions);

  /// Convenience: `partitions_per_server` ranges per server.
  static Partitioner Create(PartitionScheme scheme, int64_t dim,
                            int num_servers, int partitions_per_server = 2);

  PartitionScheme scheme() const { return scheme_; }
  int64_t dim() const { return dim_; }
  int num_servers() const { return num_servers_; }
  int num_partitions() const { return num_partitions_; }

  /// Partition owning global key `key`.
  int PartitionOf(int64_t key) const;

  /// Server hosting partition `p`.
  int ServerOf(int p) const;

  /// Local index of `key` inside its partition.
  int64_t LocalIndex(int64_t key) const;

  /// Global key for a partition-local index.
  int64_t GlobalIndex(int p, int64_t local) const;

  /// True iff partition `p` maps local indices onto a contiguous global
  /// key range; writes that range's first key to `*begin` (range and
  /// range-hash schemes). Hash striding is non-contiguous, so replica
  /// assembly must fall back to per-key GlobalIndex there. Enables bulk
  /// memcpy/kernel application of partition-sized pieces.
  bool ContiguousKeyRange(int p, int64_t* begin) const;

  /// Number of keys stored by partition `p`.
  int64_t PartitionDim(int p) const;

  /// Splits a global sparse vector into per-partition pieces with local
  /// indices; result[p] may be empty. Aborts on a key outside [0, dim).
  std::vector<SparseVector> SplitByPartition(const SparseVector& v) const;

  /// Number of partitions a contiguous key interval [begin, end) touches —
  /// the range-query cost the hybrid scheme optimizes.
  int PartitionsTouched(int64_t begin, int64_t end) const;

  /// Total keys assigned to each server (load-balance metric).
  std::vector<int64_t> ServerLoads() const;

  std::string DebugString() const;

 private:
  PartitionScheme scheme_;
  int64_t dim_;
  int num_servers_;
  int num_partitions_;
  // For range-based schemes: partition p covers
  // [boundaries_[p], boundaries_[p+1]).
  std::vector<int64_t> boundaries_;
  // Partition -> server assignment.
  std::vector<int> server_of_;
};

}  // namespace hetps

#endif  // HETPS_PS_PARTITION_H_
