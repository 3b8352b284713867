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
  /// `num_partitions` must be >= `num_servers` and <= dim. For the range
  /// schemes, `cuts` are the P+1 partition boundaries (ValidCuts must
  /// hold); empty means equal ranges, dim*p/P. kHash ignores them.
  Partitioner(PartitionScheme scheme, int64_t dim, int num_servers,
              int num_partitions, std::vector<int64_t> cuts = {});

  /// Convenience: `partitions_per_server` ranges per server, so
  /// NumPartitions(dim, num_servers, partitions_per_server) partitions.
  static Partitioner Create(PartitionScheme scheme, int64_t dim,
                            int num_servers, int partitions_per_server = 2,
                            std::vector<int64_t> cuts = {});

  /// The partition count Create builds: servers × partitions_per_server,
  /// clamped to [num_servers, dim].
  static int NumPartitions(int64_t dim, int num_servers,
                           int partitions_per_server);

  /// The range schemes' cut rule over the key space [0, held.size()),
  /// where held[k] says whether the training data holds key k: with H
  /// held keys, boundary p (0 < p < P) is the last key k for which
  /// (held keys in [0, k)) × P <= p × H, so each range gets an equal
  /// share of the held keys; boundaries then move just far enough that
  /// every partition keeps at least one key. With every key held, or
  /// none, the cuts are the equal ranges dim*p/P bit for bit. Returns
  /// the P+1 cut points; needs 1 <= num_partitions <= held.size().
  static std::vector<int64_t> HeldKeyCuts(const std::vector<bool>& held,
                                          int num_partitions);

  /// True iff `cuts` can lay out [0, dim) in `num_partitions` non-empty
  /// ranges: P+1 points, strictly increasing from 0 to dim.
  static bool ValidCuts(const std::vector<int64_t>& cuts, int64_t dim,
                        int num_partitions);

  PartitionScheme scheme() const { return scheme_; }
  int64_t dim() const { return dim_; }
  int num_servers() const { return num_servers_; }
  int num_partitions() const { return num_partitions_; }
  /// The range schemes' P+1 partition boundaries; empty under kHash.
  const std::vector<int64_t>& cuts() const { return boundaries_; }

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
