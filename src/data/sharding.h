#ifndef HETPS_DATA_SHARDING_H_
#define HETPS_DATA_SHARDING_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"

namespace hetps {

/// A worker's view of its shard: indices into the shared Dataset.
/// The dataset itself is shared read-only; shards never copy examples.
struct DataShard {
  std::vector<size_t> example_indices;

  size_t size() const { return example_indices.size(); }
};

/// How the data splitter distributes examples over workers.
enum class ShardingPolicy {
  /// Contiguous blocks of ~N/M examples (the paper's sharding approach).
  kContiguous,
  /// Round-robin striping — balances any residual ordering effects.
  kRoundRobin,
};

/// Partitions the [0, dataset_size) index range into `num_workers` shards.
/// Mirrors the prototype's data-splitter module (Appendix D): partitioning
/// happens once before training; randomization is the dataset's one-time
/// shuffle during loading.
std::vector<DataShard> SplitData(size_t dataset_size, size_t num_workers,
                                 ShardingPolicy policy);

/// Moves up to `count` examples from `from`'s tail to the back of `to` —
/// how the ShardPlane applies a move policy's decisions. Returns the
/// number actually moved (clamped to `from`'s size).
size_t ReassignTail(DataShard* from, DataShard* to, size_t count);

/// Empties `from` into the `to` shards, splitting as evenly as possible
/// (earlier shards get the remainder). The failover primitive: the
/// ShardPlane spreads an evicted worker's entire shard across the
/// receivers so every example keeps contributing to the objective.
/// Returns the number of examples moved (0 when `to` is empty — the
/// shard is then simply lost).
size_t ReassignAcross(DataShard* from, const std::vector<DataShard*>& to);

}  // namespace hetps

#endif  // HETPS_DATA_SHARDING_H_
