#ifndef HETPS_PS_REPLICA_CACHE_H_
#define HETPS_PS_REPLICA_CACHE_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "ps/partition.h"

namespace hetps {

/// A worker's pristine copy of the server state its version-aware pulls
/// received: the dense model, one content tag per partition, and the
/// application of PartitionPull pieces onto both. PsClient (over either
/// channel) and the simulator's worker each keep one. The copy must stay
/// pristine because the trainer mutates the replica it is handed, so
/// deltas can never be applied to the trainer's vector: an in-place
/// refresh writes the cache's resulting values there instead.
///
/// Clear rule: per partition the cache keeps the sorted local keys it may
/// hold nonzero, or a "fully held" mark, so a whole-block ship costs what
/// it carries rather than the partition's dimension. A sparse ship walks
/// the old and new key lists once (keys that left the ship are cleared,
/// shipped keys written once) and its keys become the list; a dense ship
/// marks the partition fully held; a delta merges its keys into the list.
/// Every nonzero arrives by one of those three, so the list always covers
/// the nonzeros (DESIGN.md §7 walks through mismatches and restores).
///
/// Pieces must already be checked against the layout: the RPC client
/// validates the untrusted frame before anything reaches the cache.
/// Not thread-safe; one owner at a time (a client's owner thread or its
/// prefetch task).
class ReplicaCache {
 public:
  /// Copies `layout`. `metrics` receives client.cache_apply_us, one sample
  /// per applied pull.
  ReplicaCache(const Partitioner& layout, MetricsRegistry* metrics);

  const Partitioner& layout() const { return layout_; }
  const std::vector<double>& values() const { return values_; }
  /// Content tag held per partition (kNoCachedTag = nothing held yet);
  /// the next pull request carries these.
  const std::vector<int64_t>& tags() const { return tags_; }

  /// Applies one pull's pieces and stores their tags. A kSparseDelta
  /// whose base_tag is not the held tag is skipped and its partition's
  /// tag reset to kNoCachedTag, so the next pull ships it whole; the
  /// other pieces still apply. Returns false iff some delta was skipped.
  ///
  /// With a `replica` (dim entries, checked), every entry the apply
  /// writes into the cache is written into the replica too, in the same
  /// pass: a replica that equalled the cache outside some keys still does
  /// afterwards. Without one the apply touches the cache alone.
  bool Apply(const std::vector<PartitionPull>& pieces,
             std::vector<double>* replica = nullptr);

  /// Copies the cache's value at each of `keys` into `replica` (dim
  /// entries); repeated keys are fine. Aborts on a key outside [0, dim).
  void ResetKeys(const std::vector<int64_t>& keys,
                 std::vector<double>* replica) const;

 private:
  template <bool kRefresh>
  bool ApplyAll(const std::vector<PartitionPull>& pieces, double* replica);
  // `global(local)` is the model index of a partition-local key; with
  // kRefresh every cache write is repeated into `replica`.
  template <bool kRefresh, typename Global>
  void ApplyPiece(const PartitionPull& piece, Global global, double* replica);

  Partitioner layout_;
  std::vector<double> values_;
  std::vector<int64_t> tags_;
  // Per partition: sorted local keys that may be nonzero, unless
  // fully_held_[p] (after a dense ship every key may be).
  std::vector<std::vector<int64_t>> keys_;
  std::vector<uint8_t> fully_held_;
  std::vector<int64_t> merge_scratch_;
  HistogramMetric* apply_us_;
};

}  // namespace hetps

#endif  // HETPS_PS_REPLICA_CACHE_H_
