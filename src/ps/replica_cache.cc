#include "ps/replica_cache.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "util/logging.h"

namespace hetps {

ReplicaCache::ReplicaCache(const Partitioner& layout,
                           MetricsRegistry* metrics)
    : layout_(layout),
      values_(static_cast<size_t>(layout.dim()), 0.0),
      tags_(static_cast<size_t>(layout.num_partitions()), kNoCachedTag),
      keys_(static_cast<size_t>(layout.num_partitions())),
      fully_held_(static_cast<size_t>(layout.num_partitions()), 0),
      apply_us_(metrics->histogram("client.cache_apply_us")) {}

template <typename Slot>
void ReplicaCache::ApplyPiece(const PartitionPull& piece, Slot slot) {
  const size_t p = static_cast<size_t>(piece.partition);
  const int64_t dim = layout_.PartitionDim(piece.partition);
  std::vector<int64_t>& keys = keys_[p];
  const std::vector<int64_t>& idx = piece.sparse.indices();
  const std::vector<double>& val = piece.sparse.values();
  // O(1) bounds guards (indices are sorted), so an unchecked piece can
  // never write outside its partition.
  HETPS_CHECK(idx.empty() || (idx.front() >= 0 && idx.back() < dim))
      << "piece index out of range";
  switch (piece.encoding) {
    case PartitionPull::Encoding::kUnchanged:
      break;
    case PartitionPull::Encoding::kDense:
      HETPS_CHECK(static_cast<int64_t>(piece.dense.size()) == dim)
          << "dense piece has wrong length";
      for (int64_t local = 0; local < dim; ++local) {
        slot(local) = piece.dense[static_cast<size_t>(local)];
      }
      keys.clear();
      fully_held_[p] = 1;
      break;
    case PartitionPull::Encoding::kSparse: {
      if (fully_held_[p] != 0) {
        for (int64_t local = 0; local < dim; ++local) slot(local) = 0.0;
        fully_held_[p] = 0;
      }
      // One walk over both sorted lists: held keys that left the ship
      // are cleared, shipped keys are written once.
      size_t i = 0;
      for (size_t j = 0; j < idx.size(); ++j) {
        for (; i < keys.size() && keys[i] < idx[j]; ++i) slot(keys[i]) = 0.0;
        if (i < keys.size() && keys[i] == idx[j]) ++i;
        slot(idx[j]) = val[j];
      }
      for (; i < keys.size(); ++i) slot(keys[i]) = 0.0;
      keys.assign(idx.begin(), idx.end());
      break;
    }
    case PartitionPull::Encoding::kSparseDelta:
      for (size_t j = 0; j < idx.size(); ++j) slot(idx[j]) += val[j];
      if (fully_held_[p] == 0 &&
          !std::includes(keys.begin(), keys.end(), idx.begin(), idx.end())) {
        merge_scratch_.clear();
        std::set_union(keys.begin(), keys.end(), idx.begin(), idx.end(),
                       std::back_inserter(merge_scratch_));
        keys.swap(merge_scratch_);
      }
      break;
  }
}

bool ReplicaCache::Apply(const std::vector<PartitionPull>& pieces) {
  const auto start = std::chrono::steady_clock::now();
  bool all_applied = true;
  for (const PartitionPull& piece : pieces) {
    const int p = piece.partition;
    HETPS_CHECK(p >= 0 && p < layout_.num_partitions())
        << "piece partition out of range";
    const size_t slot = static_cast<size_t>(p);
    if (piece.encoding == PartitionPull::Encoding::kSparseDelta &&
        piece.base_tag != tags_[slot]) {
      tags_[slot] = kNoCachedTag;
      all_applied = false;
      continue;
    }
    // Range-based schemes map a partition onto one contiguous key
    // interval, so entries are addressed at its base offset; hash
    // striding falls back to per-key GlobalIndex.
    int64_t base = 0;
    if (layout_.ContiguousKeyRange(p, &base)) {
      double* block = values_.data() + base;
      ApplyPiece(piece, [block](int64_t local) -> double& {
        return block[local];
      });
    } else {
      ApplyPiece(piece, [this, p](int64_t local) -> double& {
        return values_[static_cast<size_t>(layout_.GlobalIndex(p, local))];
      });
    }
    tags_[slot] = piece.tag;
  }
  apply_us_->RecordInt(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  return all_applied;
}

}  // namespace hetps
