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

template <bool kRefresh, typename Global>
void ReplicaCache::ApplyPiece(const PartitionPull& piece, Global global,
                              double* replica) {
  const size_t p = static_cast<size_t>(piece.partition);
  const int64_t dim = layout_.PartitionDim(piece.partition);
  std::vector<int64_t>& keys = keys_[p];
  const std::vector<int64_t>& idx = piece.sparse.indices();
  const std::vector<double>& val = piece.sparse.values();
  double* const values = values_.data();
  const auto set = [&](int64_t local, double v) {
    const size_t g = global(local);
    values[g] = v;
    if constexpr (kRefresh) replica[g] = v;
  };
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
        set(local, piece.dense[static_cast<size_t>(local)]);
      }
      keys.clear();
      fully_held_[p] = 1;
      break;
    case PartitionPull::Encoding::kSparse: {
      if (fully_held_[p] != 0) {
        for (int64_t local = 0; local < dim; ++local) set(local, 0.0);
        fully_held_[p] = 0;
      }
      // One walk over both sorted lists: held keys that left the ship
      // are cleared, shipped keys are written once.
      size_t i = 0;
      for (size_t j = 0; j < idx.size(); ++j) {
        for (; i < keys.size() && keys[i] < idx[j]; ++i) set(keys[i], 0.0);
        if (i < keys.size() && keys[i] == idx[j]) ++i;
        set(idx[j], val[j]);
      }
      for (; i < keys.size(); ++i) set(keys[i], 0.0);
      keys.assign(idx.begin(), idx.end());
      break;
    }
    case PartitionPull::Encoding::kSparseDelta:
      for (size_t j = 0; j < idx.size(); ++j) {
        const size_t g = global(idx[j]);
        values[g] += val[j];
        if constexpr (kRefresh) replica[g] = values[g];
      }
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

bool ReplicaCache::Apply(const std::vector<PartitionPull>& pieces,
                         std::vector<double>* replica) {
  if (replica == nullptr) return ApplyAll<false>(pieces, nullptr);
  HETPS_CHECK(replica->size() == values_.size())
      << "replica dimension mismatch";
  return ApplyAll<true>(pieces, replica->data());
}

template <bool kRefresh>
bool ReplicaCache::ApplyAll(const std::vector<PartitionPull>& pieces,
                            double* replica) {
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
      ApplyPiece<kRefresh>(
          piece,
          [base](int64_t local) { return static_cast<size_t>(base + local); },
          replica);
    } else {
      ApplyPiece<kRefresh>(
          piece,
          [this, p](int64_t local) {
            return static_cast<size_t>(layout_.GlobalIndex(p, local));
          },
          replica);
    }
    tags_[slot] = piece.tag;
  }
  apply_us_->RecordInt(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  return all_applied;
}

void ReplicaCache::ResetKeys(const std::vector<int64_t>& keys,
                             std::vector<double>* replica) const {
  HETPS_CHECK(replica->size() == values_.size())
      << "replica dimension mismatch";
  const uint64_t dim = values_.size();
  double* const out = replica->data();
  for (const int64_t key : keys) {
    HETPS_CHECK(static_cast<uint64_t>(key) < dim)
        << "written key " << key << " out of range";
    out[key] = values_[static_cast<size_t>(key)];
  }
}

}  // namespace hetps
