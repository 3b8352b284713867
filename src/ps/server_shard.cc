#include "ps/server_shard.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hetps {
namespace {

constexpr int64_t kSparseEntryBytes = sizeof(int64_t) + sizeof(double);

/// Deltas the log keeps at most (a pull further behind ships whole).
constexpr size_t kDeltaLogDepth = 64;

/// Bytes of `n` keys shipped dense, or of `nnz` entries shipped sparse.
int64_t DenseBytes(size_t n) {
  return static_cast<int64_t>(n) * static_cast<int64_t>(sizeof(double));
}
int64_t SparseBytes(size_t nnz) {
  return static_cast<int64_t>(nnz) * kSparseEntryBytes;
}

}  // namespace

ServerShard::ServerShard(int shard_id, size_t dim,
                         const ConsolidationRule& rule_proto,
                         int num_workers)
    : shard_id_(shard_id),
      param_(dim),
      rule_(rule_proto.Clone()),
      in_support_(dim, false) {
  rule_->Reset(dim, num_workers);
  track_deltas_ = rule_->PushTouchesOnlyUpdateSupport();
}

void ServerShard::Push(int worker, int clock,
                       const SparseVector& local_update) {
  if (track_deltas_ && !local_update.empty()) {
    // The rule promises to touch only the update's support, so the exact
    // applied delta is the before/after difference at those indices —
    // two bulk gathers over the support on either side of the push
    // (vector kernels on dense blocks; the scratch buffer is reused
    // across pushes so the steady state allocates nothing).
    const size_t nnz = local_update.nnz();
    const int64_t* const idx = local_update.indices().data();
    delta_scratch_.resize(nnz);
    param_.Gather(idx, nnz, delta_scratch_.data());
    rule_->OnPush(worker, clock, local_update, &param_);
    std::vector<double> after(nnz);
    param_.Gather(idx, nnz, after.data());
    for (size_t i = 0; i < nnz; ++i) after[i] -= delta_scratch_[i];
    SparseVector delta(std::vector<int64_t>(idx, idx + nnz),
                       std::move(after));
    ++push_count_;
    ++data_version_;
    AppendDelta(std::move(delta));
    GrowSupport(local_update);
    return;
  }
  rule_->OnPush(worker, clock, local_update, &param_);
  GrowSupport(local_update);
  ++push_count_;
  ++data_version_;
  if (track_deltas_) {
    // Empty update under a support-local rule: no entry changed; an
    // explicit empty log record keeps DeltaSince's version chain
    // contiguous without paying for storage.
    AppendDelta(SparseVector());
  }
}

void ServerShard::GrowSupport(const SparseVector& update) {
  // Called after OnPush, whose ParamBlock::Add range-checked the keys.
  const size_t old = support_.size();
  for (int64_t key : update.indices()) {
    const size_t k = static_cast<size_t>(key);
    if (in_support_[k]) continue;
    in_support_[k] = true;
    support_.push_back(key);
  }
  // The fresh keys arrive sorted (update indices are), so one merge of
  // the two sorted runs restores the order.
  if (support_.size() > old) {
    std::inplace_merge(support_.begin(),
                       support_.begin() + static_cast<std::ptrdiff_t>(old),
                       support_.end());
  }
}

Status ServerShard::Restore(const SparseVector& param, bool sparse_layout,
                            int64_t push_count, std::istream& rule_state) {
  param_.Add(param);
  if (sparse_layout) param_.ForceLayout(ParamBlock::Layout::kSparse);
  push_count_ = push_count;
  data_version_ = push_count;
  HETPS_RETURN_NOT_OK(rule_->LoadState(rule_state));
  std::vector<int64_t> keys = param.indices();
  rule_->AppendStateKeys(&keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (int64_t key : keys) in_support_[static_cast<size_t>(key)] = true;
  support_ = std::move(keys);
  return Status::OK();
}

void ServerShard::AppendDelta(SparseVector delta) {
  delta_log_bytes_ += delta.MemoryBytes();
  delta_log_.push_back(LoggedDelta{data_version_, std::move(delta)});
  // Bound by depth, and by total bytes: once the log outweighs two dense
  // ships of the block, merging it can no longer beat a whole-block
  // transfer, so keeping more history is pure overhead.
  const size_t byte_cap = 2 * param_.dim() * sizeof(double) + 64;
  while (delta_log_.size() > kDeltaLogDepth ||
         delta_log_bytes_ > byte_cap) {
    delta_log_bytes_ -= delta_log_.front().delta.MemoryBytes();
    delta_log_.pop_front();
    if (delta_log_.empty()) break;
  }
}

bool ServerShard::DeltaSince(int64_t from_version,
                             SparseVector* out) const {
  HETPS_CHECK(out != nullptr) << "null delta output";
  if (!track_deltas_) return false;
  if (from_version > data_version_) return false;  // alien tag
  if (from_version == data_version_) {
    *out = SparseVector();
    return true;
  }
  // The log holds consecutive versions ending at data_version_; it can
  // cover (from_version, data_version_] iff its oldest entry is
  // from_version + 1.
  if (delta_log_.empty() || delta_log_.front().version > from_version + 1) {
    return false;
  }
  SparseVector merged;
  for (const LoggedDelta& d : delta_log_) {
    if (d.version <= from_version) continue;
    merged = merged.empty() ? d.delta : SparseVector::Add(merged, d.delta);
  }
  *out = std::move(merged);
  return true;
}

int64_t ServerShard::WirePayloadBytes() const {
  const size_t nnz = rule_->CountNonZeroMaterializedAt(
      param_, support_.data(), support_.size());
  return std::min(DenseBytes(param_.dim()), SparseBytes(nnz));
}

std::vector<double> ServerShard::Pull(int worker, int cmax) {
  rule_->OnPull(worker, cmax);
  return rule_->Materialize(param_);
}

std::vector<double> ServerShard::PullAtVersion(int worker, int cmax,
                                               int64_t version) {
  rule_->OnPull(worker, cmax);
  return rule_->MaterializeAtVersion(param_, version);
}

bool ServerShard::PullBlock(int worker, int cmax, int64_t version,
                            std::vector<double>* dense,
                            SparseVector* sparse) {
  rule_->OnPull(worker, cmax);
  const bool live = version < 0 || !rule_->SupportsVersionedSnapshots();
  // The read's nonzeros lie in the support, so a support under half the
  // block makes the sparse ship certain: gather there and keep the
  // nonzeros, the same entries SparseVector::FromDense would keep.
  if (live && SparseBytes(support_.size()) < DenseBytes(param_.dim())) {
    const size_t n = support_.size();
    std::vector<int64_t> index(n);
    std::vector<double> value(n);
    rule_->GatherMaterialized(param_, support_.data(), n, value.data());
    size_t kept = 0;
    for (size_t k = 0; k < n; ++k) {
      if (std::fabs(value[k]) > 0.0) {
        index[kept] = support_[k];
        value[kept] = value[k];
        ++kept;
      }
    }
    index.resize(kept);
    value.resize(kept);
    *sparse = SparseVector(std::move(index), std::move(value));
    return true;
  }
  std::vector<double> block = live
                                  ? rule_->Materialize(param_)
                                  : rule_->MaterializeAtVersion(param_,
                                                                version);
  size_t nnz = 0;
  for (double v : block) {
    if (v != 0.0) ++nnz;
  }
  if (SparseBytes(nnz) < DenseBytes(block.size())) {
    *sparse = SparseVector::FromDense(block);
    return true;
  }
  *dense = std::move(block);
  return false;
}

std::vector<double> ServerShard::Peek() const {
  return rule_->Materialize(param_);
}

}  // namespace hetps
