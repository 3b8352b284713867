#include "core/param_block.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/kernels.h"
#include "util/logging.h"

namespace hetps {
namespace {

/// First position p >= from with keys[p] >= key. Gallops forward (1, 2,
/// 4, ... slots) before a binary search, so a sorted run of n lookups in
/// s stored keys costs O(n log(s/n)): near-linear when the looked-up keys
/// are dense among the stored ones, logarithmic when they are sparse.
size_t SeekFrom(const std::vector<int64_t>& keys, size_t from,
                int64_t key) {
  size_t lo = from;
  size_t probe = from;
  size_t step = 1;
  while (probe < keys.size() && keys[probe] < key) {
    lo = probe + 1;
    probe = lo + step;
    step *= 2;
  }
  const size_t hi = std::min(probe, keys.size());
  return static_cast<size_t>(
      std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(lo),
                       keys.begin() + static_cast<std::ptrdiff_t>(hi), key) -
      keys.begin());
}

}  // namespace

ParamBlock::ParamBlock(size_t dim, Layout layout)
    : dim_(dim), layout_(layout) {
  if (layout_ == Layout::kDense) {
    dense_.assign(dim_, 0.0);
  }
}

void ParamBlock::MergeAdd(const int64_t* index, const double* value,
                          size_t n, double scale) {
  // Pass 1: add into the keys already stored and count the fresh ones.
  // Both key lists are sorted, so each search resumes where the last
  // one stopped.
  size_t fresh = 0;
  size_t pos = 0;
  for (size_t k = 0; k < n; ++k) {
    pos = SeekFrom(sp_index_, pos, index[k]);
    if (pos < sp_index_.size() && sp_index_[pos] == index[k]) {
      sp_value_[pos] += scale * value[k];
    } else {
      ++fresh;
    }
  }
  if (fresh == 0) return;
  // Pass 2: grow by the fresh count and merge from the back, so every
  // stored entry moves at most once. `old` counts stored entries not yet
  // placed; once `out` meets it, the rest are already in position.
  size_t old = sp_index_.size();
  size_t out = old + fresh;
  sp_index_.resize(out);
  sp_value_.resize(out);
  for (size_t k = n; k-- > 0 && out > old;) {
    while (old > 0 && sp_index_[old - 1] > index[k]) {
      --old;
      --out;
      sp_index_[out] = sp_index_[old];
      sp_value_[out] = sp_value_[old];
    }
    --out;
    if (old > 0 && sp_index_[old - 1] == index[k]) {
      --old;  // stored key, already added in pass 1
      sp_value_[out] = sp_value_[old];
    } else {
      // A fresh key starts from 0.0, exactly as a dense slot would.
      sp_value_[out] = 0.0 + scale * value[k];
    }
    sp_index_[out] = index[k];
  }
}

void ParamBlock::Add(const SparseVector& delta, double scale) {
  if (delta.empty()) return;
  // Indices are strictly increasing, so front/back bound them all — one
  // check instead of one per element in the scatter loop.
  HETPS_CHECK(delta.index(0) >= 0 &&
              delta.index(delta.nnz() - 1) <
                  static_cast<int64_t>(dim_))
      << "delta index out of block range " << dim_;
  if (layout_ == Layout::kDense) {
    kernels::ScatterAxpy(scale, delta.indices().data(),
                         delta.values().data(), delta.nnz(),
                         dense_.data());
    return;
  }
  MergeAdd(delta.indices().data(), delta.values().data(), delta.nnz(),
           scale);
}

void ParamBlock::Gather(const int64_t* indices, size_t n,
                        double* out) const {
  if (n == 0) return;
  HETPS_DCHECK(indices[0] >= 0 &&
               indices[n - 1] < static_cast<int64_t>(dim_))
      << "gather index out of block range";
  if (layout_ == Layout::kDense) {
    kernels::Gather(indices, n, dense_.data(), out);
    return;
  }
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    pos = SeekFrom(sp_index_, pos, indices[i]);
    out[i] = pos < sp_index_.size() && sp_index_[pos] == indices[i]
                 ? sp_value_[pos]
                 : 0.0;
  }
}

void ParamBlock::AddBlock(const ParamBlock& other, double scale) {
  HETPS_CHECK(other.dim_ == dim_) << "AddBlock dim mismatch";
  if (other.layout_ == Layout::kDense) {
    AddDense(other.dense_, scale);
    return;
  }
  if (layout_ == Layout::kSparse) {
    MergeAdd(other.sp_index_.data(), other.sp_value_.data(),
             other.sp_index_.size(), scale);
    return;
  }
  for (size_t k = 0; k < other.sp_index_.size(); ++k) {
    dense_[static_cast<size_t>(other.sp_index_[k])] +=
        scale * other.sp_value_[k];
  }
}

void ParamBlock::AddDense(const std::vector<double>& dense, double scale) {
  HETPS_CHECK(dense.size() == dim_) << "AddDense dim mismatch";
  if (layout_ == Layout::kDense) {
    kernels::Axpy(scale, dense.data(), dense_.data(), dim_);
    return;
  }
  // Only non-zero products touch the sparse layout; 1.0 * v is exact, so
  // merging them at scale 1 adds exactly scale * dense[i].
  std::vector<int64_t> index;
  std::vector<double> value;
  for (size_t i = 0; i < dim_; ++i) {
    const double v = scale * dense[i];
    if (v != 0.0) {
      index.push_back(static_cast<int64_t>(i));
      value.push_back(v);
    }
  }
  MergeAdd(index.data(), value.data(), index.size(), 1.0);
}

void ParamBlock::Scale(double scale) {
  if (layout_ == Layout::kDense) {
    kernels::Scale(scale, dense_.data(), dense_.size());
  } else {
    for (double& v : sp_value_) v *= scale;
  }
}

double ParamBlock::At(size_t i) const {
  HETPS_CHECK(i < dim_) << "At index out of range";
  if (layout_ == Layout::kDense) return dense_[i];
  const size_t pos = SeekFrom(sp_index_, 0, static_cast<int64_t>(i));
  return pos < sp_index_.size() &&
                 sp_index_[pos] == static_cast<int64_t>(i)
             ? sp_value_[pos]
             : 0.0;
}

void ParamBlock::Set(size_t i, double value) {
  HETPS_CHECK(i < dim_) << "Set index out of range";
  if (layout_ == Layout::kDense) {
    dense_[i] = value;
    return;
  }
  const int64_t key = static_cast<int64_t>(i);
  const size_t pos = SeekFrom(sp_index_, 0, key);
  const bool stored = pos < sp_index_.size() && sp_index_[pos] == key;
  const auto at = static_cast<std::ptrdiff_t>(pos);
  if (value == 0.0) {
    if (stored) {
      sp_index_.erase(sp_index_.begin() + at);
      sp_value_.erase(sp_value_.begin() + at);
    }
  } else if (stored) {
    sp_value_[pos] = value;
  } else {
    sp_index_.insert(sp_index_.begin() + at, key);
    sp_value_.insert(sp_value_.begin() + at, value);
  }
}

void ParamBlock::Clear() {
  if (layout_ == Layout::kDense) {
    dense_.assign(dim_, 0.0);
  } else {
    sp_index_.clear();
    sp_value_.clear();
  }
}

size_t ParamBlock::CountNonZero(double epsilon) const {
  const std::vector<double>& values =
      layout_ == Layout::kDense ? dense_ : sp_value_;
  size_t n = 0;
  for (double v : values) {
    if (std::fabs(v) > epsilon) ++n;
  }
  return n;
}

size_t ParamBlock::CountNonZeroAt(const int64_t* indices, size_t n) const {
  // Stored entries are already O(nnz); the key set holds them all.
  if (layout_ == Layout::kSparse) return CountNonZero();
  size_t nnz = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(dense_[static_cast<size_t>(indices[i])]) > 0.0) ++nnz;
  }
  return nnz;
}

bool ParamBlock::CompactLayout() {
  const size_t nnz = CountNonZero();
  const bool want_sparse =
      static_cast<double>(nnz) <
      kSparsityThreshold * static_cast<double>(dim_);
  if (want_sparse && layout_ == Layout::kDense) {
    ToSparseLayout();
    return true;
  }
  if (!want_sparse && layout_ == Layout::kSparse) {
    ToDenseLayout();
    return true;
  }
  return false;
}

void ParamBlock::ForceLayout(Layout layout) {
  if (layout == layout_) return;
  if (layout == Layout::kDense) {
    ToDenseLayout();
  } else {
    ToSparseLayout();
  }
}

size_t ParamBlock::DropSmallEntries(double epsilon) {
  size_t dropped = 0;
  if (layout_ == Layout::kDense) {
    for (double& v : dense_) {
      if (v != 0.0 && std::fabs(v) <= epsilon) {
        v = 0.0;
        ++dropped;
      }
    }
    return dropped;
  }
  size_t kept = 0;
  for (size_t k = 0; k < sp_index_.size(); ++k) {
    if (std::fabs(sp_value_[k]) <= epsilon) {
      ++dropped;
      continue;
    }
    sp_index_[kept] = sp_index_[k];
    sp_value_[kept] = sp_value_[k];
    ++kept;
  }
  sp_index_.resize(kept);
  sp_value_.resize(kept);
  return dropped;
}

std::vector<double> ParamBlock::ToDense() const {
  if (layout_ == Layout::kDense) return dense_;
  std::vector<double> out(dim_, 0.0);
  for (size_t k = 0; k < sp_index_.size(); ++k) {
    out[static_cast<size_t>(sp_index_[k])] = sp_value_[k];
  }
  return out;
}

void ParamBlock::AddTo(std::vector<double>* out, double scale) const {
  HETPS_CHECK(out->size() == dim_) << "AddTo dim mismatch";
  if (layout_ == Layout::kDense) {
    kernels::Axpy(scale, dense_.data(), out->data(), dim_);
  } else {
    for (size_t k = 0; k < sp_index_.size(); ++k) {
      (*out)[static_cast<size_t>(sp_index_[k])] += scale * sp_value_[k];
    }
  }
}

SparseVector ParamBlock::ToSparse(double epsilon) const {
  if (layout_ == Layout::kDense) {
    return SparseVector::FromDense(dense_, epsilon);
  }
  std::vector<int64_t> index;
  std::vector<double> value;
  for (size_t k = 0; k < sp_index_.size(); ++k) {
    if (std::fabs(sp_value_[k]) > epsilon) {
      index.push_back(sp_index_[k]);
      value.push_back(sp_value_[k]);
    }
  }
  return SparseVector(std::move(index), std::move(value));
}

double ParamBlock::SquaredNorm() const {
  if (layout_ == Layout::kDense) {
    return kernels::SquaredNorm(dense_.data(), dense_.size());
  }
  double acc = 0.0;
  for (double v : sp_value_) acc += v * v;
  return acc;
}

size_t ParamBlock::MemoryBytes() const {
  if (layout_ == Layout::kDense) {
    return dense_.size() * sizeof(double);
  }
  return sp_index_.size() * (sizeof(int64_t) + sizeof(double));
}

std::string ParamBlock::DebugString() const {
  std::ostringstream os;
  os << "ParamBlock(dim=" << dim_ << ", layout="
     << (is_sparse() ? "sparse" : "dense") << ", nnz=" << CountNonZero()
     << ")";
  return os.str();
}

void ParamBlock::ToDenseLayout() {
  dense_ = ToDense();
  sp_index_.clear();
  sp_index_.shrink_to_fit();
  sp_value_.clear();
  sp_value_.shrink_to_fit();
  layout_ = Layout::kDense;
}

void ParamBlock::ToSparseLayout() {
  sp_index_.clear();
  sp_value_.clear();
  if (layout_ == Layout::kDense) {
    for (size_t i = 0; i < dim_; ++i) {
      if (dense_[i] != 0.0) {
        sp_index_.push_back(static_cast<int64_t>(i));
        sp_value_.push_back(dense_[i]);
      }
    }
  }
  dense_.clear();
  dense_.shrink_to_fit();
  layout_ = Layout::kSparse;
}

}  // namespace hetps
