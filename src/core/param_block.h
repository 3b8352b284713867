#ifndef HETPS_CORE_PARAM_BLOCK_H_
#define HETPS_CORE_PARAM_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/sparse_vector.h"

namespace hetps {

/// Mutable parameter storage for one partition's key range, with the
/// adaptive dense/sparse layout of §6 "Data Storage" / §5.3: a block whose
/// non-zero fraction drops below `kSparsityThreshold` can be stored in
/// sparse format to save memory (important for the multi-version global
/// updates of DynSGD, measured in Figure 13).
///
/// The sparse layout is the paper's "ordered indexes and the corresponding
/// values": two flat arrays, keys strictly increasing, 16 B per entry.
/// Sparse updates merge-add into it (one add per touched key, new keys
/// merged in from the back), so every key sees exactly the floating-point
/// operations a dense block would apply to it. An entry whose sum cancels
/// to 0.0 stays stored; only Set(i, 0) and DropSmallEntries remove
/// entries.
///
/// Indices are block-local, i.e. in [0, dim).
class ParamBlock {
 public:
  enum class Layout { kDense, kSparse };

  /// Fraction of non-zero entries below which the sparse layout is cheaper.
  static constexpr double kSparsityThreshold = 0.5;

  explicit ParamBlock(size_t dim, Layout layout = Layout::kDense);

  size_t dim() const { return dim_; }
  Layout layout() const { return layout_; }
  bool is_sparse() const { return layout_ == Layout::kSparse; }

  /// this += scale * delta. Sparse-index entries must be < dim.
  void Add(const SparseVector& delta, double scale = 1.0);

  /// this += scale * other (dims must match).
  void AddBlock(const ParamBlock& other, double scale = 1.0);

  /// this += scale * dense (size must equal dim).
  void AddDense(const std::vector<double>& dense, double scale = 1.0);

  /// this *= scale.
  void Scale(double scale);

  /// Point read; O(1) dense, O(log nnz) sparse.
  double At(size_t i) const;

  /// out[i] = this[indices[i]] — bulk point read (delta-log snapshots).
  /// `indices` must be sorted ascending and in [0, dim).
  void Gather(const int64_t* indices, size_t n, double* out) const;

  /// Point write.
  void Set(size_t i, double value);

  /// All entries to zero (keeps layout, frees sparse storage).
  void Clear();

  /// Number of stored non-zero entries (exact for sparse, counted for
  /// dense).
  size_t CountNonZero(double epsilon = 0.0) const;

  /// Number of non-zero entries among this[indices[0..n)] — CountNonZero
  /// restricted to a key set known to hold every non-zero. `indices` must
  /// be sorted ascending and in [0, dim).
  size_t CountNonZeroAt(const int64_t* indices, size_t n) const;

  /// Switches to whichever layout the 50% rule prefers for the current
  /// contents. Returns true if the layout changed.
  bool CompactLayout();

  /// Zeroes entries with |x| <= epsilon (sparse layout also frees them) —
  /// the storage side of §5.3's small-update filtering. Returns the number
  /// of entries dropped.
  size_t DropSmallEntries(double epsilon);

  /// Converts to the requested layout regardless of the 50% rule
  /// (checkpoint restore must reproduce the saved layout exactly).
  void ForceLayout(Layout layout);

  /// Dense copy of the block.
  std::vector<double> ToDense() const;

  /// out[i] += scale * this[i] for the whole block.
  void AddTo(std::vector<double>* out, double scale = 1.0) const;

  /// Sparse copy, dropping entries with |x| <= epsilon.
  SparseVector ToSparse(double epsilon = 0.0) const;

  double SquaredNorm() const;

  /// Heap footprint in bytes — the quantity Theorem 3 bounds: 8 B per key
  /// dense, 16 B (key + value) per stored entry sparse.
  size_t MemoryBytes() const;

  std::string DebugString() const;

 private:
  size_t dim_;
  Layout layout_;
  std::vector<double> dense_;        // layout == kDense
  std::vector<int64_t> sp_index_;    // layout == kSparse: sorted keys
  std::vector<double> sp_value_;     // layout == kSparse: their values

  /// Sparse layout: this[index[k]] += scale * value[k] for sorted, unique
  /// `index`. Existing keys add in place; keys not yet stored are merged
  /// in from the back, starting at 0.0.
  void MergeAdd(const int64_t* index, const double* value, size_t n,
                double scale);

  void ToDenseLayout();
  void ToSparseLayout();
};

}  // namespace hetps

#endif  // HETPS_CORE_PARAM_BLOCK_H_
