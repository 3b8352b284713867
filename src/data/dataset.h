#ifndef HETPS_DATA_DATASET_H_
#define HETPS_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "math/loss.h"
#include "math/sparse_vector.h"
#include "util/rng.h"

namespace hetps {

/// One labelled training sample (x_i, y_i). Labels are -1/+1 for
/// classification losses and real-valued for regression.
struct Example {
  SparseVector features;
  double label = 0.0;
};

/// Immutable training set — the paper's data model (§2.1) separates the
/// immutable samples/labels from the mutable model. Once handed to a
/// trainer the dataset is shared read-only across workers.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<Example> examples, int64_t dimension);

  size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  int64_t dimension() const { return dimension_; }

  const Example& example(size_t i) const { return examples_[i]; }
  const std::vector<Example>& examples() const { return examples_; }

  /// Adds an example, growing `dimension` if needed.
  void Add(Example example);

  /// In-place Fisher–Yates shuffle; the paper performs data randomization
  /// once during the data-loading phase (§6).
  void Shuffle(Rng* rng);

  /// Mean nnz per example.
  double AverageNnz() const;

  /// held[k] is true iff some example holds feature k (a stored
  /// entry); dimension() entries. One pass over the nonzeros.
  std::vector<bool> HeldFeatures() const;

  /// Full L2-regularized objective:
  ///   (1/N) sum_i loss(x_i, y_i, w) + (l2/2) ||w||^2.
  double Objective(const LossFunction& loss, const std::vector<double>& w,
                   double l2) const;

  /// Objective evaluated on the first `sample_size` examples only (the
  /// dataset is shuffled at load, so this is an unbiased subsample). The
  /// L2 term is included in full. Used by the simulator's convergence
  /// checks to keep evaluation cheap.
  double ObjectiveSample(const LossFunction& loss,
                         const std::vector<double>& w, double l2,
                         size_t sample_size) const;

  /// Fraction of examples whose sign prediction matches the label
  /// (classification losses only).
  double Accuracy(const LossFunction& loss,
                  const std::vector<double>& w) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

  std::string DebugString() const;

 private:
  std::vector<Example> examples_;
  int64_t dimension_ = 0;
};

}  // namespace hetps

#endif  // HETPS_DATA_DATASET_H_
