#ifndef HETPS_MODELS_LINEAR_MODEL_H_
#define HETPS_MODELS_LINEAR_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sync_policy.h"
#include "data/dataset.h"
#include "engine/threaded_trainer.h"
#include "math/loss.h"
#include "math/sparse_vector.h"
#include "util/status.h"

namespace hetps {

/// Everything needed to train a linear model on the heterogeneity-aware
/// parameter server. This is the library's primary user-facing entry
/// point (the prototype's "ready-to-run algorithms", Appendix D). The
/// runtime options (workers, servers, clocks, partition layout, push
/// pipeline, on_epoch, ...) are the threaded trainer's own, inherited
/// with its defaults.
struct LinearModelConfig : ThreadedTrainerOptions {
  /// "logistic" (LR), "hinge" (SVM) or "squared" (linear regression).
  std::string loss = "logistic";
  /// Consolidation rule: "ssp" | "con" | "dyn" (default DynSGD).
  std::string rule = "dyn";
  double learning_rate = 0.1;
  bool decayed_rate = false;
  double decay_alpha = 0.2;
};

/// A trained linear classifier/regressor.
class LinearModel {
 public:
  /// Trains with the real multi-threaded runtime. Validates the config.
  static Result<LinearModel> Train(const Dataset& dataset,
                                   const LinearModelConfig& config);

  /// A model over weights trained elsewhere (e.g. the RPC runtime's
  /// DistributedTrainResult::weights). Aborts on an unknown loss.
  LinearModel(std::vector<double> weights, std::string loss_name,
              double l2);

  /// Raw margin <w, x>.
  double PredictMargin(const SparseVector& x) const;

  /// Loss-specific prediction (probability for LR, sign for SVM, value
  /// for regression).
  double Predict(const SparseVector& x) const;

  /// Classification accuracy on `dataset`.
  double Accuracy(const Dataset& dataset) const;

  /// Regularized objective on `dataset`.
  double Objective(const Dataset& dataset) const;

  const std::vector<double>& weights() const { return weights_; }
  const std::string& loss_name() const { return loss_name_; }
  double l2() const { return l2_; }
  const ThreadedTrainResult& train_stats() const { return stats_; }

  /// Text serialization: header (loss, l2, dim) + non-zero weights.
  Status Save(const std::string& path) const;
  static Result<LinearModel> Load(const std::string& path);

 private:
  std::vector<double> weights_;
  std::string loss_name_;
  double l2_ = 0.0;
  std::unique_ptr<LossFunction> loss_;
  ThreadedTrainResult stats_;
};

}  // namespace hetps

#endif  // HETPS_MODELS_LINEAR_MODEL_H_
