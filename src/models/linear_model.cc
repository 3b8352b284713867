#include "models/linear_model.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "util/logging.h"

namespace hetps {

LinearModel::LinearModel(std::vector<double> weights,
                         std::string loss_name, double l2)
    : weights_(std::move(weights)),
      loss_name_(std::move(loss_name)),
      l2_(l2),
      loss_(MakeLoss(loss_name_)) {}

Result<LinearModel> LinearModel::Train(const Dataset& dataset,
                                       const LinearModelConfig& config) {
  if (config.loss != "logistic" && config.loss != "hinge" &&
      config.loss != "squared") {
    return Status::InvalidArgument("unknown loss: " + config.loss);
  }
  if (config.rule != "ssp" && config.rule != "con" &&
      config.rule != "dyn") {
    return Status::InvalidArgument("unknown rule: " + config.rule);
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (config.partitions_per_server <= 0) {
    return Status::InvalidArgument("--partitions must be positive");
  }

  const std::unique_ptr<LossFunction> loss = MakeLoss(config.loss);
  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(config.rule);
  std::unique_ptr<LearningRateSchedule> schedule;
  if (config.decayed_rate) {
    schedule = std::make_unique<DecayedRate>(config.learning_rate,
                                             config.decay_alpha);
  } else {
    schedule = std::make_unique<FixedRate>(config.learning_rate);
  }

  // The trainer's own checks (dataset, counts, push options) answer with
  // a status here instead of aborting inside TrainThreaded.
  HETPS_RETURN_NOT_OK(
      PrepareWorkerLoop(dataset, *loss, *schedule, config).status());

  ThreadedTrainResult stats =
      TrainThreaded(dataset, *loss, *schedule, *rule, config);
  LinearModel model(std::move(stats.weights), config.loss, config.l2);
  stats.weights.clear();
  model.stats_ = std::move(stats);
  return model;
}

double LinearModel::PredictMargin(const SparseVector& x) const {
  return x.Dot(weights_);
}

double LinearModel::Predict(const SparseVector& x) const {
  return loss_->Predict(PredictMargin(x));
}

double LinearModel::Accuracy(const Dataset& dataset) const {
  return dataset.Accuracy(*loss_, weights_);
}

double LinearModel::Objective(const Dataset& dataset) const {
  return dataset.Objective(*loss_, weights_, l2_);
}

Status LinearModel::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << "hetps-linear-model v1\n";
  out << std::setprecision(17);
  out << loss_name_ << ' ' << l2_ << ' ' << weights_.size() << '\n';
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (weights_[i] != 0.0) {
      out << i << ' ' << weights_[i] << '\n';
    }
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<LinearModel> LinearModel::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  std::string header;
  std::getline(in, header);
  if (header != "hetps-linear-model v1") {
    return Status::IOError("bad model header: " + header);
  }
  std::string loss_name;
  double l2 = 0.0;
  size_t dim = 0;
  if (!(in >> loss_name >> l2 >> dim)) {
    return Status::IOError("bad model metadata");
  }
  if (loss_name != "logistic" && loss_name != "hinge" &&
      loss_name != "squared") {
    return Status::IOError("unknown loss in model file: " + loss_name);
  }
  std::vector<double> weights(dim, 0.0);
  size_t idx = 0;
  double value = 0.0;
  while (in >> idx >> value) {
    if (idx >= dim) {
      return Status::IOError("weight index out of range in model file");
    }
    weights[idx] = value;
  }
  return LinearModel(std::move(weights), loss_name, l2);
}

}  // namespace hetps
