#include "math/loss.h"

#include <cmath>

#include "util/logging.h"

namespace hetps {
namespace {

// Numerically stable log(1 + exp(a)).
double Log1pExp(double a) {
  if (a > 30.0) return a;
  if (a < -30.0) return std::exp(a);
  return std::log1p(std::exp(a));
}

}  // namespace

double LogisticLoss::Loss(double margin, double label) const {
  return Log1pExp(-label * margin);
}

double LogisticLoss::MarginGradient(double margin, double label) const {
  // d/dz log(1 + exp(-y z)) = -y * sigmoid(-y z)
  const double a = -label * margin;
  double sig;
  if (a > 30.0) {
    sig = 1.0;
  } else if (a < -30.0) {
    sig = std::exp(a);
  } else {
    sig = 1.0 / (1.0 + std::exp(-a));
  }
  return -label * sig;
}

double LogisticLoss::Predict(double margin) const {
  if (margin > 30.0) return 1.0;
  if (margin < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-margin));
}

double HingeLoss::Loss(double margin, double label) const {
  const double v = 1.0 - label * margin;
  return v > 0.0 ? v : 0.0;
}

double HingeLoss::MarginGradient(double margin, double label) const {
  return (1.0 - label * margin > 0.0) ? -label : 0.0;
}

double HingeLoss::Predict(double margin) const {
  return margin >= 0.0 ? 1.0 : -1.0;
}

double SquaredLoss::Loss(double margin, double label) const {
  const double d = margin - label;
  return 0.5 * d * d;
}

double SquaredLoss::MarginGradient(double margin, double label) const {
  return margin - label;
}

double SquaredLoss::Predict(double margin) const {
  return margin;
}

const std::vector<std::string>& LossNames() {
  static const std::vector<std::string> names = {"logistic", "hinge",
                                                 "squared"};
  return names;
}

std::unique_ptr<LossFunction> MakeLoss(const std::string& name) {
  if (name == "logistic") return std::make_unique<LogisticLoss>();
  if (name == "hinge") return std::make_unique<HingeLoss>();
  if (name == "squared") return std::make_unique<SquaredLoss>();
  HETPS_LOG(Fatal) << "unknown loss: " << name;
  return nullptr;
}

double AccumulateExampleGradient(const LossFunction& loss,
                                 const SparseVector& x, double y,
                                 const std::vector<double>& w, double scale,
                                 std::vector<double>* grad) {
  const double margin = x.Dot(w);
  const double g = loss.MarginGradient(margin, y);
  if (g != 0.0) {
    x.AddTo(grad, scale * g);
  }
  return loss.Loss(margin, y);
}

}  // namespace hetps
