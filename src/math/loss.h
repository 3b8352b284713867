#ifndef HETPS_MATH_LOSS_H_
#define HETPS_MATH_LOSS_H_

#include <memory>
#include <string>
#include <vector>

#include "math/sparse_vector.h"

namespace hetps {

/// Convex per-example loss f(x, y, w) for linear models — the problem class
/// the paper targets (§2.1): argmin_w sum_i f(x_i, y_i, w).
///
/// Implementations are stateless and thread-safe. Gradients are accumulated
/// into a dense buffer scaled by `scale`, so mini-batch averaging composes
/// without temporaries.
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// Loss value for one example given margin z = <w, x> and label y.
  virtual double Loss(double margin, double label) const = 0;

  /// d loss / d margin at (margin, label). The gradient with respect to w
  /// is this scalar times x.
  virtual double MarginGradient(double margin, double label) const = 0;

  /// Prediction from a margin (e.g. probability for logistic).
  virtual double Predict(double margin) const = 0;

  virtual std::string name() const = 0;
};

/// L2-regularized logistic regression loss: log(1 + exp(-y * z)),
/// labels y in {-1, +1}.
class LogisticLoss final : public LossFunction {
 public:
  double Loss(double margin, double label) const override;
  double MarginGradient(double margin, double label) const override;
  double Predict(double margin) const override;
  std::string name() const override { return "logistic"; }
};

/// SVM hinge loss: max(0, 1 - y * z), labels y in {-1, +1}.
class HingeLoss final : public LossFunction {
 public:
  double Loss(double margin, double label) const override;
  double MarginGradient(double margin, double label) const override;
  double Predict(double margin) const override;
  std::string name() const override { return "hinge"; }
};

/// Squared loss 0.5 * (z - y)^2 for linear regression.
class SquaredLoss final : public LossFunction {
 public:
  double Loss(double margin, double label) const override;
  double MarginGradient(double margin, double label) const override;
  double Predict(double margin) const override;
  std::string name() const override { return "squared"; }
};

/// The names MakeLoss accepts.
const std::vector<std::string>& LossNames();

/// Factory by name, one of LossNames(); aborts on any other.
std::unique_ptr<LossFunction> MakeLoss(const std::string& name);

/// Accumulates the (sub)gradient of f at one example into `grad`:
///   grad += scale * MarginGradient(<w, x>, y) * x
/// Returns the example's loss value.
double AccumulateExampleGradient(const LossFunction& loss,
                                 const SparseVector& x, double y,
                                 const std::vector<double>& w, double scale,
                                 std::vector<double>* grad);

}  // namespace hetps

#endif  // HETPS_MATH_LOSS_H_
