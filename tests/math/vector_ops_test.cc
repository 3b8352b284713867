#include "math/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/param_block.h"

namespace hetps {
namespace {

// Hand-computed results of the dense vector operations on tiny inputs,
// through whichever kernel table the dispatcher installed.
// KernelParityTest compares the ISA tables against each other; these pin
// the values every table must produce.

TEST(VectorOpsTest, Axpy) {
  std::vector<double> y = {1.0, 2.0};
  const std::vector<double> x = {10.0, 20.0};
  kernels::Axpy(2.0, x.data(), y.data(), y.size());
  EXPECT_DOUBLE_EQ(y[0], 21.0);
  EXPECT_DOUBLE_EQ(y[1], 42.0);
  kernels::Axpy(2.0, x.data(), y.data(), 0);  // n = 0 writes nothing
  EXPECT_DOUBLE_EQ(y[0], 21.0);
}

TEST(VectorOpsTest, Dot) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(kernels::Dot(x.data(), y.data(), x.size()), 32.0);
  EXPECT_DOUBLE_EQ(kernels::Dot(x.data(), y.data(), 0), 0.0);
}

TEST(VectorOpsTest, ScaleAndZero) {
  std::vector<double> x = {1.0, -2.0};
  kernels::Scale(-3.0, x.data(), x.size());
  EXPECT_DOUBLE_EQ(x[0], -3.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
  kernels::Scale(0.0, x.data(), x.size());
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(VectorOpsTest, Norms) {
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(kernels::SquaredNorm(x.data(), x.size()), 25.0);
  EXPECT_DOUBLE_EQ(std::sqrt(kernels::SquaredNorm(x.data(), x.size())), 5.0);
  EXPECT_DOUBLE_EQ(kernels::SquaredNorm(x.data(), 0), 0.0);
}

TEST(VectorOpsTest, SquaredDistance) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(kernels::SquaredDistance(a.data(), b.data(), 2), 25.0);
  EXPECT_DOUBLE_EQ(kernels::SquaredDistance(b.data(), b.data(), 2), 0.0);
}

// The count behind the 50% layout rule and the pull byte estimates, in
// both layouts: entries with |x| <= epsilon do not count.
TEST(VectorOpsTest, CountNonZero) {
  const std::vector<double> x = {0.0, 1e-9, 0.5, -0.5};
  for (const auto layout :
       {ParamBlock::Layout::kDense, ParamBlock::Layout::kSparse}) {
    ParamBlock b(x.size(), layout);
    b.AddDense(x);
    EXPECT_EQ(b.CountNonZero(), 3u);
    EXPECT_EQ(b.CountNonZero(1e-6), 2u);
  }
}

}  // namespace
}  // namespace hetps
