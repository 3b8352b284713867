#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hetps {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatTest, MatchesClosedForm) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum of squares = 32 over 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeEqualsCombined) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 1.3 - 2.0;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(VectorStatsTest, MeanAndVariance) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(Variance(v), 5.0 / 3.0, 1e-12);
}

TEST(VectorStatsTest, DegenerateInputs) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Variance({5.0}), 0.0);
}

TEST(HistogramTest, CountsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);
  h.Add(3.0);
  h.Add(9.9);
  h.Add(-1.0);   // clamps to first bucket
  h.Add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(4), 2u);
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(HistogramTest, ApproxQuantile) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.Add(i % 10 + 0.5);
  const double median = h.ApproxQuantile(0.5);
  EXPECT_GE(median, 3.0);
  EXPECT_LE(median, 7.0);
}

TEST(HistogramTest, ToStringRenders) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.1);
  const std::string s = h.ToString();
  EXPECT_NE(s.find('#'), std::string::npos);
}

}  // namespace
}  // namespace hetps
