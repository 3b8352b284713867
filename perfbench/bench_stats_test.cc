#include "bench_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(BenchStatsTest, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// Expected values are statistics.quantiles(values, n=4) from Python.
TEST(BenchStatsTest, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles ten =
      ComputeQuartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  EXPECT_NEAR(RelativeIqr(ten), 5.5 / 5.5, 1e-12);

  // Two points extrapolate, exactly as Python does: [0.75, 1.5, 2.25].
  const Quartiles two = ComputeQuartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const Quartiles one = ComputeQuartiles({7.0});
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
  EXPECT_DOUBLE_EQ(RelativeIqr(ComputeQuartiles({})), 0.0);
}

TEST(BenchStatsTest, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(TailPercentile(999), 98.0);   // 999 - 990 = 9 beyond p99
  EXPECT_DOUBLE_EQ(TailPercentile(500), 98.0);
  EXPECT_DOUBLE_EQ(TailPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentile(40), 75.0);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(TailPercentile(19), 0.0);
  EXPECT_DOUBLE_EQ(TailPercentile(100000), 99.0);  // capped
  EXPECT_DOUBLE_EQ(TailPercentile(100000, 99.9), 99.9);
}

TEST(BenchStatsTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(BenchStatsTest, BlockedTailIgnoresABurstInOneBlock) {
  // Three blocks of 1000 samples valued 1..1000; the middle block also
  // holds a 100-sample burst of 50s, which owns that block's p99.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
  }
  for (int i = 1000; i < 1100; ++i) v[static_cast<size_t>(i)] = 50000;
  const BlockTail tail = BlockedTail(v, 1000);
  EXPECT_EQ(tail.blocks, 3);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  // The whole pool's p99 is the burst.
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 50000.0);
}

TEST(BenchStatsTest, BlockedTailFallsBackToOneShortBlock) {
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  v.push_back(7);  // 501 samples: the remainder stays in the only block
  const BlockTail tail = BlockedTail(v, 1000);
  EXPECT_EQ(tail.blocks, 1);
  EXPECT_DOUBLE_EQ(tail.percentile, 98.0);
  EXPECT_DOUBLE_EQ(tail.value, 490.0);
  EXPECT_EQ(BlockedTail({}, 1000).blocks, 0);
}

TEST(BenchStatsTest, FirstSustainedIndexNeedsAnUnbrokenRun) {
  // Dips at 1 and 3 are transient; the target holds from index 5 on.
  const std::vector<double> v = {0.9, 0.4, 0.8, 0.5, 0.7, 0.5, 0.5, 0.4};
  EXPECT_EQ(FirstSustainedIndex(v, 0.5, 3), 5);
  EXPECT_EQ(FirstSustainedIndex(v, 0.5, 1), 1);
  EXPECT_EQ(FirstSustainedIndex(v, 0.3, 3), -1);
  EXPECT_EQ(FirstSustainedIndex({0.5, 0.5}, 0.5, 3), -1);
}

TEST(BenchStatsTest, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0, 100) with children [10, 30) and [50, 60); the first child
  // has a grandchild [12, 20) that must not count against the root.
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 1, 12, 20}, {3, 0, 50, 60}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 10);
}

TEST(BenchStatsTest, SelfTimeClipsAndMergesOverlappingChildren) {
  // Children [−5, 20) and [10, 40) overlap each other and the first
  // starts before its parent: together they cover [0, 40).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, -5, 20}, {1, 0, 10, 40}};
  EXPECT_EQ(SelfTimes(spans)[0], 60);
}

TEST(BenchStatsTest, UnattributedShareIsRootSelfOverRootTotal) {
  const std::vector<Span> spans = {{0, -1, 0, 100},
                                   {1, 0, 0, 90},
                                   {0, -1, 200, 300},
                                   {1, 2, 200, 250}};
  const std::vector<int64_t> self = SelfTimes(spans);
  // (10 + 50) unattributed of 200.
  EXPECT_DOUBLE_EQ(UnattributedShare(spans, self), 0.3);
  EXPECT_DOUBLE_EQ(UnattributedShare({}, {}), 0.0);
}

TEST(BenchStatsTest, BucketQuantileUsesNearestRankBucket) {
  const std::vector<int64_t> lower = {0, 1, 2, 4};
  const std::vector<int64_t> upper = {1, 2, 4, 8};
  const std::vector<int64_t> counts = {5, 0, 4, 1};
  EXPECT_DOUBLE_EQ(BucketQuantile(counts, lower, upper, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(counts, lower, upper, 0.6), 3.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(counts, lower, upper, 0.99), 6.0);
  EXPECT_DOUBLE_EQ(BucketQuantile({0, 0, 0, 0}, lower, upper, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
