#include "data/sharding.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "test_printers.h"

namespace hetps {
namespace {

// Every index appears exactly once across shards, for both policies and a
// sweep of sizes (property-style).
class SplitDataTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t,
                                                 ShardingPolicy>> {};

TEST_P(SplitDataTest, PartitionIsExactCover) {
  const auto& [n, workers, policy] = GetParam();
  const auto shards = SplitData(n, workers, policy);
  ASSERT_EQ(shards.size(), workers);
  std::set<size_t> seen;
  for (const auto& shard : shards) {
    for (size_t idx : shard.example_indices) {
      EXPECT_LT(idx, n);
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index " << idx;
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST_P(SplitDataTest, ShardSizesBalanced) {
  const auto& [n, workers, policy] = GetParam();
  const auto shards = SplitData(n, workers, policy);
  size_t lo = n;
  size_t hi = 0;
  for (const auto& shard : shards) {
    lo = std::min(lo, shard.size());
    hi = std::max(hi, shard.size());
  }
  EXPECT_LE(hi - lo, 1u) << "imbalanced shards";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitDataTest,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 7, 100, 101),
                       ::testing::Values<size_t>(1, 3, 8),
                       ::testing::Values(ShardingPolicy::kContiguous,
                                         ShardingPolicy::kRoundRobin)));

TEST(SplitDataTest, ContiguousIsContiguous) {
  const auto shards = SplitData(10, 3, ShardingPolicy::kContiguous);
  for (const auto& shard : shards) {
    for (size_t i = 1; i < shard.size(); ++i) {
      EXPECT_EQ(shard.example_indices[i],
                shard.example_indices[i - 1] + 1);
    }
  }
}

TEST(SplitDataTest, RoundRobinStrides) {
  const auto shards = SplitData(9, 3, ShardingPolicy::kRoundRobin);
  EXPECT_EQ(shards[0].example_indices, (std::vector<size_t>{0, 3, 6}));
  EXPECT_EQ(shards[1].example_indices, (std::vector<size_t>{1, 4, 7}));
}

TEST(ReassignAcrossTest, SplitsEvenlyWithRemainderToEarlierShards) {
  DataShard from;
  from.example_indices = {0, 1, 2, 3, 4, 5, 6};
  DataShard a, b, c;
  a.example_indices = {100};
  const size_t moved = ReassignAcross(&from, {&a, &b, &c});
  EXPECT_EQ(moved, 7u);
  EXPECT_TRUE(from.example_indices.empty());
  // 7 = 3 + 2 + 2: the extra example goes to the earliest survivor.
  EXPECT_EQ(a.size(), 4u);  // kept its own {100} plus 3 orphans
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(c.size(), 2u);
  // Exact cover: every orphan landed exactly once.
  std::set<size_t> seen;
  for (const DataShard* s : {&a, &b, &c}) {
    for (size_t idx : s->example_indices) seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 8u);
  for (size_t idx = 0; idx < 7; ++idx) EXPECT_TRUE(seen.count(idx));
}

TEST(ReassignAcrossTest, EmptySurvivorsDropsTheShard) {
  DataShard from;
  from.example_indices = {0, 1};
  EXPECT_EQ(ReassignAcross(&from, {}), 0u);
  EXPECT_TRUE(from.example_indices.empty());
}

TEST(ReassignAcrossTest, EmptySourceIsNoOp) {
  DataShard from;
  DataShard to;
  to.example_indices = {5};
  EXPECT_EQ(ReassignAcross(&from, {&to}), 0u);
  EXPECT_EQ(to.size(), 1u);
}

TEST(ReassignAcrossTest, SingleSurvivorInheritsEverything) {
  DataShard from;
  from.example_indices = {3, 1, 4};
  DataShard to;
  EXPECT_EQ(ReassignAcross(&from, {&to}), 3u);
  EXPECT_EQ(to.size(), 3u);
  EXPECT_TRUE(from.example_indices.empty());
}

}  // namespace
}  // namespace hetps
