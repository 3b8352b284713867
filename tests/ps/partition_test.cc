#include "ps/partition.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "test_printers.h"

namespace hetps {
namespace {

class PartitionerSchemeTest
    : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(PartitionerSchemeTest, EveryKeyMapsToExactlyOneSlot) {
  const Partitioner part(GetParam(), /*dim=*/103, /*num_servers=*/4,
                         /*num_partitions=*/8);
  std::set<std::pair<int, int64_t>> seen;
  for (int64_t key = 0; key < 103; ++key) {
    const int p = part.PartitionOf(key);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, part.num_partitions());
    const int64_t local = part.LocalIndex(key);
    ASSERT_GE(local, 0);
    ASSERT_LT(local, part.PartitionDim(p));
    EXPECT_EQ(part.GlobalIndex(p, local), key);
    EXPECT_TRUE(seen.insert({p, local}).second)
        << "slot collision for key " << key;
  }
}

TEST_P(PartitionerSchemeTest, PartitionDimsSumToDim) {
  const Partitioner part(GetParam(), 103, 4, 8);
  int64_t total = 0;
  for (int p = 0; p < part.num_partitions(); ++p) {
    total += part.PartitionDim(p);
  }
  EXPECT_EQ(total, 103);
}

TEST_P(PartitionerSchemeTest, SplitByPartitionPreservesContent) {
  const Partitioner part(GetParam(), 103, 4, 8);
  SparseVector v({0, 7, 50, 99, 102}, {1.0, 2.0, 3.0, 4.0, 5.0});
  const auto pieces = part.SplitByPartition(v);
  ASSERT_EQ(pieces.size(), 8u);
  size_t total_nnz = 0;
  for (int p = 0; p < 8; ++p) {
    for (size_t i = 0; i < pieces[static_cast<size_t>(p)].nnz(); ++i) {
      const int64_t g = part.GlobalIndex(
          p, pieces[static_cast<size_t>(p)].index(i));
      EXPECT_DOUBLE_EQ(pieces[static_cast<size_t>(p)].value(i),
                       v.ValueAt(g));
      ++total_nnz;
    }
  }
  EXPECT_EQ(total_nnz, v.nnz());
}

TEST_P(PartitionerSchemeTest, ServerAssignmentsInRange) {
  const Partitioner part(GetParam(), 103, 4, 8);
  for (int p = 0; p < part.num_partitions(); ++p) {
    EXPECT_GE(part.ServerOf(p), 0);
    EXPECT_LT(part.ServerOf(p), 4);
  }
  const auto loads = part.ServerLoads();
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), int64_t{0}), 103);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionerSchemeTest,
                         ::testing::Values(PartitionScheme::kRange,
                                           PartitionScheme::kHash,
                                           PartitionScheme::kRangeHash));

TEST(PartitionerTest, RangeKeepsContiguousKeysTogether) {
  const Partitioner part(PartitionScheme::kRange, 100, 2, 4);
  // Keys 0..24 -> partition 0, etc.
  EXPECT_EQ(part.PartitionOf(0), 0);
  EXPECT_EQ(part.PartitionOf(24), 0);
  EXPECT_EQ(part.PartitionOf(25), 1);
  EXPECT_EQ(part.PartitionOf(99), 3);
  EXPECT_EQ(part.PartitionsTouched(0, 25), 1);
  EXPECT_EQ(part.PartitionsTouched(0, 26), 2);
}

TEST(PartitionerTest, HashSpreadsRangeQueriesEverywhere) {
  const Partitioner part(PartitionScheme::kHash, 100, 2, 4);
  EXPECT_EQ(part.PartitionsTouched(0, 25), 4);
  EXPECT_EQ(part.PartitionsTouched(0, 2), 2);
  EXPECT_EQ(part.PartitionsTouched(10, 10), 0);
}

TEST(PartitionerTest, RangeHashKeepsRangeLocality) {
  const Partitioner part(PartitionScheme::kRangeHash, 100, 2, 4);
  // Hybrid partitions by range, so a quarter-range query touches one
  // partition (§6: "range partition facilitates range queries").
  EXPECT_EQ(part.PartitionsTouched(0, 25), 1);
}

TEST(PartitionerTest, RangeHashBalancesPopularPrefix) {
  // With skewed access concentrated on low keys, plain range partition
  // puts the whole hot range on server 0; range-hash spreads ranges.
  const Partitioner range(PartitionScheme::kRange, 1000, 4, 16);
  const Partitioner hybrid(PartitionScheme::kRangeHash, 1000, 4, 16);
  std::set<int> range_servers;
  std::set<int> hybrid_servers;
  for (int64_t key = 0; key < 250; ++key) {  // hot prefix
    range_servers.insert(range.ServerOf(range.PartitionOf(key)));
    hybrid_servers.insert(hybrid.ServerOf(hybrid.PartitionOf(key)));
  }
  EXPECT_GE(hybrid_servers.size(), range_servers.size());
}

TEST(PartitionerTest, CreateClampsPartitionCount) {
  const Partitioner part =
      Partitioner::Create(PartitionScheme::kRange, /*dim=*/3,
                          /*num_servers=*/2, /*partitions_per_server=*/5);
  EXPECT_LE(part.num_partitions(), 3);
  EXPECT_GE(part.num_partitions(), 2);
}

TEST(PartitionerDeathTest, Validates) {
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 0, 1, 1), "dim");
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 0, 1), "server");
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 4, 2),
               "partition");
  const Partitioner part(PartitionScheme::kRange, 10, 2, 2);
  EXPECT_DEATH(part.PartitionOf(10), "out of range");
  EXPECT_DEATH(part.PartitionOf(-1), "out of range");
  for (const PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    const Partitioner split(scheme, 10, 2, 2);
    EXPECT_DEATH(split.SplitByPartition(SparseVector({3, 10}, {1.0, 1.0})),
                 "out of range");
    EXPECT_DEATH(split.SplitByPartition(SparseVector({-1, 3}, {1.0, 1.0})),
                 "out of range");
  }
}

TEST(PartitionSchemeNameTest, Names) {
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kRange), "range");
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kHash), "hash");
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kRangeHash),
               "range-hash");
}

}  // namespace
}  // namespace hetps
