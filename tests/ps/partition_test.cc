#include "ps/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "data/synthetic.h"
#include "test_printers.h"
#include "util/rng.h"

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
  // servers x partitions_per_server beyond int range clamps the same way.
  const Partitioner huge = Partitioner::Create(
      PartitionScheme::kRange, /*dim=*/100, /*num_servers=*/2,
      /*partitions_per_server=*/2000000000);
  EXPECT_EQ(huge.num_partitions(), 100);
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

/// The equal ranges every scheme used before the held-key cut.
std::vector<int64_t> EqualRanges(int64_t dim, int parts) {
  std::vector<int64_t> cuts;
  for (int p = 0; p <= parts; ++p) cuts.push_back(dim * p / parts);
  return cuts;
}

/// Held keys per partition of `part`.
std::vector<int64_t> HeldPerPartition(const Partitioner& part,
                                      const std::vector<bool>& held) {
  std::vector<int64_t> count(static_cast<size_t>(part.num_partitions()), 0);
  for (size_t k = 0; k < held.size(); ++k) {
    if (held[k]) ++count[static_cast<size_t>(part.PartitionOf(k))];
  }
  return count;
}

TEST(HeldKeyCutsTest, AllOrNoKeysHeldGiveTheEqualRanges) {
  for (int64_t dim = 1; dim <= 200; ++dim) {
    const std::vector<bool> all(static_cast<size_t>(dim), true);
    const std::vector<bool> none(static_cast<size_t>(dim), false);
    for (int parts = 1; parts <= dim; ++parts) {
      const std::vector<int64_t> equal = EqualRanges(dim, parts);
      ASSERT_EQ(Partitioner::HeldKeyCuts(all, parts), equal)
          << "dim " << dim << ", P " << parts;
      ASSERT_EQ(Partitioner::HeldKeyCuts(none, parts), equal)
          << "dim " << dim << ", P " << parts;
      for (const PartitionScheme scheme :
           {PartitionScheme::kRange, PartitionScheme::kRangeHash}) {
        ASSERT_EQ(Partitioner(scheme, dim, 1, parts).cuts(), equal);
        ASSERT_EQ(Partitioner(scheme, dim, 1, parts,
                              Partitioner::HeldKeyCuts(all, parts))
                      .cuts(),
                  equal);
      }
    }
  }
}

TEST(HeldKeyCutsTest, NoPartitionIsEmptyWhenFewKeysAreHeld) {
  Rng rng(5);
  for (int64_t dim = 1; dim <= 60; ++dim) {
    for (int parts = 1; parts <= dim; ++parts) {
      // Every key alone, then a random set of fewer than P keys.
      std::vector<std::vector<bool>> cases;
      for (int64_t k = 0; k < dim; ++k) {
        cases.emplace_back(static_cast<size_t>(dim), false);
        cases.back()[static_cast<size_t>(k)] = true;
      }
      cases.emplace_back(static_cast<size_t>(dim), false);
      for (int i = 0; i + 1 < parts; ++i) {
        cases.back()[rng.NextUint64(static_cast<uint64_t>(dim))] = true;
      }
      for (const std::vector<bool>& held : cases) {
        const std::vector<int64_t> cuts = Partitioner::HeldKeyCuts(held, parts);
        ASSERT_TRUE(Partitioner::ValidCuts(cuts, dim, parts))
            << "dim " << dim << ", P " << parts;
        const Partitioner part(PartitionScheme::kRange, dim, 1, parts, cuts);
        for (int p = 0; p < parts; ++p) ASSERT_GE(part.PartitionDim(p), 1);
      }
    }
  }
}

TEST(HeldKeyCutsTest, EachRangeGetsAnEqualShareOfTheHeldKeys) {
  // Keys 0..39 of 1000 are held, so four equal ranges would put all of
  // them in partition 0; the cut gives each partition ten.
  std::vector<bool> held(1000, false);
  for (size_t k = 0; k < 40; ++k) held[k] = true;
  const std::vector<int64_t> cuts = Partitioner::HeldKeyCuts(held, 4);
  EXPECT_EQ(cuts, (std::vector<int64_t>{0, 10, 20, 30, 1000}));
  const Partitioner part(PartitionScheme::kRangeHash, 1000, 2, 4, cuts);
  EXPECT_EQ(HeldPerPartition(part, held),
            (std::vector<int64_t>{10, 10, 10, 10}));
}

TEST(HeldKeyCutsTest, HashIgnoresTheHeldSet) {
  std::vector<bool> held(103, false);
  for (size_t k = 0; k < 9; ++k) held[k] = true;
  const Partitioner plain(PartitionScheme::kHash, 103, 4, 8);
  const Partitioner cut(PartitionScheme::kHash, 103, 4, 8,
                        Partitioner::HeldKeyCuts(held, 8));
  EXPECT_TRUE(cut.cuts().empty());
  for (int64_t key = 0; key < 103; ++key) {
    ASSERT_EQ(cut.PartitionOf(key), plain.PartitionOf(key));
    ASSERT_EQ(cut.LocalIndex(key), plain.LocalIndex(key));
  }
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(cut.PartitionDim(p), plain.PartitionDim(p));
    EXPECT_EQ(cut.ServerOf(p), plain.ServerOf(p));
  }
}

TEST(HeldKeyCutsTest, CutLayoutRoundTripsEveryKey) {
  Rng rng(9);
  std::vector<bool> held(257, false);
  for (int i = 0; i < 30; ++i) held[rng.NextUint64(40)] = true;
  held[200] = true;
  const std::vector<int64_t> cuts = Partitioner::HeldKeyCuts(held, 6);
  ASSERT_NE(cuts, EqualRanges(257, 6));
  for (const PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kRangeHash}) {
    const Partitioner part(scheme, 257, 3, 6, cuts);
    EXPECT_EQ(part.cuts(), cuts);
    SparseVector all;
    for (int64_t key = 0; key < 257; ++key) {
      const int p = part.PartitionOf(key);
      ASSERT_GE(key, cuts[static_cast<size_t>(p)]);
      ASSERT_LT(key, cuts[static_cast<size_t>(p) + 1]);
      const int64_t local = part.LocalIndex(key);
      ASSERT_LT(local, part.PartitionDim(p));
      ASSERT_EQ(part.GlobalIndex(p, local), key);
      all.PushBack(key, static_cast<double>(key) + 0.5);
    }
    const std::vector<SparseVector> pieces = part.SplitByPartition(all);
    ASSERT_EQ(pieces.size(), 6u);
    int64_t next = 0;
    for (int p = 0; p < 6; ++p) {
      const SparseVector& piece = pieces[static_cast<size_t>(p)];
      EXPECT_EQ(static_cast<int64_t>(piece.nnz()), part.PartitionDim(p));
      for (size_t i = 0; i < piece.nnz(); ++i) {
        ASSERT_EQ(part.GlobalIndex(p, piece.index(i)), next);
        ASSERT_EQ(piece.value(i), static_cast<double>(next) + 0.5);
        ++next;
      }
    }
    EXPECT_EQ(next, 257);
  }
}

TEST(HeldKeyCutsTest, BalancesTheHeldKeysOfTheWideCtrShape) {
  // The threaded benchmark's shape: the CTR preset at 500,000 features
  // on 2 servers x 2 partitions. Its Zipf-ranked features crowd the low
  // keys, so equal ranges put most held keys in partition 0.
  SyntheticConfig config = CtrLikeConfig(1.0);
  config.num_features = 500000;
  const std::vector<bool> held = GenerateSynthetic(config).HeldFeatures();
  const int64_t total = std::count(held.begin(), held.end(), true);
  const int parts = Partitioner::NumPartitions(500000, 2, 2);
  ASSERT_EQ(parts, 4);
  const Partitioner equal(PartitionScheme::kRangeHash, 500000, 2, parts);
  const Partitioner cut(PartitionScheme::kRangeHash, 500000, 2, parts,
                        Partitioner::HeldKeyCuts(held, parts));
  const std::vector<int64_t> equal_held = HeldPerPartition(equal, held);
  const std::vector<int64_t> cut_held = HeldPerPartition(cut, held);
  EXPECT_GT(*std::max_element(equal_held.begin(), equal_held.end()) * 10,
            total * 8);
  EXPECT_LE(*std::max_element(cut_held.begin(), cut_held.end()),
            (total + parts - 1) / parts);
  EXPECT_EQ(std::accumulate(cut_held.begin(), cut_held.end(), int64_t{0}),
            total);
}

TEST(PartitionerDeathTest, RefusesBadCuts) {
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 1, 2, {0, 5}),
               "cuts");
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 1, 2, {1, 5, 10}),
               "cuts");
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 1, 2, {0, 5, 9}),
               "cuts");
  EXPECT_DEATH(Partitioner(PartitionScheme::kRange, 10, 1, 2, {0, 0, 10}),
               "cuts");
  EXPECT_FALSE(Partitioner::ValidCuts({0, 6, 6, 10}, 10, 3));
  EXPECT_TRUE(Partitioner::ValidCuts({0, 6, 7, 10}, 10, 3));
}

TEST(PartitionSchemeNameTest, Names) {
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kRange), "range");
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kHash), "hash");
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kRangeHash),
               "range-hash");
}

}  // namespace
}  // namespace hetps
