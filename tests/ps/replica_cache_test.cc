// ReplicaCache: applying PartitionPull pieces onto the pristine copy, the
// per-partition clear rule (sparse ship, dense ship, delta), strided
// hash-scheme addressing, the in-place replica refresh and base-tag
// mismatch reporting.

#include "ps/replica_cache.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetps {
namespace {

PartitionPull Sparse(int p, int64_t tag, SparseVector v) {
  PartitionPull piece;
  piece.partition = p;
  piece.encoding = PartitionPull::Encoding::kSparse;
  piece.tag = tag;
  piece.sparse = std::move(v);
  return piece;
}

PartitionPull Dense(int p, int64_t tag, std::vector<double> v) {
  PartitionPull piece;
  piece.partition = p;
  piece.encoding = PartitionPull::Encoding::kDense;
  piece.tag = tag;
  piece.dense = std::move(v);
  return piece;
}

PartitionPull Delta(int p, int64_t base_tag, int64_t tag, SparseVector v) {
  PartitionPull piece = Sparse(p, tag, std::move(v));
  piece.encoding = PartitionPull::Encoding::kSparseDelta;
  piece.base_tag = base_tag;
  return piece;
}

// Two range partitions of 8 keys: [0, 8) and [8, 16).
Partitioner RangeLayout() {
  return Partitioner(PartitionScheme::kRange, 16, 1, 2);
}

TEST(ReplicaCacheTest, KeyThatLeavesASparseShipIsCleared) {
  MetricsRegistry registry;
  ReplicaCache cache(RangeLayout(), &registry);
  ASSERT_TRUE(cache.Apply({Sparse(0, 1, SparseVector({1, 5}, {2.0, 3.0}))}));
  // Key 5 became exactly 0 on the server, so the next whole-block sparse
  // ship omits it; the cache must not keep the old value.
  ASSERT_TRUE(cache.Apply({Sparse(0, 2, SparseVector({1}, {2.0}))}));
  std::vector<double> expected(16, 0.0);
  expected[1] = 2.0;
  EXPECT_EQ(cache.values(), expected);
  EXPECT_EQ(cache.tags(), (std::vector<int64_t>{2, kNoCachedTag}));
  // One client.cache_apply_us sample per applied pull.
  EXPECT_EQ(registry.histogram("client.cache_apply_us")->count(), 2);
}

TEST(ReplicaCacheTest, SparseThenDenseThenSparse) {
  MetricsRegistry registry;
  ReplicaCache cache(RangeLayout(), &registry);
  ASSERT_TRUE(cache.Apply({Sparse(0, 1, SparseVector({1, 6}, {1.0, 2.0}))}));
  ASSERT_TRUE(cache.Apply({Dense(0, 2, std::vector<double>(8, 0.5))}));
  std::vector<double> expected(16, 0.0);
  for (int k = 0; k < 8; ++k) expected[static_cast<size_t>(k)] = 0.5;
  EXPECT_EQ(cache.values(), expected);

  // After a dense ship every key may be nonzero: a sparse ship clears the
  // whole block, not just the keys an earlier sparse ship named.
  ASSERT_TRUE(cache.Apply({Sparse(0, 3, SparseVector({3}, {4.0}))}));
  expected.assign(16, 0.0);
  expected[3] = 4.0;
  EXPECT_EQ(cache.values(), expected);

  // And the partition is back to a key list: only key 3 is held.
  ASSERT_TRUE(cache.Apply({Sparse(0, 4, SparseVector({2}, {1.0}))}));
  expected.assign(16, 0.0);
  expected[2] = 1.0;
  EXPECT_EQ(cache.values(), expected);
}

TEST(ReplicaCacheTest, DeltaKeysJoinTheClearableSet) {
  MetricsRegistry registry;
  ReplicaCache cache(RangeLayout(), &registry);
  ASSERT_TRUE(cache.Apply({Sparse(1, 1, SparseVector({1}, {1.0}))}));
  ASSERT_TRUE(
      cache.Apply({Delta(1, 1, 2, SparseVector({1, 4}, {0.5, 2.0}))}));
  std::vector<double> expected(16, 0.0);
  expected[9] = 1.5;
  expected[12] = 2.0;
  EXPECT_EQ(cache.values(), expected);

  // Key 4 arrived by delta only; a whole-block ship without it clears it.
  ASSERT_TRUE(cache.Apply({Sparse(1, 3, SparseVector({6}, {1.0}))}));
  expected.assign(16, 0.0);
  expected[14] = 1.0;
  EXPECT_EQ(cache.values(), expected);
}

TEST(ReplicaCacheTest, HashSchemeAddressesStridedKeys) {
  // Three hash partitions over 10 keys: partition p holds p, p+3, p+6, …
  MetricsRegistry registry;
  ReplicaCache cache(Partitioner(PartitionScheme::kHash, 10, 1, 3),
                     &registry);
  // The same pieces applied in place: the replica receives every value
  // the apply writes, so it stays equal to its cache.
  ReplicaCache mirrored(cache.layout(), &registry);
  std::vector<double> replica(10, 0.0);
  auto apply = [&](const std::vector<PartitionPull>& pieces) {
    EXPECT_TRUE(mirrored.Apply(pieces, &replica));
    return cache.Apply(pieces);
  };
  ASSERT_TRUE(apply({Dense(0, 1, {1.0, 2.0, 3.0, 4.0}),
                     Sparse(1, 1, SparseVector({0, 2}, {5.0, 6.0})),
                     Sparse(2, 1, SparseVector({1}, {7.0}))}));
  EXPECT_EQ(cache.values(),
            (std::vector<double>{1, 5, 0, 2, 0, 7, 3, 6, 0, 4}));
  EXPECT_EQ(replica, cache.values());

  ASSERT_TRUE(apply({Sparse(0, 2, SparseVector({3}, {9.0})),
                     Delta(1, 1, 2, SparseVector({1}, {1.0}))}));
  EXPECT_EQ(cache.values(),
            (std::vector<double>{0, 5, 0, 0, 1, 7, 0, 6, 0, 9}));
  EXPECT_EQ(replica, cache.values());

  ASSERT_TRUE(apply({Sparse(1, 3, SparseVector())}));
  EXPECT_EQ(cache.values(),
            (std::vector<double>{0, 0, 0, 0, 0, 7, 0, 0, 0, 9}));
  EXPECT_EQ(replica, cache.values());

  // Keys the trainer wrote are reset from the cache; repeats are fine.
  replica[2] = -1.0;
  replica[5] = -1.0;
  mirrored.ResetKeys({5, 2, 5}, &replica);
  EXPECT_EQ(replica, cache.values());
}

TEST(ReplicaCacheTest, DeltaBaseMismatchIsReported) {
  MetricsRegistry registry;
  ReplicaCache cache(RangeLayout(), &registry);
  ASSERT_TRUE(cache.Apply({Sparse(0, 1, SparseVector({1}, {1.0})),
                           Sparse(1, 1, SparseVector({0}, {2.0}))}));
  // The delta names a base the cache never held: it is skipped and its
  // partition's tag reset so the next pull ships it whole, while the
  // other piece of the same pull still applies.
  EXPECT_FALSE(cache.Apply({Delta(0, 99, 5, SparseVector({2}, {3.0})),
                            Sparse(1, 2, SparseVector({1}, {4.0}))}));
  EXPECT_EQ(cache.tags(), (std::vector<int64_t>{kNoCachedTag, 2}));
  std::vector<double> expected(16, 0.0);
  expected[1] = 1.0;
  expected[9] = 4.0;
  EXPECT_EQ(cache.values(), expected);

  // The skipped delta left the key list as it was, so the whole-block
  // re-ship still clears key 1.
  ASSERT_TRUE(cache.Apply({Sparse(0, 6, SparseVector({2}, {3.0}))}));
  expected[1] = 0.0;
  expected[2] = 3.0;
  EXPECT_EQ(cache.values(), expected);
}

TEST(ReplicaCacheDeathTest, PieceCannotWriteOutsideItsPartition) {
  MetricsRegistry registry;
  ReplicaCache cache(RangeLayout(), &registry);
  EXPECT_DEATH(cache.Apply({Sparse(0, 1, SparseVector({8}, {1.0}))}),
               "out of range");
  EXPECT_DEATH(cache.Apply({Delta(0, kNoCachedTag, 1,
                                  SparseVector({-1}, {1.0}))}),
               "out of range");
  EXPECT_DEATH(cache.Apply({Dense(1, 1, std::vector<double>(7, 1.0))}),
               "wrong length");
  std::vector<double> replica(16, 0.0);
  EXPECT_DEATH(cache.ResetKeys({16}, &replica), "out of range");
  EXPECT_DEATH(cache.ResetKeys({-1}, &replica), "out of range");
  std::vector<double> short_replica(15, 0.0);
  EXPECT_DEATH(cache.Apply({}, &short_replica), "dimension mismatch");
}

}  // namespace
}  // namespace hetps
