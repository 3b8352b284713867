#include "ps/server_shard.h"

#include <gtest/gtest.h>

#include "core/dyn_sgd.h"

namespace hetps {
namespace {

TEST(ServerShardTest, PushAppliesRule) {
  ConRule proto(0.5);
  ServerShard shard(0, 4, proto, 2);
  shard.Push(0, 0, SparseVector({1}, {2.0}));
  EXPECT_DOUBLE_EQ(shard.param().At(1), 1.0);
  EXPECT_EQ(shard.push_count(), 1);
}

TEST(ServerShardTest, PullReturnsDenseBlock) {
  SspRule proto;
  ServerShard shard(3, 3, proto, 1);
  shard.Push(0, 0, SparseVector({0, 2}, {1.0, 3.0}));
  const auto block = shard.Pull(0, /*cmax=*/1);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_DOUBLE_EQ(block[0], 1.0);
  EXPECT_DOUBLE_EQ(block[2], 3.0);
  EXPECT_EQ(shard.shard_id(), 3);
}

TEST(ServerShardTest, PeekDoesNotStampPullState) {
  DynSgdRule::Options opts;
  opts.version_mode = DynSgdRule::VersionMode::kAlgorithm2;
  DynSgdRule proto(opts);
  ServerShard shard(0, 2, proto, 2);
  shard.Push(0, 0, SparseVector({0}, {1.0}));
  const auto* rule = static_cast<const DynSgdRule*>(&shard.rule());
  const int64_t v_before = rule->WorkerVersion(1);
  shard.Peek();
  EXPECT_EQ(rule->WorkerVersion(1), v_before);
  shard.Pull(1, 1);
  EXPECT_NE(rule->WorkerVersion(1), v_before);
}

TEST(ServerShardTest, VersionedPullWithDeferredDyn) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule proto(opts);
  ServerShard shard(0, 1, proto, 2);
  shard.Push(0, 0, SparseVector({0}, {4.0}));  // version 0
  shard.Push(0, 1, SparseVector({0}, {6.0}));  // version 1
  EXPECT_EQ(shard.CurrentVersion(), 2);
  EXPECT_DOUBLE_EQ(shard.PullAtVersion(1, 2, 1)[0], 4.0);
  EXPECT_DOUBLE_EQ(shard.PullAtVersion(1, 2, 2)[0], 10.0);
}

// The whole-block price follows what a pull reads: under deferred DynSGD
// the live summaries, not the still-zero base parameter.
TEST(ServerShardTest, WirePayloadBytesPricesTheReadNotTheBaseParameter) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule proto(opts);
  ServerShard shard(0, 8, proto, 2);
  constexpr int64_t kEntry = sizeof(int64_t) + sizeof(double);
  EXPECT_EQ(shard.WirePayloadBytes(), 0);
  shard.Push(0, 0, SparseVector({1, 5}, {2.0, 1.0}));  // version 0
  EXPECT_EQ(shard.param().CountNonZero(), 0u);
  EXPECT_EQ(shard.WirePayloadBytes(), 2 * kEntry);  // two sparse entries
  shard.Push(0, 1, SparseVector({0, 2, 3, 4, 6}, {1, 1, 1, 1, 1}));
  // Seven nonzeros of eight keys: the dense layout is cheaper.
  EXPECT_EQ(shard.WirePayloadBytes(),
            static_cast<int64_t>(8 * sizeof(double)));
}

TEST(ServerShardTest, MemoryAccounting) {
  DynSgdRule proto;
  ServerShard shard(0, 100, proto, 2);
  EXPECT_EQ(shard.ParamMemoryBytes(), 100 * sizeof(double));
  const size_t aux0 = shard.AuxMemoryBytes();
  shard.Push(0, 0, SparseVector({0, 1, 2}, {1.0, 1.0, 1.0}));
  EXPECT_GT(shard.AuxMemoryBytes(), aux0);
}

TEST(ServerShardTest, RuleCloneIsPerShard) {
  DynSgdRule proto;
  ServerShard a(0, 2, proto, 2);
  ServerShard b(1, 2, proto, 2);
  a.Push(0, 0, SparseVector({0}, {1.0}));
  EXPECT_DOUBLE_EQ(b.param().At(0), 0.0);
  EXPECT_EQ(b.push_count(), 0);
}

}  // namespace
}  // namespace hetps
