#include "ps/parameter_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dyn_sgd.h"
#include "obs/metrics.h"

namespace hetps {
namespace {

PsOptions SmallOptions() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(1);
  return opts;
}

TEST(ParameterServerTest, PushThenSnapshotRoundTrips) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  SparseVector u({0, 4, 9}, {1.0, 2.0, 3.0});
  ps.Push(0, 0, u);
  const auto w = ps.Snapshot();
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[4], 2.0);
  EXPECT_DOUBLE_EQ(w[9], 3.0);
  EXPECT_DOUBLE_EQ(w[5], 0.0);
}

TEST(ParameterServerTest, PullFullReturnsAssembledVectorAndCmin) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({3}, {7.0}));
  ps.Push(1, 0, SparseVector({8}, {1.0}));
  int cmin = -1;
  const auto w = ps.PullFull(0, &cmin);
  EXPECT_DOUBLE_EQ(w[3], 7.0);
  EXPECT_DOUBLE_EQ(w[8], 1.0);
  EXPECT_EQ(cmin, 1);  // both workers finished clock 0
}

TEST(ParameterServerTest, ClockAccounting) {
  SspRule rule;
  ParameterServer ps(4, 3, rule, SmallOptions());
  EXPECT_EQ(ps.cmin(), 0);
  ps.Push(0, 0, SparseVector());
  ps.Push(0, 1, SparseVector());
  EXPECT_EQ(ps.cmax(), 2);
  EXPECT_EQ(ps.cmin(), 0);
  ps.Push(1, 0, SparseVector());
  ps.Push(2, 0, SparseVector());
  EXPECT_EQ(ps.cmin(), 1);
}

TEST(ParameterServerTest, CanAdvanceFollowsPolicy) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  EXPECT_TRUE(ps.CanAdvance(0, 1));
  EXPECT_FALSE(ps.CanAdvance(0, 2));
  ps.Push(0, 0, SparseVector());
  ps.Push(1, 0, SparseVector());
  EXPECT_TRUE(ps.CanAdvance(0, 2));
}

TEST(ParameterServerTest, WaitUntilCanAdvanceWakesOnPush) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Bsp();
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  std::thread waiter([&] { ps.WaitUntilCanAdvance(0, 1); });
  // Worker 1's push completes the barrier and must wake the waiter.
  ps.Push(1, 0, SparseVector({1}, {1.0}));
  waiter.join();
  SUCCEED();
}

TEST(ParameterServerTest, UpdateFilterDropsTinyEntries) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.update_filter_epsilon = 1e-6;
  ParameterServer ps(4, 1, rule, opts);
  ps.Push(0, 0, SparseVector({0, 1}, {1e-9, 0.5}));
  const auto w = ps.Snapshot();
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(ParameterServerTest, TotalPushesSkipsEmptyPiecesForNoOpRules) {
  SspRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  // SspRule declares EmptyPushIsNoOp(): the single-key push touches one
  // partition; the three empty pieces are skipped entirely.
  EXPECT_EQ(ps.TotalPushes(), 1);
  // The clock still advanced exactly once.
  EXPECT_EQ(ps.cmax(), 1);
  ps.Push(0, 1, SparseVector({0, 3, 5, 8}, {1.0, 1.0, 1.0, 1.0}));
  // A push spanning all four partitions counts four pieces.
  EXPECT_EQ(ps.TotalPushes(), 5);
}

TEST(ParameterServerTest, FilterEmptiedPiecesAreSkippedButClockAdvances) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.update_filter_epsilon = 1e-6;
  ParameterServer ps(10, 1, rule, opts);
  // Every entry is below epsilon: the whole push is filtered away.
  ps.Push(0, 0, SparseVector({0, 3, 5, 8}, {1e-9, 1e-9, 1e-9, 1e-9}));
  EXPECT_EQ(ps.TotalPushes(), 0);
  // The worker still finished clock 0 — SSP admission must not stall.
  EXPECT_EQ(ps.cmax(), 1);
  EXPECT_EQ(ps.cmin(), 1);
  EXPECT_TRUE(ps.CanAdvance(0, 2));
}

TEST(ParameterServerTest, EmptyPiecesStillCountForVersionTrackingRules) {
  // DynSGD treats an empty piece as the "worker finished this clock
  // here" marker the stable-version bookkeeping counts, so pieces are
  // not skipped.
  DynSgdRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  EXPECT_EQ(ps.TotalPushes(), 4);
}

TEST(ParameterServerTest, MasterSeesCompletedVersions) {
  DynSgdRule rule;
  PsOptions opts = SmallOptions();
  opts.partition_sync = true;
  ParameterServer ps(8, 2, rule, opts);
  EXPECT_EQ(ps.StableVersion(), 0);
  ps.Push(0, 0, SparseVector({0, 7}, {1.0, 1.0}));
  // Version 0 is not complete until both workers contributed.
  EXPECT_EQ(ps.StableVersion(), 0);
  ps.Push(1, 0, SparseVector({3}, {1.0}));
  EXPECT_EQ(ps.StableVersion(), 1);
}

TEST(ParameterServerTest, PartitionSyncPullUsesStableVersion) {
  DynSgdRule::Options dopts;
  dopts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(dopts);
  PsOptions opts;
  opts.num_servers = 1;
  opts.partitions_per_server = 2;
  opts.partition_sync = true;
  ParameterServer ps(2, 2, rule, opts);
  // Both workers complete clock 0 on both partitions.
  for (int worker = 0; worker < 2; ++worker) {
    const auto pieces = ps.partitioner().SplitByPartition(
        SparseVector({0, 1}, {1.0, 2.0}));
    for (int p = 0; p < 2; ++p) {
      ps.PushPiece(p, worker, 0, pieces[static_cast<size_t>(p)], p == 1);
    }
  }
  EXPECT_EQ(ps.StableVersion(), 1);
  // Worker 0's clock-1 piece reaches only the partition of key 0; the
  // other piece is still in flight.
  const int hot = ps.partitioner().PartitionOf(0);
  const auto pieces2 =
      ps.partitioner().SplitByPartition(SparseVector({0}, {10.0}));
  ps.PushPiece(hot, 0, 1, pieces2[static_cast<size_t>(hot)], false);
  // A synchronized pull serves the consistent clock-0 state, ignoring
  // the in-flight clock-1 fragment.
  const auto w = ps.PullFull(1);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
}

// The simulator reads one partition at a time; each read must be the
// piece PullDelta builds for that partition against the same cached tag.
TEST(ParameterServerTest, PullPartitionBuildsThePullDeltaPiece) {
  SspRule rule;
  ParameterServer ps(20, 2, rule, SmallOptions());
  const int parts = ps.num_partitions();
  const auto expect_same_pieces = [&](const std::vector<int64_t>& tags) {
    const DeltaPullResult all = ps.PullDelta(1, tags);
    ASSERT_EQ(all.partitions.size(), static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      const PartitionPull& want = all.partitions[static_cast<size_t>(p)];
      const PartitionPull got =
          ps.PullPartition(p, 1, /*version=*/-1, tags[static_cast<size_t>(p)]);
      EXPECT_EQ(got.partition, p);
      EXPECT_EQ(got.encoding, want.encoding) << "partition " << p;
      EXPECT_EQ(got.tag, want.tag) << "partition " << p;
      EXPECT_EQ(got.base_tag, want.base_tag) << "partition " << p;
      EXPECT_EQ(got.dense, want.dense) << "partition " << p;
      EXPECT_EQ(got.sparse.indices(), want.sparse.indices()) << p;
      EXPECT_EQ(got.sparse.values(), want.sparse.values()) << p;
    }
  };
  const auto current_tags = [&] {
    std::vector<int64_t> tags;
    for (int p = 0; p < parts; ++p) tags.push_back(ps.PartitionTag(p));
    return tags;
  };
  const int hot = ps.partitioner().PartitionOf(7);
  const auto hot_encoding = [&](const std::vector<int64_t>& tags) {
    return ps.PullPartition(hot, 1, -1, tags[static_cast<size_t>(hot)])
        .encoding;
  };
  using Encoding = PartitionPull::Encoding;

  const std::vector<int64_t> none(static_cast<size_t>(parts), kNoCachedTag);
  ps.Push(0, 0, SparseVector({3, 7, 15}, {1.0, 2.0, 3.0}));
  expect_same_pieces(none);
  EXPECT_EQ(hot_encoding(none), Encoding::kSparse);
  std::vector<int64_t> tags = current_tags();
  expect_same_pieces(tags);
  EXPECT_EQ(hot_encoding(tags), Encoding::kUnchanged);

  std::vector<int64_t> all_keys(20);
  for (int64_t k = 0; k < 20; ++k) all_keys[static_cast<size_t>(k)] = k;
  ps.Push(1, 0, SparseVector(all_keys, std::vector<double>(20, 1.0)));
  expect_same_pieces(tags);
  EXPECT_EQ(hot_encoding(tags), Encoding::kDense);

  tags = current_tags();
  ps.Push(0, 1, SparseVector({7}, {5.0}));
  expect_same_pieces(tags);
  EXPECT_EQ(hot_encoding(tags), Encoding::kSparseDelta);
}

TEST(ParameterServerTest, MemoryAccountingAggregatesShards) {
  DynSgdRule rule;
  ParameterServer ps(100, 2, rule, SmallOptions());
  EXPECT_EQ(ps.ParamMemoryBytes(), 100 * sizeof(double));
  const size_t before = ps.AuxMemoryBytes();
  ps.Push(0, 0, SparseVector({0, 50}, {1.0, 1.0}));
  EXPECT_GT(ps.AuxMemoryBytes(), before);
}

TEST(ParameterServerTest, ConcurrentPushesAreSafe) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(32, 4, rule, opts);
  std::vector<std::thread> threads;
  for (int m = 0; m < 4; ++m) {
    threads.emplace_back([&ps, m] {
      for (int c = 0; c < 50; ++c) {
        SparseVector u;
        u.PushBack(m, 1.0);
        u.PushBack(16 + m, 1.0);
        ps.Push(m, c, u);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto w = ps.Snapshot();
  for (int m = 0; m < 4; ++m) {
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(m)], 50.0);
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(16 + m)], 50.0);
  }
  EXPECT_EQ(ps.cmin(), 50);
}

TEST(ParameterServerTest, EvictionUnblocksWaitingSurvivor) {
  // The liveness hole end to end at PS granularity: under SSP(1) with
  // two workers, worker 1 dies at clock 0 while worker 0 runs ahead and
  // blocks at the admission gate. EvictWorker must repair cmin and wake
  // the blocked survivor — without it this test would hang forever.
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ps.Push(0, 1, SparseVector({0}, {1.0}));
  ASSERT_FALSE(ps.CanAdvance(0, 2));  // worker 1 pins cmin at 0
  const int64_t repairs_before =
      GlobalMetrics().counter("ps.cmin_repairs")->value();
  std::atomic<bool> admitted{false};
  std::thread waiter([&] { admitted = ps.WaitUntilCanAdvance(0, 2); });
  EXPECT_TRUE(ps.EvictWorker(1));
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ps.cmin(), 2);
  EXPECT_FALSE(ps.IsWorkerLive(1));
  EXPECT_EQ(ps.num_live_workers(), 1);
  EXPECT_EQ(GlobalMetrics().counter("ps.cmin_repairs")->value(),
            repairs_before + 1);
  // Evicting again is a no-op.
  EXPECT_FALSE(ps.EvictWorker(1));
}

TEST(ParameterServerTest, VictimsOwnWaitReturnsNotAdmitted) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(1, 0, SparseVector());
  ps.Push(1, 1, SparseVector());
  // Worker 1 blocks at clock 2 (worker 0 is behind), then gets evicted:
  // its wait must return false (not admitted), never true.
  std::atomic<bool> admitted{true};
  std::thread victim([&] { admitted = ps.WaitUntilCanAdvance(1, 2); });
  EXPECT_TRUE(ps.EvictWorker(1));
  victim.join();
  EXPECT_FALSE(admitted.load());
  // And once evicted, the fast path refuses immediately too.
  EXPECT_FALSE(ps.WaitUntilCanAdvance(1, 2));
  EXPECT_FALSE(ps.CanAdvance(1, 1));
}

TEST(ParameterServerTest, EvictedPushesAreDroppedAndCounted) {
  SspRule rule;
  ParameterServer ps(4, 2, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ASSERT_TRUE(ps.EvictWorker(1));
  const int64_t dropped_before =
      GlobalMetrics().counter("ps.evicted_pushes_dropped")->value();
  // A late push from the dead worker: state and clocks must not move.
  ps.Push(1, 0, SparseVector({1}, {5.0}));
  EXPECT_DOUBLE_EQ(ps.Snapshot()[1], 0.0);
  EXPECT_EQ(ps.cmin(), 1);
  EXPECT_EQ(GlobalMetrics().counter("ps.evicted_pushes_dropped")->value(),
            dropped_before + 1);
}

TEST(ParameterServerTest, DebugStringDescribesSetup) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  const std::string s = ps.DebugString();
  EXPECT_NE(s.find("dim=10"), std::string::npos);
  EXPECT_NE(s.find("SSP"), std::string::npos);
}

}  // namespace
}  // namespace hetps
