#include "ps/worker_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace hetps {
namespace {

PsOptions Options(SyncPolicy sync) {
  PsOptions opts;
  opts.num_servers = 2;
  opts.sync = sync;
  return opts;
}

TEST(WorkerClientTest, PushCountsAndReachesServer) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.Push(0, SparseVector({2}, {5.0}));
  EXPECT_EQ(client.push_count(), 1);
  EXPECT_DOUBLE_EQ(ps.Snapshot()[2], 5.0);
}

TEST(WorkerClientTest, MaybePullRespectsSspThrottle) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Ssp(2)));
  WorkerClient client(0, &ps);
  std::vector<double> replica(4, 0.0);
  // Single worker: cmin advances with every push.
  client.Push(0, SparseVector());
  EXPECT_FALSE(client.MaybePull(0, &replica));  // cp=0 !< 0-2
  client.Push(1, SparseVector());
  client.Push(2, SparseVector());
  EXPECT_TRUE(client.MaybePull(3, &replica));  // cp=0 < 3-2
  EXPECT_EQ(client.pull_count(), 1);
  EXPECT_EQ(client.cached_cmin(), 3);
}

TEST(WorkerClientTest, AspPullsEveryClockWithoutBlocking) {
  SspRule rule;
  ParameterServer ps(4, 2, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  std::vector<double> replica(4, 0.0);
  for (int c = 0; c < 3; ++c) {
    client.Push(c, SparseVector());
    EXPECT_TRUE(client.MaybePull(c, &replica));
  }
  EXPECT_EQ(client.pull_count(), 3);
}

TEST(WorkerClientTest, PullRefreshesReplica) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  std::vector<double> replica(4, 0.0);
  client.Push(0, SparseVector({1}, {3.0}));
  client.PullBlocking(1, &replica);
  EXPECT_DOUBLE_EQ(replica[1], 3.0);
}

TEST(WorkerClientTest, BspBarrierBlocksUntilPeersPush) {
  SspRule rule;
  ParameterServer ps(4, 2, rule, Options(SyncPolicy::Bsp()));
  WorkerClient fast(0, &ps);
  std::vector<double> replica(4, 0.0);
  fast.Push(0, SparseVector({0}, {1.0}));
  std::thread t([&] { fast.PullBlocking(1, &replica); });
  // The slow peer's push releases the barrier.
  WorkerClient slow(1, &ps);
  slow.Push(0, SparseVector({1}, {2.0}));
  t.join();
  EXPECT_DOUBLE_EQ(replica[0], 1.0);
  EXPECT_DOUBLE_EQ(replica[1], 2.0);
}

TEST(WorkerClientTest, PrefetchDeliversPulledState) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.Push(0, SparseVector({1}, {3.0}));
  EXPECT_FALSE(client.prefetch_active());
  client.StartPrefetch(1);
  EXPECT_TRUE(client.prefetch_active());
  std::vector<double> replica(4, 0.0);
  EXPECT_TRUE(client.FinishPrefetch(&replica).ok());
  EXPECT_FALSE(client.prefetch_active());
  EXPECT_DOUBLE_EQ(replica[1], 3.0);
  EXPECT_EQ(client.pull_count(), 1);
}

TEST(WorkerClientTest, FinishWithoutStartIsNoOp) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  std::vector<double> replica(4, 7.0);
  EXPECT_FALSE(client.FinishPrefetch(&replica).ok());
  EXPECT_DOUBLE_EQ(replica[0], 7.0);  // untouched
}

TEST(WorkerClientTest, PrefetchWaitsForSspAdmission) {
  SspRule rule;
  ParameterServer ps(4, 2, rule, Options(SyncPolicy::Bsp()));
  WorkerClient fast(0, &ps);
  fast.Push(0, SparseVector({0}, {1.0}));
  fast.StartPrefetch(1);  // blocked until the peer pushes clock 0
  WorkerClient slow(1, &ps);
  slow.Push(0, SparseVector({1}, {2.0}));
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(fast.FinishPrefetch(&replica).ok());
  EXPECT_DOUBLE_EQ(replica[0], 1.0);
  EXPECT_DOUBLE_EQ(replica[1], 2.0);
}

TEST(WorkerClientDeathTest, DoublePrefetchDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(0);
  EXPECT_DEATH(client.StartPrefetch(0), "already in flight");
}

TEST(WorkerClientTest, DestructorCancelsBlockedPrefetch) {
  // The prefetch task is parked in the SSP admission wait (the peer
  // never pushes). Destroying the client must cancel the wait and join
  // the task instead of hanging — the teardown path that used to leave
  // a detached future blocked on a condition variable the PS was about
  // to destroy.
  SspRule rule;
  ParameterServer ps(4, 2, rule, Options(SyncPolicy::Ssp(0)));
  {
    WorkerClient fast(0, &ps);
    fast.Push(0, SparseVector({0}, {1.0}));
    fast.StartPrefetch(1);  // blocks: worker 1 never finishes clock 0
    // Give the task a moment to actually enter the wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // ~WorkerClient must return
  SUCCEED();
}

TEST(WorkerClientTest, PushOfEarlierClockOverlapsPrefetch) {
  // The intended pipeline: StartPrefetch(c + 1) ... Push(c). The push
  // here is what unblocks the prefetch's admission wait.
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Ssp(0)));
  WorkerClient client(0, &ps);
  client.StartPrefetch(1);  // waits for clock 0 to be pushed
  client.Push(0, SparseVector({2}, {4.0}));
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(client.FinishPrefetch(&replica).ok());
  EXPECT_DOUBLE_EQ(replica[2], 4.0);
}

TEST(WorkerClientDeathTest, PushRacingPrefetchedClockDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(1);
  // Pushing the prefetched clock itself while the pull is in flight is a
  // loop-sequencing bug, not a legal overlap.
  EXPECT_DEATH(client.Push(1, SparseVector({0}, {1.0})),
               "racing in-flight prefetch");
}

TEST(WorkerClientDeathTest, PullBlockingDuringPrefetchDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(1);
  std::vector<double> replica;
  EXPECT_DEATH(client.PullBlocking(1, &replica),
               "racing in-flight prefetch");
}

TEST(WorkerClientDeathTest, ValidatesConstruction) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  EXPECT_DEATH(WorkerClient(1, &ps), "out of range");
  EXPECT_DEATH(WorkerClient(0, nullptr), "null");
}

}  // namespace
}  // namespace hetps
