// Multithreaded regression and stress tests for the ParameterServer
// lock-ordering discipline (parameter_server.h). Run these under
// ThreadSanitizer (scripts/run_sanitizers.sh tsan) — several of them
// exist precisely because TSan or a deadlock caught a real bug.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dyn_sgd.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions StressOptions() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Asp();  // no admission blocking in stress loops
  return opts;
}

// Regression: SaveCheckpoint took clock_mu_ then shard_mu_[p] while
// PullPiece took shard_mu_[p] then clock_mu_ (to read cmax for the
// OnPull stamp) — a classic ABBA deadlock under concurrent pulls and
// checkpoints. Fixed by snapshotting cmax *before* the shard lock.
// Before the fix this test wedged within a few hundred iterations.
TEST(PsConcurrencyTest, PullsRaceCheckpointsWithoutDeadlock) {
  DynSgdRule rule;
  ParameterServer ps(64, 4, rule, StressOptions());
  // Seed some state so pulls and checkpoints do real work.
  for (int m = 0; m < 4; ++m) {
    ps.Push(m, 0, SparseVector({static_cast<int64_t>(m), 40}, {1.0, 0.5}));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> checkpoints{0};

  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream sink;
      ASSERT_TRUE(ps.SaveCheckpoint(sink).ok());
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> pullers;
  for (int m = 0; m < 3; ++m) {
    pullers.emplace_back([&, m] {
      for (int i = 0; i < 400; ++i) {
        // PullPiece is the shard->clock path that deadlocked; the
        // simulator's PullPartition takes the same locks in the same
        // order.
        for (int p = 0; p < ps.num_partitions(); ++p) {
          ps.PullPiece(p, m);
          ps.PullPartition(p, m, /*version=*/-1, kNoCachedTag);
        }
        ps.PullFull(m);
      }
    });
  }
  for (auto& t : pullers) t.join();
  stop.store(true, std::memory_order_relaxed);
  checkpointer.join();
  EXPECT_GT(checkpoints.load(), 0);
}

// Full-mix stress: concurrent pushes, full pulls, snapshots and
// checkpoints. Checks invariants loosely (exact values depend on
// interleaving) but TSan verifies the locking.
TEST(PsConcurrencyTest, ConcurrentPushPullSnapshotCheckpoint) {
  SspRule rule;
  const int kWorkers = 4;
  const int kClocks = 60;
  ParameterServer ps(128, kWorkers, rule, StressOptions());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(100 + m);
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.1)) u.PushBack(j, 1.0);
        }
        ps.Push(m, c, u);
        if (c % 5 == 0) ps.PullFull(m);
        if (c % 7 == 0) ps.PullDelta(m, {});
      }
    });
  }
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = ps.Snapshot();
      ASSERT_EQ(snap.size(), 128u);
      std::ostringstream sink;
      ASSERT_TRUE(ps.SaveCheckpoint(sink).ok());
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  // Every worker finished every clock.
  EXPECT_EQ(ps.cmin(), kClocks);
  EXPECT_EQ(ps.cmax(), kClocks);
}

// LoadCheckpoint commits shadow state under the full lock hierarchy
// while readers keep pulling: restores must never tear a pull (a pull
// sees either the old or the new state per partition, and never
// crashes or races).
TEST(PsConcurrencyTest, RestoreRacesPullsSafely) {
  DynSgdRule rule;
  ParameterServer ps(32, 2, rule, StressOptions());
  ps.Push(0, 0, SparseVector({1}, {1.0}));
  ps.Push(1, 0, SparseVector({20}, {2.0}));
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  const std::string ckpt = buffer.str();
  // Every restore returns to exactly this state, so concurrent pulls
  // must always observe it (the rule's materialization is
  // deterministic).
  const std::vector<double> expected = ps.Snapshot();

  std::atomic<bool> stop{false};
  std::thread restorer([&] {
    for (int i = 0; i < 50; ++i) {
      std::stringstream is(ckpt);
      ASSERT_TRUE(ps.LoadCheckpoint(is).ok());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> pullers;
  for (int m = 0; m < 2; ++m) {
    pullers.emplace_back([&, m] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto w = ps.PullFull(m);
        ASSERT_EQ(w.size(), 32u);
        EXPECT_DOUBLE_EQ(w[1], expected[1]);
        EXPECT_DOUBLE_EQ(w[20], expected[20]);
      }
    });
  }
  restorer.join();
  for (auto& t : pullers) t.join();
}

// SSP waiters blocked in WaitUntilCanAdvance must wake when a restore
// rewinds/advances the clock table (the commit notifies clock_cv_).
TEST(PsConcurrencyTest, RestoreWakesSspWaiters) {
  SspRule rule;
  PsOptions opts = StressOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer slow(8, 2, rule, opts);

  // Build a checkpoint where both workers finished clock 1.
  ParameterServer fast(8, 2, rule, opts);
  for (int c = 0; c < 2; ++c) {
    fast.Push(0, c, SparseVector({0}, {1.0}));
    fast.Push(1, c, SparseVector({1}, {1.0}));
  }
  std::stringstream buffer;
  ASSERT_TRUE(fast.SaveCheckpoint(buffer).ok());

  // Worker 0 in `slow` is ahead and blocks on clock 3 admission.
  slow.Push(0, 0, SparseVector({0}, {1.0}));
  slow.Push(0, 1, SparseVector({0}, {1.0}));
  std::thread waiter([&] { slow.WaitUntilCanAdvance(0, 3); });
  // The restore brings cmin to 2, admitting clock 3 under SSP(1).
  ASSERT_TRUE(slow.LoadCheckpoint(buffer).ok());
  waiter.join();
  EXPECT_EQ(slow.cmin(), 2);
}

// Eviction races pushers: while every worker hammers pushes and pulls,
// an evictor thread removes workers 3, 4 and 5 one after another. Sampled
// invariant: cmin <= cmax at all times, and the run terminates (no
// waiter left stranded, no deadlock between the clock lock and the shard
// locks). TSan verifies the locking.
TEST(PsConcurrencyTest, EvictionRacesPushers) {
  SspRule rule;
  const int kWorkers = 6;
  const int kClocks = 80;
  ParameterServer ps(64, kWorkers, rule, StressOptions());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        u.PushBack(m, 1.0);
        u.PushBack(32 + m, 1.0);
        // The victims' pushes after their eviction are dropped — that is
        // the point: drops must be silent, counted, and non-corrupting.
        ps.Push(m, c, u);
        if (c % 9 == 0) ps.PullFull(m);
      }
    });
  }
  std::thread evictor([&] {
    int victim = 3;
    while (!stop.load(std::memory_order_relaxed)) {
      if (victim < kWorkers && ps.cmax() >= 10 * (victim - 2)) {
        ASSERT_TRUE(ps.EvictWorker(victim));
        ++victim;
      }
      ASSERT_LE(ps.cmin(), ps.cmax());
      ASSERT_GE(ps.num_live_workers(), kWorkers - (victim - 3));
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();

  EXPECT_LE(ps.cmin(), ps.cmax());
  // Workers 0-2 were never evicted: all their clocks landed.
  EXPECT_EQ(ps.cmax(), kClocks);
  EXPECT_EQ(ps.cmin(), kClocks);
}

// Shard-parallel push apply must be a pure scheduling change: the same
// push sequence lands on the same state whether pieces apply serially
// or fan out over the shared pool (pieces of one push touch distinct
// shards, so apply order cannot matter).
TEST(PsConcurrencyTest, ParallelPushApplyMatchesSerial) {
  DynSgdRule rule;
  auto run = [&](int push_parallelism) {
    PsOptions opts = StressOptions();
    opts.partitions_per_server = 4;  // 8 partitions: real fan-out
    opts.push_parallelism = push_parallelism;
    ParameterServer ps(128, 2, rule, opts);
    Rng rng(9);
    for (int c = 0; c < 20; ++c) {
      for (int m = 0; m < 2; ++m) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.2)) u.PushBack(j, 0.1 * (m + 1));
        }
        ps.Push(m, c, u);
      }
    }
    EXPECT_EQ(ps.cmin(), 20);  // AdvanceClock fired once per push
    return ps.Snapshot();
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> parallel = run(4);
  const std::vector<double> auto_sized = run(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "index " << i;
    EXPECT_DOUBLE_EQ(serial[i], auto_sized[i]) << "index " << i;
  }
}

// Edge configurations of the pool-sizing knob: 0 (auto), 1 (serial)
// and far more threads than the hardware has must all produce the same
// pull and push results.
TEST(PsConcurrencyTest, PoolSizeEdgeConfigsAgree) {
  DynSgdRule rule;
  std::vector<double> reference;
  for (const int parallelism : {0, 1, 256}) {
    PsOptions opts = StressOptions();
    opts.partitions_per_server = 4;
    opts.push_parallelism = parallelism;
    ParameterServer ps(96, 2, rule, opts);
    ps.Push(0, 0, SparseVector({0, 50, 95}, {1.0, 2.0, 3.0}));
    ps.Push(1, 0, SparseVector({1, 60}, {4.0, 5.0}));
    const std::vector<double> pulled = ps.PullFull(0);
    ASSERT_EQ(pulled.size(), 96u);
    if (reference.empty()) {
      reference = pulled;
    } else {
      for (size_t i = 0; i < pulled.size(); ++i) {
        EXPECT_DOUBLE_EQ(pulled[i], reference[i])
            << "parallelism " << parallelism << " index " << i;
      }
    }
  }
}

// Concurrent pushers share ONE apply pool for their pieces while pulls
// run on the callers' threads; neither may starve or race the other.
// TSan verifies the locking; the final clock/state checks verify nothing
// was dropped.
TEST(PsConcurrencyTest, SharedPoolServesPullsAndPushApplies) {
  DynSgdRule rule;
  const int kWorkers = 4;
  const int kClocks = 40;
  PsOptions opts = StressOptions();
  opts.partitions_per_server = 4;
  opts.push_parallelism = 3;
  ParameterServer ps(128, kWorkers, rule, opts);

  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(200 + m);
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.1)) u.PushBack(j, 0.5);
        }
        ps.Push(m, c, u);  // parallel piece apply on the shared pool
        if (c % 3 == 0) {
          ASSERT_EQ(ps.PullFull(m).size(), 128u);  // caller-thread assembly
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ps.cmin(), kClocks);
  EXPECT_EQ(ps.cmax(), kClocks);
}

// Regression (the silent-drop bug): when the pool refuses work — here,
// after an explicit shutdown — parallel push applies must degrade to
// inline execution, not drop partitions. Before the fix a refused Submit
// left partitions unwritten and the latch hanging.
TEST(PsConcurrencyTest, PoolShutdownDegradesToInlineExecution) {
  DynSgdRule rule;
  PsOptions opts = StressOptions();
  opts.partitions_per_server = 4;
  opts.push_parallelism = 3;
  ParameterServer ps(64, 1, rule, opts);
  ps.Push(0, 0, SparseVector({0, 33, 63}, {1.0, 2.0, 3.0}));

  ps.ShutdownApplyPoolForTest();

  // Pull after shutdown: every partition must still materialize.
  const std::vector<double> pulled = ps.PullFull(0);
  ASSERT_EQ(pulled.size(), 64u);
  EXPECT_DOUBLE_EQ(pulled[0], 1.0);
  EXPECT_DOUBLE_EQ(pulled[33], 2.0);
  EXPECT_DOUBLE_EQ(pulled[63], 3.0);

  // Push after shutdown: pieces apply inline, the clock still advances.
  ps.Push(0, 1, SparseVector({5, 40}, {1.0, 1.0}));
  EXPECT_EQ(ps.cmin(), 2);
  const std::vector<double> after = ps.PullFull(0);
  EXPECT_DOUBLE_EQ(after[5], 1.0);
  EXPECT_DOUBLE_EQ(after[40], 1.0);
}

}  // namespace
}  // namespace hetps
