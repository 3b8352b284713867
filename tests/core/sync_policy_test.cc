#include "core/sync_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

namespace hetps {
namespace {

TEST(SyncPolicyTest, FactoryProtocols) {
  EXPECT_EQ(SyncPolicy::Bsp().protocol, Protocol::kBsp);
  EXPECT_EQ(SyncPolicy::Bsp().staleness, 0);
  EXPECT_EQ(SyncPolicy::Asp().protocol, Protocol::kAsp);
  EXPECT_EQ(SyncPolicy::Ssp(7).staleness, 7);
}

TEST(SyncPolicyTest, NeedsPullSspThrottle) {
  const SyncPolicy ssp = SyncPolicy::Ssp(3);
  // Algorithm 1 line 8: pull iff cp < c - s.
  EXPECT_FALSE(ssp.NeedsPull(/*clock=*/3, /*cached_cmin=*/0));
  EXPECT_TRUE(ssp.NeedsPull(/*clock=*/4, /*cached_cmin=*/0));
  EXPECT_FALSE(ssp.NeedsPull(/*clock=*/4, /*cached_cmin=*/1));
}

TEST(SyncPolicyTest, BspPullsEveryClock) {
  const SyncPolicy bsp = SyncPolicy::Bsp();
  EXPECT_TRUE(bsp.NeedsPull(1, 0));
  EXPECT_TRUE(bsp.NeedsPull(5, 4));
  EXPECT_FALSE(bsp.NeedsPull(5, 5));
}

TEST(SyncPolicyTest, AspAlwaysPullsNeverBlocks) {
  const SyncPolicy asp = SyncPolicy::Asp();
  EXPECT_TRUE(asp.NeedsPull(0, 0));
  EXPECT_TRUE(asp.NeedsPull(100, 100));
  EXPECT_TRUE(asp.CanAdvance(1000000, 0));
}

TEST(SyncPolicyTest, CanAdvanceEnforcesStalenessWindow) {
  const SyncPolicy ssp = SyncPolicy::Ssp(2);
  EXPECT_TRUE(ssp.CanAdvance(/*next_clock=*/2, /*cmin=*/0));
  EXPECT_FALSE(ssp.CanAdvance(/*next_clock=*/3, /*cmin=*/0));
  EXPECT_TRUE(ssp.CanAdvance(3, 1));
}

TEST(SyncPolicyTest, BspIsBarrier) {
  const SyncPolicy bsp = SyncPolicy::Bsp();
  EXPECT_TRUE(bsp.CanAdvance(1, 1));
  EXPECT_FALSE(bsp.CanAdvance(2, 1));
}

TEST(SyncPolicyTest, HugeStalenessDoesNotOverflow) {
  // Regression test for the signed-overflow fix: Asp() carries
  // staleness = INT_MAX / 2, so `cmin + staleness` evaluated in int is UB
  // once cmin exceeds INT_MAX / 2. The comparison must be done in 64-bit
  // and stay correct at the extremes (under UBSan this test also proves
  // no overflow is executed).
  const int kMax = std::numeric_limits<int>::max();
  const SyncPolicy wide = SyncPolicy::Ssp(kMax / 2);
  EXPECT_TRUE(wide.CanAdvance(/*next_clock=*/kMax, /*cmin=*/kMax / 2 + 1));
  EXPECT_FALSE(wide.CanAdvance(/*next_clock=*/kMax, /*cmin=*/kMax / 2 - 1));
  // Boundary: next_clock == cmin + staleness exactly.
  EXPECT_TRUE(wide.CanAdvance(kMax - 1, kMax / 2));
  // NeedsPull subtracts the staleness: `cached_cmin < clock - s` with
  // clock near INT_MIN-distance must not wrap either.
  EXPECT_FALSE(wide.NeedsPull(/*clock=*/0, /*cached_cmin=*/0));
  EXPECT_TRUE(wide.NeedsPull(/*clock=*/kMax, /*cmin=*/kMax / 2 - 1));
}

TEST(SyncPolicyTest, DebugStringNamesProtocol) {
  EXPECT_EQ(SyncPolicy::Bsp().DebugString(), "BSP");
  EXPECT_EQ(SyncPolicy::Ssp(4).DebugString(), "SSP(s=4)");
}

TEST(ClockTableTest, TracksPerWorkerClocks) {
  ClockTable table(3);
  EXPECT_EQ(table.cmin(), 0);
  EXPECT_EQ(table.cmax(), 0);
  table.OnPush(0, 0);
  EXPECT_EQ(table.clock(0), 1);
  EXPECT_EQ(table.cmax(), 1);
  EXPECT_EQ(table.cmin(), 0);
}

TEST(ClockTableTest, CminAdvancesWhenAllFinish) {
  ClockTable table(3);
  EXPECT_FALSE(table.OnPush(0, 0));
  EXPECT_FALSE(table.OnPush(1, 0));
  EXPECT_TRUE(table.OnPush(2, 0));
  EXPECT_EQ(table.cmin(), 1);
}

TEST(ClockTableTest, CminCatchesUpAcrossMultipleClocks) {
  ClockTable table(2);
  table.OnPush(0, 0);
  table.OnPush(0, 1);
  table.OnPush(0, 2);
  EXPECT_EQ(table.cmin(), 0);
  EXPECT_EQ(table.cmax(), 3);
  // Worker 1 jumps straight to clock 2: cmin jumps to 3.
  EXPECT_TRUE(table.OnPush(1, 2));
  EXPECT_EQ(table.cmin(), 3);
}

TEST(ClockTableTest, SingleWorkerAdvancesFreely) {
  ClockTable table(1);
  for (int c = 0; c < 5; ++c) {
    EXPECT_TRUE(table.OnPush(0, c));
    EXPECT_EQ(table.cmin(), c + 1);
  }
}

TEST(ClockTableTest, StaleOrDuplicatePushIsDroppedNotRegressed) {
  // Regression test for the monotonicity fix: under at-least-once RPC
  // delivery a retried push can re-present an old clock. The table must
  // drop it (counting it) instead of moving the worker backwards, which
  // used to let cmax regress and re-admit pulls that were already
  // rejected.
  ClockTable table(2);
  table.OnPush(0, 0);
  table.OnPush(0, 1);
  table.OnPush(1, 0);
  ASSERT_EQ(table.clock(0), 2);
  ASSERT_EQ(table.cmin(), 1);
  ASSERT_EQ(table.cmax(), 2);
  // Duplicate of clock 1 and a stale clock 0: both dropped.
  EXPECT_FALSE(table.OnPush(0, 1));
  EXPECT_FALSE(table.OnPush(0, 0));
  EXPECT_EQ(table.dropped_regressions(), 2);
  EXPECT_EQ(table.clock(0), 2);
  EXPECT_EQ(table.cmin(), 1);
  EXPECT_EQ(table.cmax(), 2);
  // Fresh pushes still advance normally afterwards.
  EXPECT_TRUE(table.OnPush(1, 1));
  EXPECT_EQ(table.cmin(), 2);
}

TEST(ClockTableTest, DroppedRegressionStartsAtZero) {
  ClockTable table(3);
  EXPECT_EQ(table.dropped_regressions(), 0);
  table.OnPush(0, 0);
  EXPECT_EQ(table.dropped_regressions(), 0);
}

TEST(ClockTableDeathTest, RejectsBadWorker) {
  ClockTable table(2);
  EXPECT_DEATH(table.OnPush(2, 0), "out of range");
  EXPECT_DEATH(ClockTable(0), "at least one worker");
}

TEST(ClockTableTest, EvictRepairsCmin) {
  // The liveness hole: worker 2 dies at clock 0 while 0 and 1 run ahead,
  // pinning cmin at 0. Eviction must recompute cmin over the survivors.
  ClockTable table(3);
  for (int c = 0; c < 3; ++c) {
    table.OnPush(0, c);
    table.OnPush(1, c);
  }
  ASSERT_EQ(table.cmin(), 0);
  ASSERT_EQ(table.cmax(), 3);
  EXPECT_TRUE(table.EvictWorker(2));  // true: cmin advanced
  EXPECT_FALSE(table.is_live(2));
  EXPECT_EQ(table.num_live(), 2);
  EXPECT_EQ(table.cmin(), 3);
  EXPECT_EQ(table.cmax(), 3);  // never lowered
  // Evicting again is a no-op.
  EXPECT_FALSE(table.EvictWorker(2));
}

TEST(ClockTableTest, EvictWithoutRepairReturnsFalse) {
  // Evicting a worker that was not the (sole) cmin holder leaves cmin
  // untouched: the repair signal must be false so callers don't spuriously
  // wake admission waiters.
  ClockTable table(3);
  table.OnPush(0, 0);  // workers 1 and 2 both still at clock 0
  EXPECT_FALSE(table.EvictWorker(0));
  EXPECT_EQ(table.cmin(), 0);
  EXPECT_FALSE(table.is_live(0));
}

TEST(ClockTableTest, EvictLastLiveWorkerRefused) {
  ClockTable table(2);
  EXPECT_FALSE(table.EvictWorker(0));
  EXPECT_FALSE(table.EvictWorker(1));  // refused: would empty the set
  EXPECT_TRUE(table.is_live(1));
  EXPECT_EQ(table.num_live(), 1);
}

TEST(ClockTableTest, EvictedPushIsDroppedAndCounted) {
  ClockTable table(2);
  table.OnPush(0, 0);
  table.EvictWorker(1);
  ASSERT_EQ(table.cmin(), 1);
  // A late push from the evicted worker (e.g. an RPC already in flight
  // when the sweeper fired) must not advance its clock or perturb cmin.
  EXPECT_FALSE(table.OnPush(1, 0));
  EXPECT_EQ(table.evicted_drops(), 1);
  EXPECT_EQ(table.clock(1), 0);
  EXPECT_EQ(table.cmin(), 1);
  EXPECT_EQ(table.dropped_regressions(), 0);  // distinct counters
}

TEST(ClockTableTest, RestoreRevivesEvictedWorkers) {
  ClockTable table(3);
  table.OnPush(0, 0);
  table.OnPush(1, 0);
  table.EvictWorker(2);
  ASSERT_EQ(table.num_live(), 2);
  table.Restore({1, 1, 1});
  EXPECT_EQ(table.num_live(), 3);
  EXPECT_TRUE(table.is_live(2));
  EXPECT_EQ(table.cmin(), 1);
  EXPECT_EQ(table.cmax(), 1);
}

// Property test: a randomized interleaving of pushes and evictions must
// preserve the table invariants the admission gate and version stamps
// depend on — cmin <= cmax, cmin == min over live clocks, cmin monotone
// non-decreasing, cmax monotone non-decreasing, and a live set that only
// shrinks.
TEST(ClockTableTest, EvictPropertyRandomized) {
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 4);
    ClockTable table(n);
    int last_cmin = table.cmin();
    int last_cmax = table.cmax();
    int last_live = table.num_live();
    for (int step = 0; step < 400; ++step) {
      const int w = static_cast<int>(rng() % n);
      const int op = static_cast<int>(rng() % 40);
      if (op < 39) {
        // Push the worker's next clock (evicted workers' pushes model
        // in-flight RPCs from the dead node: dropped).
        table.OnPush(w, table.clock(w));
      } else {
        table.EvictWorker(w);
      }
      ASSERT_LE(table.num_live(), last_live) << "live set grew";
      last_live = table.num_live();
      ASSERT_LE(table.cmin(), table.cmax());
      ASSERT_GE(table.cmin(), last_cmin) << "cmin regressed";
      ASSERT_GE(table.cmax(), last_cmax) << "cmax regressed";
      ASSERT_GE(table.num_live(), 1);
      int min_live = std::numeric_limits<int>::max();
      for (int m = 0; m < n; ++m) {
        if (table.is_live(m)) min_live = std::min(min_live, table.clock(m));
      }
      ASSERT_EQ(table.cmin(), min_live);
      last_cmin = table.cmin();
      last_cmax = table.cmax();
    }
  }
}

}  // namespace
}  // namespace hetps
