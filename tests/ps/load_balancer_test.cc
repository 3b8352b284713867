#include "ps/load_balancer.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetps {
namespace {

/// What a ShardPlane shows its policy: every worker's last reported
/// clock time, with an evicted worker's read as unknown (0). Like the
/// plane, it drops an evicted worker's reports and tells the balancer
/// of each eviction.
struct Cluster {
  explicit Cluster(int workers)
      : seconds(static_cast<size_t>(workers), 0.0),
        live(static_cast<size_t>(workers), true) {}

  void Evict(LoadBalancer* lb, int worker) {
    live[static_cast<size_t>(worker)] = false;
    lb->OnWorkerEvicted(worker);
  }

  std::vector<double> seconds;
  std::vector<bool> live;
};

std::vector<ShardMove> Report(LoadBalancer* lb, Cluster* cluster,
                              int worker, int clock, double seconds,
                              const std::vector<size_t>& sizes) {
  if (!cluster->live[static_cast<size_t>(worker)]) return {};
  cluster->seconds[static_cast<size_t>(worker)] = seconds;
  std::vector<double> known = cluster->seconds;
  for (size_t m = 0; m < known.size(); ++m) {
    if (!cluster->live[m]) known[m] = 0.0;
  }
  return lb->OnClockReport(worker, clock, known, sizes);
}

TEST(EstimateClockSecondsTest, ScalesWithPendingInflow) {
  EXPECT_DOUBLE_EQ(EstimateClockSeconds(2.0, 100, 0), 2.0);
  EXPECT_DOUBLE_EQ(EstimateClockSeconds(2.0, 100, 50), 3.0);
  // Unknown speed stays unknown regardless of inflow.
  EXPECT_DOUBLE_EQ(EstimateClockSeconds(0.0, 100, 50), 0.0);
  // Empty shard must not divide by zero.
  EXPECT_DOUBLE_EQ(EstimateClockSeconds(1.0, 0, 2), 3.0);
}

// The straggler rule: a report is flagged when it is more than
// `straggler_threshold` times the fastest known clock time, its own
// included. A worker that never reported has no known time and counts
// for nothing.
LoadBalancerOptions FlagNeverMove() {
  LoadBalancerOptions opts;
  opts.straggler_threshold = 1.2;
  opts.hysteresis = 100;  // flag, never move
  return opts;
}

/// Whether `worker`'s clock-0 report of `seconds` is flagged.
bool Flagged(LoadBalancer* lb, Cluster* cluster, int worker,
             double seconds) {
  const std::vector<size_t> sizes(cluster->seconds.size(), 100);
  const int64_t before = lb->straggler_flags();
  EXPECT_TRUE(Report(lb, cluster, worker, 0, seconds, sizes).empty());
  return lb->straggler_flags() > before;
}

TEST(LoadBalancerTest, FlagsReportersSlowerThanTheFastest) {
  Cluster cluster(4);
  LoadBalancer lb(4, FlagNeverMove());
  EXPECT_FALSE(Flagged(&lb, &cluster, 0, 1.0));
  EXPECT_FALSE(Flagged(&lb, &cluster, 1, 1.1));
  EXPECT_TRUE(Flagged(&lb, &cluster, 2, 1.5));
  EXPECT_TRUE(Flagged(&lb, &cluster, 3, 2.5));
  EXPECT_EQ(lb.straggler_flags(), 2);
}

TEST(LoadBalancerTest, NoOtherReportsMeansNoStraggler) {
  Cluster cluster(3);
  LoadBalancer lb(3, FlagNeverMove());
  EXPECT_EQ(lb.straggler_flags(), 0);
  // No other report yet: the lone reporter is its own fastest.
  EXPECT_FALSE(Flagged(&lb, &cluster, 2, 2.5));
  EXPECT_EQ(lb.straggler_flags(), 0);
}

TEST(LoadBalancerTest, IgnoresUnreportedWorkers) {
  Cluster cluster(3);
  LoadBalancer lb(3, FlagNeverMove());
  // Workers 1 and 2 never reported (time 0): neither is the fastest,
  // so worker 0 is not flagged against them...
  EXPECT_FALSE(Flagged(&lb, &cluster, 0, 1.0));
  // ...nor does worker 1's unknown time hide a straggler.
  EXPECT_TRUE(Flagged(&lb, &cluster, 2, 1.5));
  EXPECT_EQ(lb.straggler_flags(), 1);
}

TEST(LoadBalancerTest, HysteresisDelaysTheFirstMigration) {
  Cluster cluster(4);
  LoadBalancerOptions opts;
  opts.hysteresis = 3;
  LoadBalancer lb(4, opts);
  const std::vector<size_t> sizes = {100, 100, 100, 100};
  for (int m = 0; m < 3; ++m) {
    EXPECT_TRUE(Report(&lb, &cluster, m, 0, 1.0, sizes).empty());
  }
  // Two flagged reports: jitter, not persistence — no move yet.
  EXPECT_TRUE(Report(&lb, &cluster, 3, 0, 3.0, sizes).empty());
  EXPECT_TRUE(Report(&lb, &cluster, 3, 1, 3.0, sizes).empty());
  EXPECT_EQ(lb.straggler_flags(), 2);
  EXPECT_EQ(lb.migrations(), 0);
  // Third consecutive flag opens the gate: 5% of 100 moves to the
  // least-loaded fast worker.
  const auto moves = Report(&lb, &cluster, 3, 2, 3.0, sizes);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 3);
  EXPECT_EQ(moves[0].count, 5u);
  EXPECT_FALSE(moves[0].returned);
  EXPECT_EQ(lb.examples_moved(), 5);
  EXPECT_EQ(lb.migrations(), 1);
  EXPECT_EQ(lb.OutstandingLoans(3), 5u);
}

TEST(LoadBalancerTest, CleanReportResetsTheFlagStreak) {
  Cluster cluster(2);
  LoadBalancerOptions opts;
  opts.hysteresis = 2;
  LoadBalancer lb(2, opts);
  const std::vector<size_t> sizes = {100, 100};
  EXPECT_TRUE(Report(&lb, &cluster, 0, 0, 1.0, sizes).empty());
  EXPECT_TRUE(Report(&lb, &cluster, 1, 0, 3.0, sizes).empty());
  // A clean clock in between restarts the count from zero.
  EXPECT_TRUE(Report(&lb, &cluster, 1, 1, 1.0, sizes).empty());
  EXPECT_TRUE(Report(&lb, &cluster, 1, 2, 3.0, sizes).empty());
  EXPECT_EQ(lb.migrations(), 0);
  EXPECT_FALSE(Report(&lb, &cluster, 1, 3, 3.0, sizes).empty());
}

TEST(LoadBalancerTest, PicksTheLeastLoadedLiveTarget) {
  Cluster cluster(4);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  LoadBalancer lb(4, opts);
  const std::vector<size_t> sizes = {100, 100, 100, 100};
  Report(&lb, &cluster, 0, 0, 2.0, sizes);
  Report(&lb, &cluster, 1, 0, 1.0, sizes);
  Report(&lb, &cluster, 2, 0, 1.5, sizes);
  const auto moves = Report(&lb, &cluster, 3, 0, 3.0, sizes);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].to, 1);
}

TEST(LoadBalancerTest, MinShardFloorStopsShedding) {
  Cluster cluster(2);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.min_shard_size = 8;
  LoadBalancer lb(2, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 8});
  EXPECT_TRUE(Report(&lb, &cluster, 1, 0, 5.0, {100, 8}).empty());
  EXPECT_EQ(lb.examples_moved(), 0);
}

TEST(LoadBalancerTest, PerRoundCapBoundsEachDecision) {
  Cluster cluster(2);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.reassign_fraction = 0.5;
  opts.max_examples_per_round = 3;
  LoadBalancer lb(2, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 100});
  const auto moves = Report(&lb, &cluster, 1, 0, 5.0, {100, 100});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].count, 3u);
}

TEST(LoadBalancerTest, EqualizedLoadStopsFurtherMoves) {
  Cluster cluster(2);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.reassign_fraction = 0.3;
  LoadBalancer lb(2, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 100});
  // First flagged report sheds 30 examples to worker 0.
  ASSERT_EQ(Report(&lb, &cluster, 1, 0, 3.0, {100, 100}).size(), 1u);
  // Worker 1 is still nominally flagged (1.4 > 1.2 * 1.0), but worker
  // 0's estimated clock now carries the 30 in-flight examples
  // (1.0 * 130/100 = 1.3), so the straggler rule re-checked against the
  // chosen target says the pair is equalized: no further move.
  EXPECT_TRUE(Report(&lb, &cluster, 1, 1, 1.4, {130, 70}).empty());
  EXPECT_EQ(lb.examples_moved(), 30);
}

TEST(LoadBalancerTest, RecoveredStragglerReclaimsItsLoans) {
  Cluster cluster(3);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.recovery_windows = 2;
  opts.reassign_fraction = 0.1;
  LoadBalancer lb(3, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 100, 100});
  Report(&lb, &cluster, 1, 0, 1.0, {100, 100, 100});
  const auto out = Report(&lb, &cluster, 2, 0, 3.0, {100, 100, 100});
  ASSERT_EQ(out.size(), 1u);
  const int borrower = out[0].to;
  EXPECT_EQ(lb.OutstandingLoans(2), 10u);
  // The congestion ends: worker 2 reports true fast clocks. One clean
  // report is not enough...
  std::vector<size_t> sizes = {100, 100, 90};
  sizes[static_cast<size_t>(borrower)] += 10;
  EXPECT_TRUE(Report(&lb, &cluster, 2, 1, 1.0, sizes).empty());
  // ...the second reclaims the loan from the borrower.
  const auto back = Report(&lb, &cluster, 2, 2, 1.0, sizes);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].from, borrower);
  EXPECT_EQ(back[0].to, 2);
  EXPECT_EQ(back[0].count, 10u);
  EXPECT_TRUE(back[0].returned);
  EXPECT_EQ(lb.examples_returned(), 10);
  EXPECT_EQ(lb.OutstandingLoans(2), 0u);
}

TEST(LoadBalancerTest, PermanentStragglerNeverReclaims) {
  // A permanent straggler eventually reads as "clean" only because its
  // shard shrank. Reclaiming would re-flag it next clock (shed/reclaim
  // thrash), so the projected-time gate must hold the loans out.
  Cluster cluster(2);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.recovery_windows = 1;
  opts.reassign_fraction = 0.4;
  LoadBalancer lb(2, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 100});
  ASSERT_EQ(Report(&lb, &cluster, 1, 0, 3.0, {100, 100}).size(), 1u);
  EXPECT_EQ(lb.OutstandingLoans(1), 40u);
  // With 60 examples the 2x-slow worker clocks 1.15s — under the 1.2
  // threshold, so it is clean. But projected back onto the full shard
  // (1.15 * 100/60 = 1.92) it would instantly re-straggle: no reclaim.
  EXPECT_TRUE(Report(&lb, &cluster, 1, 1, 1.15, {140, 60}).empty());
  EXPECT_TRUE(Report(&lb, &cluster, 1, 2, 1.15, {140, 60}).empty());
  EXPECT_EQ(lb.examples_returned(), 0);
  EXPECT_EQ(lb.OutstandingLoans(1), 40u);
}

TEST(LoadBalancerTest, DeadWorkersNeitherReportNorBorrow) {
  Cluster cluster(3);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  LoadBalancer lb(3, opts);
  const std::vector<size_t> sizes = {100, 100, 100};
  Report(&lb, &cluster, 0, 0, 1.0, sizes);
  cluster.Evict(&lb, 2);
  // A zombie's report decides nothing and leaves no flag behind.
  EXPECT_TRUE(Report(&lb, &cluster, 2, 0, 9.0, sizes).empty());
  EXPECT_EQ(lb.straggler_flags(), 0);
  // And a live straggler never sheds toward the dead worker.
  const auto moves = Report(&lb, &cluster, 1, 0, 3.0, sizes);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].to, 0);
}

TEST(LoadBalancerTest, EvictionWritesOffLoansBothWays) {
  Cluster cluster(3);
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.recovery_windows = 1;
  opts.reassign_fraction = 0.1;
  LoadBalancer lb(3, opts);
  Report(&lb, &cluster, 0, 0, 1.0, {100, 100, 100});
  Report(&lb, &cluster, 1, 0, 1.0, {100, 100, 100});
  const auto out = Report(&lb, &cluster, 2, 0, 3.0, {100, 100, 100});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(lb.OutstandingLoans(2), 10u);
  // The straggler itself is evicted: its ledger entries die with it.
  cluster.Evict(&lb, 2);
  EXPECT_EQ(lb.OutstandingLoans(2), 0u);
  // A recovered worker whose *borrower* died reclaims nothing either —
  // the borrower's shard (loan included) went through eviction failover.
  Report(&lb, &cluster, 0, 1, 1.0, {110, 100, 100});
  const auto out2 = Report(&lb, &cluster, 1, 1, 3.0, {110, 100, 100});
  ASSERT_EQ(out2.size(), 1u);
  const int borrower = out2[0].to;
  cluster.Evict(&lb, borrower);
  const auto back = Report(&lb, &cluster, 1, 2, 1.0, {110, 100, 90});
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(lb.OutstandingLoans(1), 0u);
  EXPECT_EQ(lb.examples_returned(), 0);
}

TEST(LoadBalancerDeathTest, ValidatesOptions) {
  LoadBalancerOptions bad_threshold;
  bad_threshold.straggler_threshold = 1.0;
  EXPECT_DEATH(LoadBalancer(2, bad_threshold), "threshold");
  LoadBalancerOptions bad_fraction;
  bad_fraction.reassign_fraction = 0.0;
  EXPECT_DEATH(LoadBalancer(2, bad_fraction), "fraction");
  LoadBalancerOptions ok;
  EXPECT_DEATH(LoadBalancer(0, ok), "worker");
}

}  // namespace
}  // namespace hetps
