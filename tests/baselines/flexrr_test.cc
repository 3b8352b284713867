#include "baselines/flexrr.h"

#include <gtest/gtest.h>

namespace hetps {
namespace {

// Three workers with 30 examples each; FlexRR only decides moves, so the
// harness applies them to the sizes the way the ShardPlane applies them
// to the entitlements.
struct Harness {
  Harness() : master(1, 3) {}

  size_t Report(FlexRrMitigation* flexrr, int worker, int clock,
                double seconds) {
    size_t moved = 0;
    for (const ShardMove& mv :
         flexrr->OnClockReport(worker, clock, seconds, &master, sizes)) {
      EXPECT_EQ(mv.from, worker);
      EXPECT_NE(mv.to, worker);
      EXPECT_FALSE(mv.returned);
      sizes[static_cast<size_t>(mv.from)] -= mv.count;
      sizes[static_cast<size_t>(mv.to)] += mv.count;
      moved += mv.count;
    }
    return moved;
  }

  Master master;
  std::vector<size_t> sizes = {30, 30, 30};
};

TEST(FlexRrTest, MovesDataFromStragglerToFastest) {
  Harness h;
  FlexRrMitigation flexrr;
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.0);
  h.master.ReportClockTime(2, 3.0);  // straggler
  const size_t straggler_before = h.sizes[2];
  const size_t fastest_before = h.sizes[0];
  h.Report(&flexrr, 2, /*clock=*/0, 3.0);
  EXPECT_LT(h.sizes[2], straggler_before);
  EXPECT_GT(h.sizes[0], fastest_before);
  EXPECT_GT(flexrr.examples_reassigned(), 0u);
}

TEST(FlexRrTest, NoMoveWithinThreshold) {
  Harness h;
  FlexRrMitigation flexrr;
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.1);
  h.master.ReportClockTime(2, 1.15);  // within 20%
  const size_t before = h.sizes[2];
  h.Report(&flexrr, 2, 0, 1.15);
  EXPECT_EQ(h.sizes[2], before);
  EXPECT_EQ(flexrr.examples_reassigned(), 0u);
}

TEST(FlexRrTest, FastestWorkerNeverDonatesToItself) {
  Harness h;
  FlexRrMitigation flexrr;
  h.master.ReportClockTime(0, 1.0);
  const size_t before = h.sizes[0];
  h.Report(&flexrr, 0, 0, 1.0);
  EXPECT_EQ(h.sizes[0], before);
}

TEST(FlexRrTest, RespectsMinimumShardSize) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.min_shard_size = 30;  // shards are exactly 30
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(2, 5.0);
  h.Report(&flexrr, 2, 0, 5.0);
  EXPECT_EQ(h.sizes[2], 30u);
}

TEST(FlexRrTest, RepeatedReassignmentConverges) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.2;
  opts.min_shard_size = 5;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.0);
  h.master.ReportClockTime(2, 4.0);
  for (int i = 0; i < 50; ++i) h.Report(&flexrr, 2, i, 4.0);
  EXPECT_GE(h.sizes[2], 5u);
  // Total data conserved.
  EXPECT_EQ(h.sizes[0] + h.sizes[1] + h.sizes[2], 90u);
}

TEST(FlexRrTest, SpreadsLoadAcrossTargetsWithinOneClock) {
  // Two stragglers reporting back-to-back must not both dump on the same
  // target: after the first move the target's estimated time inflates.
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.3;
  opts.min_shard_size = 2;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.05);
  h.master.ReportClockTime(2, 5.0);
  const size_t w0_before = h.sizes[0];
  const size_t w1_before = h.sizes[1];
  // The straggler reports twice before anyone else reports again.
  h.Report(&flexrr, 2, 0, 5.0);
  h.Report(&flexrr, 2, 1, 5.0);
  // Both fast workers received data (the second move went to worker 1
  // because worker 0's pending inflow inflated its estimate).
  EXPECT_GT(h.sizes[0], w0_before);
  EXPECT_GT(h.sizes[1], w1_before);
}

TEST(FlexRrTest, StopsWhenTargetsAreSaturated) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.5;
  opts.min_shard_size = 2;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 2.8);
  h.master.ReportClockTime(1, 2.9);
  h.master.ReportClockTime(2, 3.0);  // barely slower than the others
  const size_t before = h.sizes[2];
  h.Report(&flexrr, 2, 0, 3.0);
  // 3.0 <= 1.2 * 2.8: no move.
  EXPECT_EQ(h.sizes[2], before);
}

// The count rule: floor(fraction * shard), after capping the fraction so
// min_shard_size examples stay.
TEST(FlexRrTest, MovesFloorOfFractionOffTheShard) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.3;
  opts.min_shard_size = 2;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.0);
  h.master.ReportClockTime(2, 5.0);
  h.sizes[2] = 10;
  const std::vector<ShardMove> moves =
      flexrr.OnClockReport(2, 0, 5.0, &h.master, h.sizes);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 2);
  EXPECT_EQ(moves[0].to, 0);
  EXPECT_EQ(moves[0].count, 3u);  // 0.3 * 10
  EXPECT_EQ(flexrr.examples_reassigned(), 3u);
}

TEST(FlexRrTest, FractionTooSmallForOneExampleMovesNothing) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.1;
  opts.min_shard_size = 0;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.0);
  h.master.ReportClockTime(2, 5.0);
  h.sizes[2] = 3;  // 0.1 * 3 < 1 example
  EXPECT_TRUE(flexrr.OnClockReport(2, 0, 5.0, &h.master, h.sizes).empty());
  EXPECT_EQ(flexrr.examples_reassigned(), 0u);
}

TEST(FlexRrTest, MinShardCapBoundsTheCount) {
  Harness h;
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.9;
  opts.min_shard_size = 25;
  FlexRrMitigation flexrr(opts);
  h.master.ReportClockTime(0, 1.0);
  h.master.ReportClockTime(1, 1.0);
  h.master.ReportClockTime(2, 5.0);
  const std::vector<ShardMove> moves =
      flexrr.OnClockReport(2, 0, 5.0, &h.master, h.sizes);
  ASSERT_EQ(moves.size(), 1u);
  // 0.9 * 30 = 27 would leave 3 < 25: the fraction drops to 5/30, and
  // floor(5/30 * 30) = 5 moves.
  EXPECT_EQ(moves[0].count, 5u);
}

TEST(FlexRrDeathTest, ValidatesOptions) {
  FlexRrMitigation::Options bad;
  bad.straggler_threshold = 0.9;
  EXPECT_DEATH(FlexRrMitigation{bad}, "threshold");
  FlexRrMitigation::Options bad2;
  bad2.reassign_fraction = 0.0;
  EXPECT_DEATH(FlexRrMitigation{bad2}, "fraction");
}

}  // namespace
}  // namespace hetps
