// Property test: for ANY random traffic pattern, (a) a checkpoint
// round-trip is an exact state copy, and (b) continuing identical traffic
// on the original and the restored server keeps them bit-identical.

#include <gtest/gtest.h>

#include <sstream>

#include "core/dyn_sgd.h"
#include "ps/checkpoint.h"
#include "util/rng.h"

namespace hetps {
namespace {

struct TrafficCase {
  uint64_t seed;
  int workers;
  int64_t dim;
  int clocks;
  bool deferred;
};

void PrintTo(const TrafficCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_M" << c.workers << "_dim" << c.dim << "_C"
      << c.clocks << (c.deferred ? "_deferred" : "_immediate");
}

class CheckpointPropertyTest
    : public ::testing::TestWithParam<TrafficCase> {};

SparseVector RandomUpdate(Rng* rng, int64_t dim) {
  SparseVector u;
  for (int64_t j = 0; j < dim; ++j) {
    if (rng->NextBernoulli(0.35)) u.PushBack(j, rng->NextGaussian());
  }
  return u;
}

TEST_P(CheckpointPropertyTest, RoundTripAndContinuationAreExact) {
  const TrafficCase c = GetParam();
  DynSgdRule::Options dyn_opts;
  if (c.deferred) dyn_opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(dyn_opts);
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(2);
  ParameterServer ps(c.dim, c.workers, rule, opts);

  Rng rng(c.seed);
  // Random prefix of traffic (workers interleaved, monotone clocks).
  std::vector<int> next_clock(static_cast<size_t>(c.workers), 0);
  auto push_some = [&](ParameterServer* target, Rng* r, int rounds) {
    for (int k = 0; k < rounds; ++k) {
      const int m = static_cast<int>(
          r->NextUint64(static_cast<uint64_t>(c.workers)));
      if (next_clock[static_cast<size_t>(m)] >= c.clocks) continue;
      target->Push(m, next_clock[static_cast<size_t>(m)],
                   RandomUpdate(r, c.dim));
      if (r->NextBernoulli(0.4)) target->PullFull(m);
    }
  };
  // NOTE: push_some mutates next_clock, so for the continuation phase we
  // snapshot and replay with a fresh RNG of the same seed.
  push_some(&ps, &rng, c.workers * c.clocks / 2);

  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer restored(c.dim, c.workers, rule, opts);
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  ASSERT_EQ(restored.Snapshot(), ps.Snapshot());
  ASSERT_EQ(restored.cmin(), ps.cmin());
  ASSERT_EQ(restored.StableVersion(), ps.StableVersion());

  // Identical continuation traffic keeps the two servers identical.
  std::vector<int> clocks_copy = next_clock;
  Rng cont_a(c.seed ^ 0xBEEF);
  push_some(&ps, &cont_a, c.workers * 3);
  next_clock = clocks_copy;
  Rng cont_b(c.seed ^ 0xBEEF);
  push_some(&restored, &cont_b, c.workers * 3);
  EXPECT_EQ(restored.Snapshot(), ps.Snapshot());
  EXPECT_EQ(restored.cmin(), ps.cmin());
  EXPECT_EQ(restored.AuxMemoryBytes(), ps.AuxMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraffic, CheckpointPropertyTest,
    ::testing::Values(TrafficCase{101, 2, 12, 6, false},
                      TrafficCase{102, 3, 20, 5, false},
                      TrafficCase{103, 4, 8, 8, true},
                      TrafficCase{104, 2, 30, 4, true},
                      TrafficCase{105, 5, 16, 6, false}));

// Regression (liveness PR): restoring a checkpoint must wipe the
// master's per-worker timing history and revive evicted workers. Before
// the fix, stale clock_times_ survived LoadCheckpoint, so the restored
// run misclassified stragglers from its very first clock, and an
// eviction taken before the save poisoned membership after it.
TEST(CheckpointLivenessTest, RestoreResetsTimingAndMembership) {
  DynSgdRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(2);
  ParameterServer ps(16, 3, rule, opts);

  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ps.Push(1, 0, SparseVector({8}, {2.0}));
  ps.master()->ReportClockTime(0, 1.0);
  ps.master()->ReportClockTime(1, 9.0);  // pre-crash straggler
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());

  // Post-save history that must NOT survive the restore: an eviction and
  // more timing reports.
  ASSERT_TRUE(ps.EvictWorker(2));
  ps.master()->ReportClockTime(0, 50.0);

  ASSERT_TRUE(ps.LoadCheckpoint(buffer).ok());
  EXPECT_TRUE(ps.IsWorkerLive(2));
  EXPECT_EQ(ps.num_live_workers(), 3);
  EXPECT_TRUE(ps.master()->DetectStragglers().empty());
  EXPECT_EQ(ps.master()->FastestWorker(), -1);
  EXPECT_DOUBLE_EQ(ps.master()->LastClockTime(1), 0.0);
  // The revived worker participates in the admission gate again: it
  // pins cmin until it pushes.
  EXPECT_EQ(ps.cmin(), 0);
  ps.Push(2, 0, SparseVector({4}, {3.0}));
  EXPECT_EQ(ps.cmin(), 1);
}

}  // namespace
}  // namespace hetps
