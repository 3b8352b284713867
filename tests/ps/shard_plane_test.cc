#include "ps/shard_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/flexrr.h"
#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "math/loss.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace hetps {
namespace {

DataShard Shard(std::vector<size_t> indices) {
  return DataShard{std::move(indices)};
}

using Indices = std::vector<size_t>;

/// The server a plane serves; its clock table says who is live.
std::unique_ptr<ParameterServer> Server(int workers) {
  const SspRule rule;
  return std::make_unique<ParameterServer>(8, workers, rule, PsOptions());
}

/// Returns the moves it is given and records what it was told.
class ScriptedPolicy final : public StragglerMitigation {
 public:
  std::vector<ShardMove> OnClockReport(
      int worker, int clock, const std::vector<double>& clock_seconds,
      const std::vector<size_t>& shard_sizes) override {
    (void)clock;
    ++calls;
    reporter = worker;
    seconds_seen = clock_seconds;
    sizes_seen = shard_sizes;
    return std::move(next_moves);
  }
  void OnWorkerEvicted(int worker) override { evicted.push_back(worker); }

  std::vector<ShardMove> next_moves;
  int calls = 0;
  int reporter = -1;
  std::vector<double> seconds_seen;
  std::vector<size_t> sizes_seen;
  std::vector<int> evicted;
};

TEST(ShardPlaneTest, EvictionSpreadsLikeReassignAcross) {
  const std::vector<DataShard> start = {
      Shard({0, 1}), Shard({10, 11, 12, 13, 14, 15, 16}), Shard({20}),
      Shard({30, 31})};
  const auto ps = Server(4);
  ShardPlane plane(ps.get(), start);
  ASSERT_TRUE(ps->EvictWorker(1));
  EXPECT_EQ(plane.Evict(1, {0, 1, 2, 3}), 7u);

  // The same split by hand: contiguous runs, the remainder to earlier
  // receivers (the victim itself is skipped).
  std::vector<DataShard> expected = start;
  ReassignAcross(&expected[1], {&expected[0], &expected[2], &expected[3]});
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(plane.entitlement(m).example_indices,
              expected[static_cast<size_t>(m)].example_indices)
        << "worker " << m;
  }
  EXPECT_EQ(plane.entitlement(0).example_indices,
            (Indices{0, 1, 10, 11, 12}));
  EXPECT_EQ(plane.entitlement(3).example_indices,
            (Indices{30, 31, 15, 16}));
  const ShardPlaneTotals totals = plane.Totals();
  EXPECT_EQ(totals.evicted_workers, std::vector<int>{1});
  EXPECT_EQ(totals.examples_failed_over, 7);
  EXPECT_EQ(totals.shard_reassignments, 3);
}

TEST(ShardPlaneTest, EvictionSkipsNonReceivers) {
  const auto ps = Server(4);
  ShardPlane plane(
      ps.get(), {Shard({0}), Shard({10, 11, 12}), Shard({20}), Shard({30})});
  // Worker 2 is not a receiver: it gets nothing.
  ASSERT_TRUE(ps->EvictWorker(1));
  EXPECT_EQ(plane.Evict(1, {0, 3}), 3u);
  EXPECT_EQ(plane.entitlement(0).example_indices, (Indices{0, 10, 11}));
  EXPECT_EQ(plane.entitlement(2).example_indices, (Indices{20}));
  EXPECT_EQ(plane.entitlement(3).example_indices, (Indices{30, 12}));
  EXPECT_TRUE(plane.entitlement(1).example_indices.empty());
  // With no receiver left the examples are dropped.
  const auto pair = Server(2);
  ShardPlane lone(pair.get(), {Shard({0, 1}), Shard({2})});
  ASSERT_TRUE(pair->EvictWorker(0));
  EXPECT_EQ(lone.Evict(0, {}), 0u);
  EXPECT_TRUE(lone.entitlement(0).example_indices.empty());
  EXPECT_EQ(lone.Totals().examples_failed_over, 0);
}

TEST(ShardPlaneTest, CascadingEvictionHandsAdoptedExamplesOnOnce) {
  Counter* reassignments =
      GlobalMetrics().counter("ps.shard_reassignments");
  const int64_t before = reassignments->value();
  ScriptedPolicy policy;
  const auto ps = Server(3);
  ShardPlane plane(ps.get(),
                   {Shard({0, 1, 2, 3}), Shard({4, 5, 6, 7}),
                    Shard({8, 9, 10, 11})},
                   nullptr, &policy);
  // Every eviction names every worker; the plane skips the evicted ones.
  ASSERT_TRUE(ps->EvictWorker(1));
  EXPECT_EQ(plane.Evict(1, {0, 1, 2}), 4u);
  EXPECT_EQ(plane.entitlement(2).example_indices,
            (Indices{8, 9, 10, 11, 6, 7}));
  // Worker 2's adopted examples move on with its own, and the first
  // victim receives nothing.
  ASSERT_TRUE(ps->EvictWorker(2));
  EXPECT_EQ(plane.Evict(2, {0, 1, 2}), 6u);
  EXPECT_TRUE(plane.entitlement(1).example_indices.empty());
  EXPECT_TRUE(plane.entitlement(2).example_indices.empty());
  Indices all = plane.entitlement(0).example_indices;
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (Indices{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  const ShardPlaneTotals totals = plane.Totals();
  EXPECT_EQ(totals.evicted_workers, (std::vector<int>{1, 2}));
  EXPECT_EQ(totals.examples_failed_over, 10);
  EXPECT_EQ(totals.shard_reassignments, 3);
  EXPECT_EQ(reassignments->value() - before, 3);
  EXPECT_EQ(policy.evicted, (std::vector<int>{1, 2}));
}

TEST(ShardPlaneTest, PolicyMovesLandAsTails) {
  // Without a policy a report moves nothing.
  const auto solo = Server(1);
  ShardPlane none(solo.get(), {Shard({0, 1})});
  none.OnClockReport(0, 0, 1.0);
  EXPECT_EQ(none.entitlement(0).example_indices, (Indices{0, 1}));
  ScriptedPolicy policy;
  const auto ps = Server(3);
  ShardPlane plane(ps.get(),
                   {Shard({0, 1, 2, 3}), Shard({10, 11}), Shard({20})},
                   nullptr, &policy);
  // Each move applies to what the one before it left.
  policy.next_moves = {ShardMove{0, 1, 2, false}, ShardMove{1, 2, 3, true}};
  plane.OnClockReport(0, 0, 1.0);
  EXPECT_EQ(policy.sizes_seen, (std::vector<size_t>{4, 2, 1}));
  EXPECT_EQ(plane.entitlement(0).example_indices, (Indices{0, 1}));
  EXPECT_EQ(plane.entitlement(1).example_indices, (Indices{10}));
  EXPECT_EQ(plane.entitlement(2).example_indices, (Indices{20, 11, 2, 3}));
  // A move larger than its source is clamped.
  policy.next_moves = {ShardMove{1, 0, 5, false}};
  plane.OnClockReport(1, 1, 1.0);
  EXPECT_EQ(plane.entitlement(0).example_indices, (Indices{0, 1, 10}));
  EXPECT_TRUE(plane.entitlement(1).example_indices.empty());
}

Indices Range(size_t begin, size_t end) {
  Indices out;
  for (size_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

TEST(ShardPlaneTest, FlexRrNeverMovesExamplesOntoAnEvictedWorker) {
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.1;
  FlexRrMitigation flexrr(opts);
  const auto ps = Server(3);
  ShardPlane plane(ps.get(),
                   {Shard(Range(0, 100)), Shard(Range(100, 200)),
                    Shard(Range(200, 300))},
                   nullptr, &flexrr);
  // Worker 1 is the fastest, but not by enough to move anything.
  const double times[] = {1.0, 0.9, 1.0};
  for (int m = 0; m < 3; ++m) plane.OnClockReport(m, 0, times[m]);
  EXPECT_EQ(plane.entitlement(1).size(), 100u);

  // Worker 1 dies. Its last clock time stays frozen and its entitlement
  // is now empty, which EstimateClockSeconds reads as lightly loaded:
  // it would rank first as the target of the next straggler's move.
  ASSERT_TRUE(ps->EvictWorker(1));
  EXPECT_EQ(plane.Evict(1, {0, 1, 2}), 100u);
  plane.OnClockReport(0, 1, 3.0);

  EXPECT_TRUE(plane.entitlement(1).example_indices.empty());
  // The straggler's move goes to the live worker instead.
  EXPECT_EQ(plane.entitlement(0).size(), 135u);
  EXPECT_EQ(plane.entitlement(2).size(), 165u);
  Indices all;
  for (int m = 0; m < 3; ++m) {
    const Indices e = plane.entitlement(m).example_indices;
    all.insert(all.end(), e.begin(), e.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, Range(0, 300));  // every example exactly once
}

TEST(ShardPlaneTest, DropsMovesThatTouchAnEvictedWorker) {
  ScriptedPolicy policy;
  const auto ps = Server(3);
  ShardPlane plane(ps.get(),
                   {Shard({0, 1, 2, 3}), Shard({10, 11}), Shard({20})},
                   nullptr, &policy);
  ASSERT_TRUE(ps->EvictWorker(2));
  EXPECT_EQ(plane.Evict(2, {1}), 1u);
  // Onto the victim, off the victim, then one between live workers.
  policy.next_moves = {ShardMove{0, 2, 2, false},
                       ShardMove{2, 1, 1, true},
                       ShardMove{0, 1, 1, false}};
  plane.OnClockReport(0, 0, 1.0);
  EXPECT_EQ(plane.entitlement(0).example_indices, (Indices{0, 1, 2}));
  EXPECT_EQ(plane.entitlement(1).example_indices,
            (Indices{10, 11, 20, 3}));
  EXPECT_TRUE(plane.entitlement(2).example_indices.empty());
}

// The plane keeps each worker's last clock time and shows its policy
// the live ones: an evicted worker's frozen time reads as unknown (0),
// and a late report from it reaches no policy.
TEST(ShardPlaneTest, EvictedWorkersLeaveTheStatistics) {
  ScriptedPolicy policy;
  const auto ps = Server(4);
  ShardPlane plane(ps.get(),
                   {Shard({0}), Shard({1}), Shard({2}), Shard({3})},
                   nullptr, &policy);
  const double times[] = {1.0, 1.1, 1.5, 2.5};
  for (int m = 0; m < 4; ++m) plane.OnClockReport(m, 0, times[m]);
  EXPECT_EQ(policy.seconds_seen, (std::vector<double>{1.0, 1.1, 1.5, 2.5}));

  // Worker 3 dies: its frozen 2.5 s must stop counting as a straggler
  // signal (it would otherwise trigger moves forever).
  ASSERT_TRUE(ps->EvictWorker(3));
  plane.Evict(3, {0, 1, 2, 3});
  plane.OnClockReport(2, 1, 1.5);
  EXPECT_EQ(policy.seconds_seen, (std::vector<double>{1.0, 1.1, 1.5, 0.0}));
  // The fastest worker dying must not pin the baseline either.
  ASSERT_TRUE(ps->EvictWorker(0));
  plane.Evict(0, {0, 1, 2, 3});
  plane.OnClockReport(1, 1, 1.1);
  EXPECT_EQ(policy.seconds_seen, (std::vector<double>{0.0, 1.1, 1.5, 0.0}));

  // A late report from an evicted worker is dropped whole.
  const int calls = policy.calls;
  plane.OnClockReport(3, 1, 0.1);
  EXPECT_EQ(policy.calls, calls);
  plane.OnClockReport(2, 2, 1.4);
  EXPECT_EQ(policy.reporter, 2);
  EXPECT_EQ(policy.seconds_seen, (std::vector<double>{0.0, 1.1, 1.4, 0.0}));
}

TEST(ShardPlaneTest, RefreshCopiesOnlyAfterTheGenerationChanged) {
  // The local shards start out different from the entitlements, so a
  // copy shows.
  ScriptedPolicy policy;
  const auto ps = Server(3);
  ShardPlane plane(ps.get(), {Shard({0, 1, 2}), Shard({10}), Shard({20})},
                   nullptr, &policy);
  DataShard local = Shard({99});
  plane.Refresh(0, &local);
  EXPECT_EQ(local.example_indices, Indices{99});

  policy.next_moves = {ShardMove{0, 1, 1, false}};
  plane.OnClockReport(0, 0, 1.0);
  plane.Refresh(0, &local);
  EXPECT_EQ(local.example_indices, (Indices{0, 1}));
  local = Shard({97});
  plane.Refresh(0, &local);  // already copied this generation
  EXPECT_EQ(local.example_indices, Indices{97});
  // Worker 2 was not part of the move.
  DataShard other = Shard({98});
  plane.Refresh(2, &other);
  EXPECT_EQ(other.example_indices, Indices{98});
  // A move of nothing changes no generation.
  policy.next_moves = {ShardMove{2, 0, 0, false}};
  plane.OnClockReport(2, 0, 1.0);
  plane.Refresh(0, &local);
  plane.Refresh(2, &other);
  EXPECT_EQ(local.example_indices, Indices{97});
  EXPECT_EQ(other.example_indices, Indices{98});
  // An eviction changes the victim's and its receivers' generations.
  DataShard receiver;
  plane.Refresh(1, &receiver);
  EXPECT_EQ(receiver.example_indices, (Indices{10, 2}));
  ASSERT_TRUE(ps->EvictWorker(2));
  plane.Evict(2, {1});
  plane.Refresh(1, &receiver);
  EXPECT_EQ(receiver.example_indices, (Indices{10, 2, 20}));
  plane.Refresh(2, &other);
  EXPECT_TRUE(other.example_indices.empty());
}

TEST(ShardPlaneTest, StatusCarriesLoansAndEvictedFlags) {
  LoadBalancerOptions opts;
  opts.hysteresis = 1;
  opts.reassign_fraction = 0.1;
  const auto ps = Server(3);
  ShardPlane plane(ps.get(),
                   {Shard(Indices(100, 0)), Shard(Indices(100, 1)),
                    Shard(Indices(100, 2))},
                   &opts);
  for (int m = 0; m < 2; ++m) plane.OnClockReport(m, 0, 1.0);
  plane.OnClockReport(2, 0, 3.0);
  EXPECT_EQ(plane.entitlement(2).size(), 90u);

  // The server fills the flags from its one record; the plane adds the
  // balancer's loans and totals.
  StatusSnapshot snap;
  ps->BuildStatusSnapshot(&snap);
  ASSERT_EQ(snap.workers.size(), 3u);
  plane.DecorateStatus(&snap);
  EXPECT_EQ(snap.workers[2].loans_out, 10);
  EXPECT_EQ(snap.workers[0].loans_out + snap.workers[1].loans_out, 0);
  EXPECT_EQ(snap.examples_moved, 10);
  EXPECT_EQ(snap.migrations, 1);

  EXPECT_TRUE(snap.workers[2].live);
  ASSERT_TRUE(ps->EvictWorker(2));
  plane.Evict(2, {0, 1, 2});
  ps->BuildStatusSnapshot(&snap);
  EXPECT_FALSE(snap.workers[2].live);
  EXPECT_TRUE(snap.workers[0].live);
  EXPECT_TRUE(snap.workers[1].live);
  // The victim's loans are written off with it.
  plane.DecorateStatus(&snap);
  EXPECT_EQ(snap.workers[2].loans_out, 0);
  const ShardPlaneTotals totals = plane.Totals();
  EXPECT_EQ(totals.examples_rebalanced, 10);
  EXPECT_EQ(totals.migrations, 1);
  EXPECT_EQ(totals.examples_failed_over, 90);

  // Without a balancer the snapshot keeps its defaults.
  const auto pair = Server(2);
  ShardPlane plain(pair.get(), {Shard({0}), Shard({1})});
  StatusSnapshot untouched;
  untouched.workers.resize(2);
  plain.DecorateStatus(&untouched);
  EXPECT_EQ(untouched.examples_moved, 0);
  EXPECT_EQ(untouched.workers[0].loans_out, 0);
}

TEST(ShardPlaneDeathTest, RunsOneMovePolicy) {
  ScriptedPolicy policy;
  const LoadBalancerOptions opts;
  const auto ps = Server(2);
  EXPECT_DEATH(ShardPlane(ps.get(), {Shard({0}), Shard({1})}, &opts, &policy),
               "one move policy");
}

// The simulator hands an evicted worker's examples to every worker that
// still runs, never to a killed one the sweep has not evicted yet. Here
// worker 1 computes so slowly that its only beats are its clock starts,
// and worker 3 dies before its first clock: the same sweep suspects
// both, worker 1 first. Were the killed worker a receiver, its own
// eviction would move worker 1's examples a second time.
TEST(ShardPlaneTest, SimulatorReceiversExcludeKilledWorkers) {
  SyntheticConfig cfg;
  cfg.num_examples = 300;
  cfg.num_features = 200;
  cfg.avg_nnz = 8;
  cfg.seed = 21;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(5);
  d.Shuffle(&rng);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  cluster.profiles.resize(4);
  cluster.profiles[1].compute_multiplier = 100.0;
  SimOptions opts;
  opts.max_clocks = 6;
  opts.stop_on_convergence = false;
  opts.eval_sample = 300;
  opts.kill_worker = 3;
  opts.kill_at_clock = 0;
  opts.heartbeat_timeout_seconds = 10.0;
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  EXPECT_EQ(r.workers_evicted, 2);
  // Both victims' own 75 examples, each moved once.
  EXPECT_EQ(r.examples_failed_over, 150);
  EXPECT_EQ(r.workers_blocked_at_end, 0);
}

}  // namespace
}  // namespace hetps
