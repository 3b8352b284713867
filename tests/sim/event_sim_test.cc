#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/flexrr.h"
#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace hetps {
namespace {

Dataset TestData(size_t num_examples = 300) {
  SyntheticConfig cfg;
  cfg.num_examples = num_examples;
  cfg.num_features = 200;
  cfg.avg_nnz = 8;
  cfg.seed = 21;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(5);
  d.Shuffle(&rng);
  return d;
}

SimOptions FastOptions() {
  SimOptions opts;
  opts.max_clocks = 12;
  opts.stop_on_convergence = false;
  opts.eval_every_pushes = 10;
  opts.eval_sample = 300;
  opts.l2 = 1e-4;
  return opts;
}

TEST(EventSimTest, RunsToMaxClocksAndRecordsCurve) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  const SimResult r =
      RunSimulation(d, cluster, rule, sched, loss, FastOptions());
  EXPECT_EQ(r.objective_per_clock.size(), 12u);
  EXPECT_EQ(r.total_pushes, 4 * 12);
  EXPECT_GT(r.total_sim_seconds, 0.0);
  EXPECT_GT(r.min_objective, 0.0);
}

TEST(EventSimTest, DeterministicForSameSeed) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::WithStragglers(4, 2, 2.0);
  DynSgdRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  const SimResult a =
      RunSimulation(d, cluster, rule, sched, loss, FastOptions());
  const SimResult b =
      RunSimulation(d, cluster, rule, sched, loss, FastOptions());
  ASSERT_EQ(a.objective_per_clock.size(), b.objective_per_clock.size());
  for (size_t i = 0; i < a.objective_per_clock.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objective_per_clock[i], b.objective_per_clock[i]);
  }
  EXPECT_DOUBLE_EQ(a.total_sim_seconds, b.total_sim_seconds);
}

TEST(EventSimTest, ObjectiveDecreases) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.max_clocks = 20;
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  EXPECT_LT(r.objective_per_clock.back(),
            0.8 * r.objective_per_clock.front());
}

TEST(EventSimTest, ConvergenceStopsEarlyAndReportsMetrics) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(1.0);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.max_clocks = 60;
  opts.stop_on_convergence = true;
  opts.objective_tolerance = 0.5;
  opts.eval_every_pushes = 4;
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.updates_to_converge, r.total_pushes + 1);
  EXPECT_GT(r.updates_to_converge, 0);
  EXPECT_LE(r.run_time_seconds, r.total_sim_seconds);
  EXPECT_NEAR(r.per_update_seconds,
              r.run_time_seconds /
                  static_cast<double>(r.updates_to_converge),
              1e-12);
}

TEST(EventSimTest, StragglersInflateRunTime) {
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Bsp();
  const SimResult fast = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 1.0), rule, sched, loss,
      opts);
  const SimResult slow = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 3.0), rule, sched, loss,
      opts);
  // Under BSP every clock waits for the straggler.
  EXPECT_GT(slow.total_sim_seconds, 1.8 * fast.total_sim_seconds);
}

TEST(EventSimTest, BspWorkersStayInLockstep) {
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Bsp();
  const SimResult r = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 4.0), rule, sched, loss,
      opts);
  // All workers completed all clocks despite the barrier.
  for (const auto& b : r.worker_breakdown) {
    EXPECT_EQ(b.clocks_completed, opts.max_clocks);
  }
  // Fast workers accumulated waiting time; the straggler did not.
  EXPECT_GT(r.worker_breakdown[0].wait_seconds,
            r.worker_breakdown[3].wait_seconds);
}

TEST(EventSimTest, AspNeverWaits) {
  const Dataset d = TestData();
  SspRule rule;
  FixedRate sched(0.01);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Asp();
  const SimResult r = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 4.0), rule, sched, loss,
      opts);
  for (const auto& b : r.worker_breakdown) {
    EXPECT_DOUBLE_EQ(b.wait_seconds, 0.0);
  }
}

TEST(EventSimTest, BreakdownCoversComputeAndComm) {
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  const SimResult r = RunSimulation(d, ClusterConfig::Homogeneous(3, 2),
                                    rule, sched, loss, FastOptions());
  for (const auto& b : r.worker_breakdown) {
    EXPECT_GT(b.compute_seconds, 0.0);
    EXPECT_GT(b.comm_seconds, 0.0);
    EXPECT_GT(b.PerClockCompute(), 0.0);
    EXPECT_GT(b.PerClockComm(), 0.0);
  }
}

// The comm model's push-window knob: 0 (synchronous) makes workers wait
// out every push transfer, so the run can only be slower than the
// legacy unbounded-overlap default (-1); a bounded window sits between
// them and books its overlapped transfer as push_hidden_seconds.
TEST(EventSimTest, PushWindowChargesOverlapCorrectly) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::WithStragglers(4, 2, 2.0);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  auto run = [&](int window) {
    SimOptions opts = FastOptions();
    opts.push_window = window;
    return RunSimulation(d, cluster, rule, sched, loss, opts);
  };
  const SimResult legacy = run(-1);
  const SimResult sync = run(0);
  const SimResult windowed = run(1);

  auto hidden_sum = [](const SimResult& r) {
    double sum = 0.0;
    for (const auto& b : r.worker_breakdown) sum += b.push_hidden_seconds;
    return sum;
  };
  // Synchronous pushing hides nothing and can only slow the run down.
  EXPECT_DOUBLE_EQ(hidden_sum(sync), 0.0);
  EXPECT_GE(sync.total_sim_seconds, legacy.total_sim_seconds);
  EXPECT_GE(sync.total_sim_seconds, windowed.total_sim_seconds);
  // Overlapping modes actually hid transfer time.
  EXPECT_GT(hidden_sum(legacy), 0.0);
  EXPECT_GT(hidden_sum(windowed), 0.0);
  // Every mode still completes the full schedule.
  EXPECT_EQ(legacy.total_pushes, sync.total_pushes);
  EXPECT_EQ(legacy.total_pushes, windowed.total_pushes);
}

// The legacy default (-1) must leave existing simulation results
// untouched: an explicit -1 and the untouched default are the same run.
TEST(EventSimTest, PushWindowLegacyDefaultIsUnchanged) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::WithStragglers(4, 2, 2.0);
  DynSgdRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions defaults = FastOptions();
  SimOptions explicit_legacy = FastOptions();
  explicit_legacy.push_window = -1;
  const SimResult a =
      RunSimulation(d, cluster, rule, sched, loss, defaults);
  const SimResult b =
      RunSimulation(d, cluster, rule, sched, loss, explicit_legacy);
  EXPECT_DOUBLE_EQ(a.total_sim_seconds, b.total_sim_seconds);
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
}

TEST(EventSimTest, DeltaPullOnlyChangesBytesShipped) {
  // delta_pull only picks the tags a pull sends. On links that cost no
  // time the bytes charged cannot reorder events, so both runs read the
  // same server states and must train bit for bit alike; sending the
  // tags only ships less. The update filter keeps each pull's delta
  // smaller than the block it changes.
  const Dataset d = TestData();
  ClusterConfig cluster = ClusterConfig::WithStragglers(4, 2, 2.0);
  cluster.net_latency = 0.0;
  cluster.net_bytes_per_sec = std::numeric_limits<double>::infinity();
  SspRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimResult r[2];
  for (int delta = 0; delta <= 1; ++delta) {
    SimOptions opts = FastOptions();
    opts.partitions_per_server = 4;
    opts.sync = SyncPolicy::Ssp(0);  // a pull after every clock
    opts.update_filter_epsilon = 1e-2;
    opts.delta_pull = delta != 0;
    r[delta] = RunSimulation(d, cluster, rule, sched, loss, opts);
  }
  const std::vector<double>& off = r[0].objective_per_clock;
  const std::vector<double>& on = r[1].objective_per_clock;
  ASSERT_EQ(on.size(), 12u);
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(std::memcmp(off.data(), on.data(), on.size() * sizeof(double)),
            0);
  EXPECT_EQ(r[0].total_sim_seconds, r[1].total_sim_seconds);
  // Both runs size every pull against the same server state; without
  // tags every partition ships whole, which is the cache-less baseline.
  EXPECT_EQ(r[0].pull_bytes_full, r[1].pull_bytes_full);
  EXPECT_EQ(r[0].pull_bytes_shipped, r[0].pull_bytes_full);
  EXPECT_LT(r[1].pull_bytes_shipped, r[0].pull_bytes_shipped);
}

TEST(EventSimTest, DynSgdReportsStalenessAndMemory) {
  const Dataset d = TestData();
  DynSgdRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(2);
  const SimResult r = RunSimulation(
      d, ClusterConfig::WithStragglers(6, 2, 2.0), rule, sched, loss,
      opts);
  EXPECT_GT(r.mean_staleness, 1.0);
  EXPECT_LE(r.mean_staleness, 6.0);
  EXPECT_GT(r.peak_aux_memory_bytes, 0u);
  EXPECT_GT(r.param_memory_bytes, 0u);
}

TEST(EventSimTest, MitigationHookReceivesCallbacks) {
  // The policy's returned moves land on the entitlements: after its one
  // move every later report sees worker 0 one example lighter.
  class CountingMitigation : public StragglerMitigation {
   public:
    std::vector<ShardMove> OnClockReport(
        int worker, int clock, double clock_seconds, Master* master,
        const std::vector<size_t>& shard_sizes) override {
      (void)clock;
      (void)master;
      EXPECT_GE(worker, 0);
      EXPECT_GT(clock_seconds, 0.0);
      EXPECT_EQ(shard_sizes.size(), 3u);
      ++calls;
      if (calls == 1) {
        first_sizes = shard_sizes;
        return {ShardMove{0, 2, 1, false}};
      }
      last_sizes = shard_sizes;
      return {};
    }
    int calls = 0;
    std::vector<size_t> first_sizes;
    std::vector<size_t> last_sizes;
  };
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  CountingMitigation mitigation;
  SimOptions opts = FastOptions();
  RunSimulation(d, ClusterConfig::Homogeneous(3, 1), rule, sched, loss,
                opts, &mitigation);
  EXPECT_GT(mitigation.calls, 1);
  EXPECT_EQ(mitigation.first_sizes, (std::vector<size_t>{100, 100, 100}));
  EXPECT_EQ(mitigation.last_sizes, (std::vector<size_t>{99, 100, 101}));
}

TEST(EventSimTest, CongestionEpisodesSlowTheRunDeterministically) {
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  ClusterConfig calm = ClusterConfig::Homogeneous(4, 2);
  ClusterConfig congested = calm;
  congested.congestion_probability = 0.2;
  congested.congestion_seconds = 3.0;
  const SimResult a =
      RunSimulation(d, calm, rule, sched, loss, FastOptions());
  const SimResult b =
      RunSimulation(d, congested, rule, sched, loss, FastOptions());
  const SimResult b2 =
      RunSimulation(d, congested, rule, sched, loss, FastOptions());
  EXPECT_GT(b.total_sim_seconds, a.total_sim_seconds);
  EXPECT_DOUBLE_EQ(b.total_sim_seconds, b2.total_sim_seconds);
}

TEST(EventSimTest, PeakLiveVersionsBoundedByWindow) {
  const Dataset d = TestData();
  DynSgdRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(2);
  opts.eval_every_pushes = 1;
  const SimResult r = RunSimulation(
      d, ClusterConfig::WithStragglers(5, 2, 3.0), rule, sched, loss,
      opts);
  EXPECT_GE(r.peak_live_versions, 1u);
  EXPECT_LE(r.peak_live_versions, 2u + 2u);  // s + in-flight slack
}

TEST(EventSimTest, SummaryStringMentionsConvergence) {
  SimResult r;
  r.converged = true;
  r.run_time_seconds = 12.0;
  EXPECT_NE(r.Summary().find("converged"), std::string::npos);
}

TEST(EventSimLivenessTest, KilledWorkerIsEvictedAndRunCompletes) {
  // The liveness hole in simulated time: worker 3 crash-stops at clock 3
  // under SSP(3). With the heartbeat plane on, the survivors must evict
  // it, inherit its shard, and run to completion.
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  opts.kill_worker = 3;
  opts.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 10.0;
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  EXPECT_EQ(r.workers_evicted, 1);
  EXPECT_GT(r.examples_failed_over, 0);
  EXPECT_EQ(r.workers_blocked_at_end, 0);
  // The survivors all finished their clocks despite the dead peer.
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(r.worker_breakdown[static_cast<size_t>(m)].clocks_completed,
              opts.max_clocks)
        << "worker " << m;
  }
  // The victim stopped at its kill clock.
  EXPECT_LT(r.worker_breakdown[3].clocks_completed, opts.max_clocks);
}

TEST(EventSimLivenessTest, EvictionDisabledDeadlocksTheCluster) {
  // A/B control for the test above: same kill, liveness plane off. The
  // survivors exhaust the staleness window and park on the admission
  // gate until max_sim_seconds cuts the run — the demonstrated deadlock.
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  opts.kill_worker = 3;
  opts.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 0.0;  // liveness plane off
  opts.max_sim_seconds = 5000.0;         // bound the stalled run
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  EXPECT_EQ(r.workers_evicted, 0);
  EXPECT_GT(r.workers_blocked_at_end, 0);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(r.worker_breakdown[static_cast<size_t>(m)].clocks_completed,
              opts.max_clocks)
        << "worker " << m << " should have stalled";
  }
}

TEST(EventSimLivenessTest, SuspectOnlyModeCountsButNeverEvicts) {
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::Homogeneous(4, 2);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  opts.kill_worker = 3;
  opts.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 10.0;
  opts.evict_dead_workers = false;  // suspect, log, do nothing
  opts.max_sim_seconds = 5000.0;
  const SimResult r = RunSimulation(d, cluster, rule, sched, loss, opts);
  EXPECT_EQ(r.workers_evicted, 0);
  EXPECT_GT(r.workers_blocked_at_end, 0);
}

TEST(EventSimLivenessTest, HealthyRunEvictsNobody) {
  // No fault injected: the heartbeat plane must be inert — same curve as
  // a run without it (liveness is observability until somebody dies).
  const Dataset d = TestData();
  const ClusterConfig cluster = ClusterConfig::WithStragglers(4, 2, 3.0);
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions plain = FastOptions();
  plain.sync = SyncPolicy::Ssp(3);
  SimOptions guarded = plain;
  // Generous timeout: a 3x straggler parked on the gate still counts as
  // alive (its standing pull request is refreshed at every sweep).
  guarded.heartbeat_timeout_seconds = 120.0;
  const SimResult a = RunSimulation(d, cluster, rule, sched, loss, plain);
  const SimResult b =
      RunSimulation(d, cluster, rule, sched, loss, guarded);
  EXPECT_EQ(b.workers_evicted, 0);
  EXPECT_EQ(b.examples_failed_over, 0);
  EXPECT_EQ(b.workers_blocked_at_end, 0);
  ASSERT_EQ(a.objective_per_clock.size(), b.objective_per_clock.size());
  for (size_t i = 0; i < a.objective_per_clock.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objective_per_clock[i], b.objective_per_clock[i]);
  }
}

TEST(EventSimRebalanceTest, ShedsLoadOffPersistentStragglers) {
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  const ClusterConfig cluster =
      ClusterConfig::WithStragglers(4, 2, /*hl=*/2.0, /*fraction=*/0.25);
  SimOptions plain = FastOptions();
  plain.sync = SyncPolicy::Ssp(3);
  plain.max_clocks = 24;
  SimOptions balanced = plain;
  balanced.rebalance = true;
  balanced.balancer.straggler_threshold = 1.45;
  balanced.balancer.hysteresis = 2;
  balanced.balancer.reassign_fraction = 0.2;
  const SimResult a = RunSimulation(d, cluster, rule, sched, loss, plain);
  const SimResult b =
      RunSimulation(d, cluster, rule, sched, loss, balanced);
  // The 2x worker persistently sheds; nothing comes back (it never truly
  // recovers), and nobody is evicted — migration is not eviction.
  EXPECT_GT(b.examples_rebalanced, 0);
  EXPECT_GT(b.rebalance_migrations, 0);
  EXPECT_EQ(b.examples_returned, 0);
  EXPECT_EQ(b.workers_evicted, 0);
  // Examples only move between shards, so the run converges to the same
  // objective neighborhood as the unbalanced one...
  EXPECT_NEAR(b.final_objective, a.final_objective, 0.05);
  // ...while the straggler-paced tail gets cheaper.
  EXPECT_LT(b.total_sim_seconds, a.total_sim_seconds);
}

TEST(EventSimRebalanceTest, TransientCongestionRoundTrips) {
  // A temporary slowdown (the paper's congestion episodes, §6) must
  // trigger migration *and* the reassignment-back leg once it ends.
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  opts.max_clocks = 30;
  opts.rebalance = true;
  opts.balancer.straggler_threshold = 1.3;
  opts.balancer.hysteresis = 2;
  opts.balancer.recovery_windows = 2;
  opts.balancer.reassign_fraction = 0.2;
  opts.slow_worker = 1;
  opts.slow_from_clock = 2;
  opts.slow_until_clock = 10;
  opts.slow_multiplier = 3.0;
  const SimResult r = RunSimulation(
      d, ClusterConfig::Homogeneous(3, 2), rule, sched, loss, opts);
  EXPECT_GT(r.examples_rebalanced, 0);
  // The episode ends at clock 10; worker 1's true speed returns and the
  // projected-time gate lets it reclaim its loans.
  EXPECT_GT(r.examples_returned, 0);
  EXPECT_GT(r.rebalance_migrations, 0);
  EXPECT_EQ(r.workers_evicted, 0);
}

TEST(EventSimStatusTest, ServesValidSnapshotsInVirtualTime) {
  // The simulator serves the same hetps.status.v1 snapshot the live
  // service answers over kStatus — source "sim", virtual timestamps,
  // every snapshot internally consistent (cmin <= live clocks <= cmax).
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  std::vector<StatusSnapshot> snaps;
  opts.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };
  RunSimulation(d, ClusterConfig::WithStragglers(4, 2, 2.0, 0.2), rule,
                sched, loss, opts);
  ASSERT_EQ(snaps.size(), static_cast<size_t>(opts.max_clocks));
  int64_t prev_ts = -1;
  for (const StatusSnapshot& s : snaps) {
    EXPECT_EQ(s.source, "sim");
    EXPECT_GE(s.ts_us, prev_ts);  // virtual time is monotone
    prev_ts = s.ts_us;
    EXPECT_EQ(s.num_workers, 4);
    const Status valid = ValidateStatusJson(s.ToJson());
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  // The snapshot counts *received* pushes: by the last probe worker 0
  // has finished max_clocks clocks but its final push is still in
  // flight, so the table shows at least max_clocks - 1.
  EXPECT_GE(snaps.back().workers[0].clock, opts.max_clocks - 1);
}

TEST(EventSimStatusTest, SnapshotSeesEvictionAndLoanState) {
  // Kill a worker with the liveness plane armed: post-eviction
  // snapshots must show 3/4 live with the victim marked dead, and keep
  // validating (the evicted clock is exempt from the window invariant).
  const Dataset d = TestData();
  ConRule rule;
  FixedRate sched(0.5);
  LogisticLoss loss;
  SimOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(3);
  opts.kill_worker = 3;
  opts.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 10.0;
  std::vector<StatusSnapshot> snaps;
  opts.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };
  RunSimulation(d, ClusterConfig::Homogeneous(4, 2), rule, sched, loss,
                opts);
  ASSERT_FALSE(snaps.empty());
  for (const StatusSnapshot& s : snaps) {
    const Status valid = ValidateStatusJson(s.ToJson());
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  EXPECT_EQ(snaps.back().num_live_workers, 3);
  EXPECT_FALSE(snaps.back().workers[3].live);
  // Before the kill the victim was beating like everyone else.
  EXPECT_TRUE(snaps.front().workers[3].live);
  EXPECT_EQ(snaps.front().num_live_workers, 4);
}

// One scenario for RepeatRunsAreBitwiseEqual. Each reaches a point where
// the simulator's event loop meets clocks that are still computing: an
// example move (failover, rebalance, FlexRR) while other workers'
// clocks run, a push that must wait for its gradients, or a run that
// stops with clocks in flight.
struct RepeatCase {
  const char* name;
  ClusterConfig cluster;
  SimOptions options;
  size_t num_examples = 300;
  bool dyn_sgd = false;
  bool deferred = false;
  bool flexrr = false;
};

void PrintTo(const RepeatCase& c, std::ostream* os) { *os << c.name; }

// Every case runs SSP(3), the SimOptions default, unless it says
// otherwise.
std::vector<RepeatCase> RepeatCases() {
  std::vector<RepeatCase> cases;
  cases.push_back({.name = "DynSgdSsp3Stragglers",
                   .cluster = ClusterConfig::WithStragglers(5, 2, 2.0, 0.2),
                   .options = FastOptions(),
                   .dyn_sgd = true});
  {
    // ASP never parks anyone and a short link latency keeps the
    // survivors computing almost all the time, so their clocks are in
    // flight when the sweep evicts the victim and fails its shard over
    // onto theirs. The larger shards keep those clocks running on the
    // pool while the event loop gets there.
    RepeatCase c{.name = "AspFailover",
                 .cluster = ClusterConfig::Homogeneous(8, 2),
                 .options = FastOptions(),
                 .num_examples = 2400};
    c.cluster.net_latency = 0.01;
    c.options.sync = SyncPolicy::Asp();
    c.options.max_clocks = 24;
    c.options.kill_worker = 7;
    c.options.kill_at_clock = 3;
    c.options.heartbeat_timeout_seconds = 10.0;
    cases.push_back(c);
  }
  {
    RepeatCase c{.name = "RebalanceSlowWorker",
                 .cluster = ClusterConfig::Homogeneous(3, 2),
                 .options = FastOptions()};
    SimOptions& o = c.options;
    o.max_clocks = 30;
    o.rebalance = true;
    o.balancer.straggler_threshold = 1.3;
    o.balancer.hysteresis = 2;
    o.balancer.recovery_windows = 2;
    o.balancer.reassign_fraction = 0.2;
    o.slow_worker = 1;
    o.slow_from_clock = 2;
    o.slow_until_clock = 10;
    o.slow_multiplier = 3.0;
    cases.push_back(c);
  }
  cases.push_back({.name = "FlexRr",
                   .cluster = ClusterConfig::WithStragglers(4, 2, 3.0, 0.25),
                   .options = FastOptions(),
                   .flexrr = true});
  {
    RepeatCase c{.name = "DeferredDynSgdPartitionSync",
                 .cluster = ClusterConfig::WithStragglers(4, 2, 2.0, 0.25),
                 .options = FastOptions(),
                 .dyn_sgd = true,
                 .deferred = true};
    c.options.partition_sync = true;
    c.options.partitions_per_server = 2;
    cases.push_back(c);
  }
  for (int window : {0, 1}) {
    RepeatCase c{.name = window == 0 ? "PushWindow0" : "PushWindow1",
                 .cluster = ClusterConfig::WithStragglers(4, 2, 2.0, 0.25),
                 .options = FastOptions()};
    c.options.push_window = window;
    cases.push_back(c);
  }
  {
    RepeatCase c{.name = "StopOnConvergence",
                 .cluster = ClusterConfig::WithStragglers(6, 2, 2.0),
                 .options = FastOptions()};
    c.options.max_clocks = 40;
    c.options.stop_on_convergence = true;
    c.options.objective_tolerance = 0.45;
    c.options.consecutive_evals_to_converge = 1;
    cases.push_back(c);
  }
  return cases;
}

SimResult RunRepeatCase(const Dataset& d, const RepeatCase& c) {
  ConRule con;
  DynSgdRule::Options dyn_opts;
  if (c.deferred) dyn_opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule dyn(dyn_opts);
  const ConsolidationRule& rule =
      c.dyn_sgd ? static_cast<const ConsolidationRule&>(dyn) : con;
  FixedRate sched(0.5);
  LogisticLoss loss;
  FlexRrMitigation flexrr;
  return RunSimulation(d, c.cluster, rule, sched, loss, c.options,
                       c.flexrr ? &flexrr : nullptr);
}

// Bit patterns, not ==: 0.0 == -0.0 and NaN != NaN would hide or invent
// a difference.
template <typename T>
bool SameBits(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

#define EXPECT_SAME_BITS(a, b, field) \
  EXPECT_TRUE(SameBits((a).field, (b).field)) << #field

void ExpectBitwiseEqual(const SimResult& a, const SimResult& b) {
  EXPECT_SAME_BITS(a, b, converged);
  EXPECT_SAME_BITS(a, b, run_time_seconds);
  EXPECT_SAME_BITS(a, b, updates_to_converge);
  EXPECT_SAME_BITS(a, b, per_update_seconds);
  EXPECT_SAME_BITS(a, b, total_pushes);
  EXPECT_SAME_BITS(a, b, total_sim_seconds);
  EXPECT_SAME_BITS(a, b, objective_per_clock);
  EXPECT_SAME_BITS(a, b, min_objective);
  EXPECT_SAME_BITS(a, b, var_objective);
  EXPECT_SAME_BITS(a, b, clocks_to_converge);
  EXPECT_SAME_BITS(a, b, final_objective);
  EXPECT_SAME_BITS(a, b, param_memory_bytes);
  EXPECT_SAME_BITS(a, b, peak_aux_memory_bytes);
  EXPECT_SAME_BITS(a, b, peak_live_versions);
  EXPECT_SAME_BITS(a, b, mean_staleness);
  EXPECT_SAME_BITS(a, b, pull_bytes_shipped);
  EXPECT_SAME_BITS(a, b, pull_bytes_full);
  EXPECT_SAME_BITS(a, b, workers_evicted);
  EXPECT_SAME_BITS(a, b, examples_failed_over);
  EXPECT_SAME_BITS(a, b, workers_blocked_at_end);
  EXPECT_SAME_BITS(a, b, examples_rebalanced);
  EXPECT_SAME_BITS(a, b, examples_returned);
  EXPECT_SAME_BITS(a, b, rebalance_migrations);
  // Field by field: the struct's tail padding is not part of its value.
  ASSERT_EQ(a.worker_breakdown.size(), b.worker_breakdown.size());
  for (size_t m = 0; m < a.worker_breakdown.size(); ++m) {
    SCOPED_TRACE("worker " + std::to_string(m));
    const WorkerTimeBreakdown& x = a.worker_breakdown[m];
    const WorkerTimeBreakdown& y = b.worker_breakdown[m];
    EXPECT_SAME_BITS(x, y, compute_seconds);
    EXPECT_SAME_BITS(x, y, comm_seconds);
    EXPECT_SAME_BITS(x, y, wait_seconds);
    EXPECT_SAME_BITS(x, y, push_hidden_seconds);
    EXPECT_SAME_BITS(x, y, clocks_completed);
  }
}

#undef EXPECT_SAME_BITS

// Suite name shared with the TEST()s above; the instantiation prefix
// keeps the parameterized suite distinct.
class EventSimTest : public ::testing::TestWithParam<RepeatCase> {};

TEST_P(EventSimTest, RepeatRunsAreBitwiseEqual) {
  const RepeatCase& c = GetParam();
  const Dataset d = TestData(c.num_examples);
  const SimResult first = RunRepeatCase(d, c);
  // The scenario must really reach the point it is named for.
  if (c.options.kill_worker >= 0) {
    EXPECT_EQ(first.workers_evicted, 1);
    EXPECT_GT(first.examples_failed_over, 0);
  }
  if (c.options.rebalance) {
    EXPECT_GT(first.examples_rebalanced, 0);
  }
  if (c.options.stop_on_convergence) {
    EXPECT_TRUE(first.converged);
    EXPECT_LT(first.total_pushes,
              static_cast<int64_t>(c.cluster.num_workers) *
                  c.options.max_clocks);
  }
  for (int run = 1; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    ExpectBitwiseEqual(first, RunRepeatCase(d, c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DrainPoints, EventSimTest, ::testing::ValuesIn(RepeatCases()),
    [](const ::testing::TestParamInfo<RepeatCase>& info) {
      return std::string(info.param.name);
    });

// Every push send joins its clock on the compute pool and records one
// sim.compute_wait_us sample. Example moves never wait for the pool:
// they edit entitlements, and each worker copies its own in at its next
// clock start.
TEST(EventSimComputePoolTest, EveryPushSendJoinsItsClock) {
  HistogramMetric* waits = GlobalMetrics().histogram("sim.compute_wait_us");
  for (const RepeatCase& c : RepeatCases()) {
    SCOPED_TRACE(c.name);
    const int64_t waits_before = waits->count();
    const SimResult r = RunRepeatCase(TestData(c.num_examples), c);
    if (!c.options.stop_on_convergence) {
      // Every send's last piece lands before the queue runs dry.
      EXPECT_EQ(waits->count() - waits_before, r.total_pushes);
    }
  }
}

}  // namespace
}  // namespace hetps
