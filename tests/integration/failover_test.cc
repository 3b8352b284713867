// End-to-end proof of the liveness repair on the RPC runtime: under
// SSP a crash-stopped worker pins cmin and stalls the whole cluster.
// With the heartbeat plane on, the server evicts the dead worker,
// repairs cmin, fails its data shard over to the survivors, and the run
// converges; with the plane off, the identical scenario times out at
// the admission gate. Detection runs on the request-tick virtual clock
// (PsLivenessOptions), so none of these tests sleeps wall-clock time
// waiting for a heartbeat to expire.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace hetps {
namespace {

Dataset FailoverData() {
  SyntheticConfig cfg;
  cfg.num_examples = 400;
  cfg.num_features = 150;
  cfg.avg_nnz = 8;
  cfg.seed = 51;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(52);
  d.Shuffle(&rng);
  return d;
}

DistributedTrainerOptions FailoverOptions() {
  DistributedTrainerOptions opts;
  opts.num_workers = 4;
  opts.num_servers = 2;
  opts.max_clocks = 10;
  opts.eval_sample = 400;
  opts.sync = SyncPolicy::Ssp(3);
  return opts;
}

TEST(FailoverTest, KilledWorkerIsEvictedAndTrainingCompletes) {
  const Dataset d = FailoverData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;

  // Baseline: the same run with nobody killed.
  auto baseline =
      TrainDistributed(d, loss, sched, rule, FailoverOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  DistributedTrainerOptions opts = FailoverOptions();
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;  // crash-stop before clock 3
  // 2.0 virtual seconds = 2000 request ticks: the survivors' admission
  // probes alone advance the clock past the timeout, so detection works
  // even once everyone is parked on the SSP gate.
  opts.heartbeat_timeout_seconds = 2.0;

  const int64_t evicted_before =
      GlobalMetrics().counter("ps.worker_evicted")->value();
  const int64_t reassigned_before =
      GlobalMetrics().counter("ps.shard_reassignments")->value();

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Exactly the victim was evicted and its shard failed over.
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 2);
  EXPECT_GE(result.value().shard_reassignments, 1);
  EXPECT_GT(result.value().examples_failed_over, 0);
  EXPECT_EQ(GlobalMetrics().counter("ps.worker_evicted")->value(),
            evicted_before + 1);
  EXPECT_GT(GlobalMetrics().counter("ps.shard_reassignments")->value(),
            reassigned_before);

  // The survivors ran to completion (no deadlock) and landed in the
  // same quality regime as the no-fault run.
  EXPECT_EQ(result.value().next_clock, opts.max_clocks);
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_NEAR(result.value().final_objective,
              baseline.value().final_objective, 0.15);
}

TEST(FailoverTest, EvictionDisabledDeadlocksAtTheAdmissionGate) {
  // A/B control: the identical kill with the liveness plane off. The
  // survivors exhaust the staleness window and park on the admission
  // gate forever; the bounded probe budget turns that deadlock into a
  // DeadlineExceeded instead of hanging the test binary.
  const Dataset d = FailoverData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;

  DistributedTrainerOptions opts = FailoverOptions();
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 0.0;  // liveness plane off
  opts.rpc_retry.max_admission_probes = 3000;
  opts.rpc_retry.admission_probe_sleep = std::chrono::microseconds(0);

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(FailoverTest, KillSurvivesALossyBusToo) {
  // Compose the two fault planes: the bus drops/duplicates/delays
  // messages AND a worker dies mid-run. Retries mask the former, the
  // heartbeat plane repairs the latter.
  const Dataset d = FailoverData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;

  DistributedTrainerOptions opts = FailoverOptions();
  opts.fault_plan.drop_request_prob = 0.10;
  opts.fault_plan.drop_response_prob = 0.05;
  opts.fault_plan.duplicate_prob = 0.05;
  opts.fault_plan.delay_prob = 0.10;
  opts.fault_plan.seed = 77;
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 2.0;
  opts.rpc_retry.timeout = std::chrono::milliseconds(10);
  opts.rpc_retry.max_attempts = 40;
  opts.rpc_retry.initial_backoff = std::chrono::microseconds(100);

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 2);
  EXPECT_GT(result.value().examples_failed_over, 0);
  EXPECT_EQ(result.value().next_clock, opts.max_clocks);
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_GT(result.value().faults.total(), 0);
}

TEST(FailoverTest, HangShorterThanTimeoutIsNotEvicted) {
  // A worker that stalls (GC pause, network blip) but recovers inside
  // the timeout must NOT be evicted — eviction is for the dead, not the
  // slow (the paper's heterogeneity machinery handles the slow).
  const Dataset d = FailoverData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;

  DistributedTrainerOptions opts = FailoverOptions();
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;
  opts.fault_plan.hang_seconds = 0.5;  // virtual; timeout is 2.0
  opts.heartbeat_timeout_seconds = 2.0;

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().evicted_workers.empty());
  EXPECT_EQ(result.value().examples_failed_over, 0);
  EXPECT_EQ(result.value().next_clock, opts.max_clocks);
  EXPECT_LT(result.value().final_objective, 0.5);
}

TEST(FailoverTest, HangLongerThanTimeoutIsEvictedAndUnblocksItself) {
  // The nastiest case: the victim is not gone, only wedged past the
  // timeout. The server evicts it; when it wakes, its requests are
  // rejected with FailedPrecondition, which the worker recognizes as
  // its own eviction (an orderly exit, not a run failure).
  const Dataset d = FailoverData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;

  DistributedTrainerOptions opts = FailoverOptions();
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;
  opts.fault_plan.hang_seconds = 10.0;  // virtual; timeout is 2.0
  opts.heartbeat_timeout_seconds = 2.0;

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 2);
  EXPECT_GT(result.value().examples_failed_over, 0);
  EXPECT_EQ(result.value().next_clock, opts.max_clocks);
  EXPECT_LT(result.value().final_objective, 0.5);
}

}  // namespace
}  // namespace hetps
