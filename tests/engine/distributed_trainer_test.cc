#include "engine/distributed_trainer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/threaded_trainer.h"
#include "util/rng.h"

namespace hetps {
namespace {

Dataset DistData() {
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

DistributedTrainerOptions FastOptions() {
  DistributedTrainerOptions opts;
  opts.num_workers = 3;
  opts.num_servers = 2;
  opts.max_clocks = 10;
  opts.eval_sample = 400;
  opts.sync = SyncPolicy::Ssp(2);
  return opts;
}

TEST(DistributedTrainerTest, TrainsOverTheBus) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  auto result = TrainDistributed(d, loss, sched, rule, FastOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_EQ(result.value().objective_per_clock.size(), 10u);
  EXPECT_GT(result.value().messages, 3 * 10);
  EXPECT_EQ(result.value().next_clock, 10);
}

TEST(DistributedTrainerTest, CheckpointAndResumeContinuesTraining) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.max_clocks = 6;
  opts.checkpoint_every_clocks = 6;
  opts.checkpoint_path =
      testing::TempDir() + "/hetps_dist_resume.ckpt";
  auto phase1 = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(phase1.ok()) << phase1.status().ToString();
  const double mid = phase1.value().final_objective;

  DistributedTrainerOptions resume = opts;
  resume.resume = true;
  resume.resume_clock = phase1.value().next_clock;
  resume.checkpoint_every_clocks = 0;
  auto phase2 = TrainDistributed(d, loss, sched, rule, resume);
  ASSERT_TRUE(phase2.ok()) << phase2.status().ToString();
  EXPECT_LT(phase2.value().final_objective, mid);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DistributedTrainerTest, ResumeWithoutCheckpointFails) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  SspRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.resume = true;
  opts.checkpoint_path = "/no/such/checkpoint.ckpt";
  EXPECT_FALSE(TrainDistributed(d, loss, sched, rule, opts).ok());
}

TEST(DistributedTrainerTest, ValidatesOptions) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  SspRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.num_workers = 0;
  EXPECT_FALSE(TrainDistributed(d, loss, sched, rule, opts).ok());
  opts = FastOptions();
  opts.max_clocks = 0;
  EXPECT_FALSE(TrainDistributed(d, loss, sched, rule, opts).ok());
  EXPECT_FALSE(
      TrainDistributed(Dataset(), loss, sched, rule, FastOptions())
          .ok());
}

// PrepareWorkerLoop rejects these for both runtimes; the RPC trainer
// returns the status instead of aborting or reading -1 as "auto".
Status TrainWith(const DistributedTrainerOptions& opts) {
  LogisticLoss loss;
  FixedRate sched(0.5);
  SspRule rule;
  return TrainDistributed(DistData(), loss, sched, rule, opts).status();
}

TEST(DistributedTrainerTest, RejectsNegativePushWindow) {
  DistributedTrainerOptions opts = FastOptions();
  opts.push_window = -1;
  const Status st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("push_window"), std::string::npos);
}

// Algorithm 1 admits clock c while c <= cmin + s, so with s < 0 every
// worker would wait forever after its first push.
TEST(DistributedTrainerTest, RejectsNegativeStaleness) {
  DistributedTrainerOptions opts = FastOptions();
  opts.sync = SyncPolicy::Ssp(-1);
  const Status st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("staleness"), std::string::npos);
}

TEST(DistributedTrainerTest, RejectsNegativePushParallelism) {
  DistributedTrainerOptions opts = FastOptions();
  opts.push_parallelism = -1;
  const Status st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("push_parallelism"), std::string::npos);
}

// Out-of-range balancer knobs answer InvalidArgument naming the flag
// instead of aborting in the LoadBalancer's checks; with rebalancing off
// the knobs are never read.
TEST(DistributedTrainerTest, RejectsBadBalancerOptions) {
  DistributedTrainerOptions opts = FastOptions();
  opts.rebalance = true;
  opts.balancer.reassign_fraction = 2.0;
  Status st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("--reassign_fraction"), std::string::npos);
  opts.balancer = LoadBalancerOptions();
  opts.balancer.straggler_threshold = 0.5;
  st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("--straggler_threshold"), std::string::npos);
  opts.balancer = LoadBalancerOptions();
  opts.balancer.hysteresis = 0;
  st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("--rebalance_hysteresis"), std::string::npos);
  opts.rebalance = false;
  EXPECT_TRUE(TrainWith(opts).ok());
}

TEST(DistributedTrainerTest, RejectsMoreWorkersThanExamples) {
  DistributedTrainerOptions opts = FastOptions();
  opts.num_workers = 401;  // DistData() has 400 examples
  const Status st = TrainWith(opts);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("more workers than examples"),
            std::string::npos);
}

TEST(DistributedTrainerTest, ConvergesOnALossyBus) {
  // End-to-end robustness check: a seeded fault plan drops >= 10% of
  // messages (both request and response legs) and injects delays and
  // duplicates, yet retry/backoff plus server-side push dedup deliver
  // the same convergence quality as the clean run.
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.fault_plan.drop_request_prob = 0.10;
  opts.fault_plan.drop_response_prob = 0.05;
  opts.fault_plan.duplicate_prob = 0.05;
  opts.fault_plan.delay_prob = 0.10;
  opts.fault_plan.seed = 77;
  opts.rpc_retry.timeout = std::chrono::milliseconds(10);
  opts.rpc_retry.max_attempts = 40;
  opts.rpc_retry.initial_backoff = std::chrono::microseconds(100);

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Same tolerance as the no-fault run above.
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_EQ(result.value().next_clock, 10);
  // The plan actually fired and the clients actually retried.
  EXPECT_GT(result.value().faults.dropped_requests, 0);
  EXPECT_GT(result.value().faults.total(), 0);
  EXPECT_GT(result.value().rpc_retries, 0);
}

TEST(DistributedTrainerTest, DeltaPullMatchesFullPullOnALossyBus) {
  // Cache coherence must not change learning semantics. With a single
  // worker both runs are step-deterministic (each RPC blocks, pushes
  // dedup, and a pull's replica is the server state bit for bit whether
  // or not it sends tags), so the final objective must match exactly even
  // on a faulty bus.
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  double final_obj[2] = {0.0, 0.0};
  for (int delta = 0; delta <= 1; ++delta) {
    DistributedTrainerOptions opts = FastOptions();
    opts.num_workers = 1;
    opts.delta_pull = delta != 0;
    opts.fault_plan.drop_request_prob = 0.10;
    opts.fault_plan.drop_response_prob = 0.05;
    opts.fault_plan.duplicate_prob = 0.05;
    opts.fault_plan.seed = 41;
    opts.rpc_retry.timeout = std::chrono::milliseconds(10);
    opts.rpc_retry.max_attempts = 40;
    opts.rpc_retry.initial_backoff = std::chrono::microseconds(100);
    auto result = TrainDistributed(d, loss, sched, rule, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    final_obj[delta] = result.value().final_objective;
  }
  EXPECT_DOUBLE_EQ(final_obj[0], final_obj[1]);
}

TEST(DistributedTrainerTest, MatchesSharedMemoryRuntimeQuality) {
  // The RPC path and the shared-memory path run the same algorithm. With
  // three workers each run's schedule differs, which moves a single
  // run's objective by up to about 0.01 (more on a loaded host), so the
  // runtimes are compared by the mean of ten runs each.
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  ConRule rule;
  const DistributedTrainerOptions opts = FastOptions();
  ThreadedTrainerOptions shared;
  shared.sync = opts.sync;
  shared.num_workers = opts.num_workers;
  shared.num_servers = opts.num_servers;
  shared.partitions_per_server = 1;
  shared.max_clocks = opts.max_clocks;
  shared.eval_sample = opts.eval_sample;
  constexpr int kRuns = 10;
  double rpc_mean = 0.0;
  double threaded_mean = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    auto rpc = TrainDistributed(d, loss, sched, rule, opts);
    ASSERT_TRUE(rpc.ok());
    const ThreadedTrainResult threaded =
        TrainThreaded(d, loss, sched, rule, shared);
    EXPECT_LT(rpc.value().final_objective, 0.5);
    EXPECT_LT(threaded.final_objective, 0.5);
    rpc_mean += rpc.value().final_objective / kRuns;
    threaded_mean += threaded.final_objective / kRuns;
  }
  EXPECT_NEAR(rpc_mean, threaded_mean, 0.01);
}

TEST(DistributedTrainerTest, RebalanceShedsLoadOffInjectedStraggler) {
  // The paper's slowdown-injection protocol on the RPC runtime: worker 0
  // sleeps 30ms of extra "compute" per clock, the others run free. With
  // the load-balancing plane on, its measured clock reports flag it and
  // the entitlement plane migrates examples to the fast workers at clock
  // boundaries.
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.max_clocks = 12;
  opts.rebalance = true;
  opts.balancer.straggler_threshold = 1.5;
  opts.balancer.hysteresis = 2;
  opts.balancer.reassign_fraction = 0.2;
  opts.injected_compute_delay = {0.03};  // zero-padded for workers 1, 2
  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().examples_rebalanced, 0);
  EXPECT_GT(result.value().lb_migrations, 0);
  // Rebalancing must not cost convergence or evict anyone.
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_TRUE(result.value().evicted_workers.empty());
  EXPECT_EQ(result.value().next_clock, 12);
}

// Both planes in one run: the balancer sheds load off an injected
// straggler while the heartbeat plane evicts a killed worker. The plane
// reads membership under its own lock (plane mutex before the clock
// lock), so this also runs that lock edge under TSan.
TEST(DistributedTrainerTest, RebalanceSurvivesAnEviction) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.num_workers = 4;
  opts.sync = SyncPolicy::Ssp(3);
  opts.max_clocks = 12;
  opts.rebalance = true;
  opts.balancer.straggler_threshold = 1.5;
  opts.balancer.hysteresis = 2;
  opts.balancer.reassign_fraction = 0.2;
  opts.injected_compute_delay = {0.02};  // zero-padded for workers 1-3
  opts.fault_plan.fault_worker = 3;
  opts.fault_plan.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 2.0;
  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 3);
  EXPECT_GT(result.value().examples_failed_over, 0);
  EXPECT_GT(result.value().examples_rebalanced, 0);
  EXPECT_EQ(result.value().next_clock, 12);
}

TEST(DistributedTrainerTest, RebalanceOffLeavesShardsAlone) {
  const Dataset d = DistData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = FastOptions();
  opts.injected_compute_delay = {0.02};
  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().examples_rebalanced, 0);
  EXPECT_EQ(result.value().examples_returned, 0);
  EXPECT_EQ(result.value().lb_migrations, 0);
}

}  // namespace
}  // namespace hetps
