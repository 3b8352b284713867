#include "engine/threaded_trainer.h"

#include <gtest/gtest.h>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace hetps {
namespace {

Dataset TrainData() {
  SyntheticConfig cfg;
  cfg.num_examples = 400;
  cfg.num_features = 150;
  cfg.avg_nnz = 8;
  cfg.seed = 33;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(2);
  d.Shuffle(&rng);
  return d;
}

ThreadedTrainerOptions FastOptions(int workers) {
  ThreadedTrainerOptions opts;
  opts.num_workers = workers;
  opts.num_servers = 2;
  opts.max_clocks = 8;
  opts.eval_sample = 400;
  return opts;
}

TEST(ThreadedTrainerTest, TrainsAndReducesObjective) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  const ThreadedTrainResult r =
      TrainThreaded(d, loss, sched, rule, FastOptions(3));
  ASSERT_EQ(r.weights.size(), static_cast<size_t>(d.dimension()));
  ASSERT_EQ(r.objective_per_clock.size(), 8u);
  EXPECT_LT(r.final_objective, r.objective_per_clock.front());
  EXPECT_EQ(r.total_pushes, 3 * 8);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(ThreadedTrainerTest, WorksUnderEveryProtocol) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.3);
  ConRule rule;
  for (SyncPolicy sync :
       {SyncPolicy::Bsp(), SyncPolicy::Asp(), SyncPolicy::Ssp(2)}) {
    ThreadedTrainerOptions opts = FastOptions(4);
    opts.sync = sync;
    const ThreadedTrainResult r = TrainThreaded(d, loss, sched, rule, opts);
    EXPECT_LT(r.final_objective, 0.7) << sync.DebugString();
  }
}

TEST(ThreadedTrainerTest, SleepInjectionSlowsWallClock) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.3);
  ConRule rule;
  ThreadedTrainerOptions opts = FastOptions(2);
  opts.max_clocks = 4;
  const ThreadedTrainResult fast = TrainThreaded(d, loss, sched, rule, opts);
  opts.injected_compute_delay = {0.0, 0.03};
  opts.sync = SyncPolicy::Bsp();
  const ThreadedTrainResult slow = TrainThreaded(d, loss, sched, rule, opts);
  EXPECT_GT(slow.wall_seconds, fast.wall_seconds + 0.05);
}

TEST(ThreadedTrainerTest, PartitionSyncWithDeferredDynSgd) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.3);
  DynSgdRule::Options dyn_opts;
  dyn_opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(dyn_opts);
  ThreadedTrainerOptions opts = FastOptions(3);
  opts.partition_sync = true;
  const ThreadedTrainResult r = TrainThreaded(d, loss, sched, rule, opts);
  EXPECT_LT(r.final_objective, 0.7);
}

TEST(ThreadedTrainerTest, SingleWorkerMatchesSequentialSgd) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  SspRule rule;
  ThreadedTrainerOptions opts = FastOptions(1);
  opts.num_servers = 1;
  const ThreadedTrainResult r = TrainThreaded(d, loss, sched, rule, opts);
  // One worker, accumulate rule: the PS state equals the worker replica,
  // i.e. plain sequential mini-batch SGD.
  EXPECT_LT(r.final_objective, 0.5);
}

TEST(ThreadedTrainerTest, PrefetchingTrainsComparably) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.3);
  DynSgdRule rule;
  ThreadedTrainerOptions opts = FastOptions(4);
  opts.sync = SyncPolicy::Ssp(2);
  opts.max_clocks = 12;
  const ThreadedTrainResult plain = TrainThreaded(d, loss, sched, rule, opts);
  opts.prefetch = true;
  const ThreadedTrainResult fetched =
      TrainThreaded(d, loss, sched, rule, opts);
  // Prefetching trades a slightly staler replica for overlap; quality
  // must stay in the same regime.
  EXPECT_LT(fetched.final_objective, plain.final_objective + 0.1);
  EXPECT_LT(fetched.final_objective, 0.5);
}

TEST(ThreadedTrainerDeathTest, ValidatesSleepVector) {
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  SspRule rule;
  ThreadedTrainerOptions opts = FastOptions(3);
  // A shorter vector is zero-padded; a longer one names workers that do
  // not exist.
  opts.injected_compute_delay = {0.0, 0.0, 0.0, 0.01};
  EXPECT_DEATH(TrainThreaded(d, loss, sched, rule, opts),
               "injected_compute_delay has 4 entries for 3 workers");
}

}  // namespace
}  // namespace hetps
