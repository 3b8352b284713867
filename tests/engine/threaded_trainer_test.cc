#include "engine/threaded_trainer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "ps/parameter_server.h"
#include "test_printers.h"
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

// "dyn_deferred" is deferred DynSGD with partition sync on.
std::unique_ptr<ConsolidationRule> MakeRule(const std::string& name) {
  if (name != "dyn_deferred") return MakeConsolidationRule(name);
  DynSgdRule::Options options;
  options.mode = DynSgdRule::ApplyMode::kDeferred;
  return std::make_unique<DynSgdRule>(options);
}

SyncPolicy MakeSync(Protocol protocol) {
  switch (protocol) {
    case Protocol::kBsp:
      return SyncPolicy::Bsp();
    case Protocol::kAsp:
      return SyncPolicy::Asp();
    case Protocol::kSsp:
      break;
  }
  return SyncPolicy::Ssp(3);
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using OracleCase = std::tuple<std::string, Protocol, double>;

class ThreadedTrainerTest : public testing::TestWithParam<OracleCase> {};

TEST_P(ThreadedTrainerTest, SingleWorkerMatchesSequentialSgd) {
  // With one worker nothing is left to schedule, so the threaded runtime
  // (client, replica cache, worker loop) must equal Algorithm 1 written
  // out by hand against the PS: compute, push, and re-read the whole
  // model with the dense reference pull whenever the cached cmin forces
  // a pull. The update filter drops small entries from the push while
  // the trainer's replica keeps them, so the pulled replica must undo
  // every write the trainer made, not only the pushed keys.
  const auto& [rule_name, protocol, filter] = GetParam();
  const Dataset d = TrainData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  const std::unique_ptr<ConsolidationRule> rule = MakeRule(rule_name);
  ThreadedTrainerOptions opts = FastOptions(1);
  opts.sync = MakeSync(protocol);
  opts.partition_sync = rule_name == "dyn_deferred";
  opts.update_filter_epsilon = filter;
  const ThreadedTrainResult r = TrainThreaded(d, loss, sched, *rule, opts);

  PsOptions ps_opts;
  ps_opts.num_servers = opts.num_servers;
  ps_opts.partitions_per_server = opts.partitions_per_server;
  ps_opts.scheme = opts.scheme;
  ps_opts.sync = opts.sync;
  ps_opts.partition_sync = opts.partition_sync;
  ps_opts.update_filter_epsilon = filter;
  ParameterServer ps(d.dimension(), 1, *rule, ps_opts);
  LocalWorkerSgd::Options sgd_opts;
  sgd_opts.batch_size =
      LocalWorkerSgd::BatchSizeForFraction(d.size(), opts.batch_fraction);
  sgd_opts.l2 = opts.l2;
  LocalWorkerSgd sgd(&d, SplitData(d.size(), 1, ShardingPolicy::kContiguous)[0],
                     &loss, &sched, sgd_opts);
  int cp = 0;
  std::vector<double> replica = ps.PullFull(0, &cp);
  std::vector<double> trace;
  for (int c = 0; c < opts.max_clocks; ++c) {
    const bool pull = opts.sync.NeedsPull(c, cp);
    SparseVector update;
    sgd.RunClock(c, &replica, &update);
    ps.Push(0, c, update);
    trace.push_back(
        d.ObjectiveSample(loss, replica, opts.l2, opts.eval_sample));
    if (pull) {
      ASSERT_TRUE(ps.WaitUntilCanAdvance(0, c + 1));
      replica = ps.PullFull(0, &cp);
    }
  }

  EXPECT_TRUE(BitwiseEqual(r.objective_per_clock, trace));
  EXPECT_TRUE(BitwiseEqual(r.weights, ps.Snapshot()));
  EXPECT_LT(r.final_objective, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    RulesProtocolsFilters, ThreadedTrainerTest,
    testing::Combine(testing::Values("ssp", "con", "dyn", "dyn_deferred"),
                     testing::Values(Protocol::kBsp, Protocol::kSsp,
                                     Protocol::kAsp),
                     testing::Values(0.0, 1e-2)),
    [](const testing::TestParamInfo<OracleCase>& info) {
      return std::get<0>(info.param) + "_" +
             ProtocolName(std::get<1>(info.param)) +
             (std::get<2>(info.param) > 0.0 ? "_filter" : "_nofilter");
    });

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

TEST(PrepareWorkerLoopTest, CutsTheRangeSchemesAtTheHeldKeys) {
  // The examples hold only keys 0..39 of 400, which equal ranges would
  // all put in partition 0; the cut gives each of the 4 partitions ten.
  std::vector<Example> examples;
  for (int64_t i = 0; i < 80; ++i) {
    examples.push_back({SparseVector({i % 40}, {1.0}), i % 2 ? 1.0 : -1.0});
  }
  const Dataset d(std::move(examples), 400);
  LogisticLoss loss;
  FixedRate sched(0.1);
  ThreadedTrainerOptions opts = FastOptions(2);
  ASSERT_EQ(opts.num_servers * opts.partitions_per_server, 4);
  for (const PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kRangeHash,
        PartitionScheme::kHash}) {
    opts.scheme = scheme;
    Result<WorkerLoop> loop = PrepareWorkerLoop(d, loss, sched, opts);
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    const PsOptions& ps = loop.value().ps_options;
    EXPECT_EQ(ps.scheme, scheme);
    EXPECT_EQ(ps.num_servers, 2);
    EXPECT_EQ(ps.partitions_per_server, 2);
    const std::vector<int64_t> want =
        scheme == PartitionScheme::kHash
            ? std::vector<int64_t>()
            : std::vector<int64_t>({0, 10, 20, 30, 400});
    EXPECT_EQ(ps.range_cuts, want) << PartitionSchemeName(scheme);
  }
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
