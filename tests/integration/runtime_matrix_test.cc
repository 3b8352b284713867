// Sweep the real threaded runtime across the full configuration matrix:
// {BSP, ASP, SSP} x {ssp, con, dyn} x {range, hash, range-hash} x
// {plain, partition-sync, filter, prefetch}. Every combination must train
// a usable model — this is the "production usable" surface a downstream
// user can configure.

#include <gtest/gtest.h>

#include <tuple>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/threaded_trainer.h"
#include "test_printers.h"
#include "util/rng.h"

namespace hetps {
namespace {

const Dataset& MatrixData() {
  static const Dataset* d = [] {
    SyntheticConfig cfg;
    cfg.num_examples = 400;
    cfg.num_features = 150;
    cfg.avg_nnz = 8;
    cfg.label_noise = 0.01;
    cfg.seed = 61;
    auto* out = new Dataset(GenerateSynthetic(cfg));
    Rng rng(62);
    out->Shuffle(&rng);
    return out;
  }();
  return *d;
}

using MatrixCase = std::tuple<Protocol, std::string, PartitionScheme>;

class RuntimeMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RuntimeMatrixTest, TrainsUsableModel) {
  const auto& [protocol, rule_name, scheme] = GetParam();
  const Dataset& d = MatrixData();
  LogisticLoss loss;
  const double sigma = std::string(rule_name) == "ssp" ? 0.02 : 0.5;
  FixedRate sched(sigma);
  auto rule = MakeConsolidationRule(rule_name);

  ThreadedTrainerOptions opts;
  switch (protocol) {
    case Protocol::kBsp:
      opts.sync = SyncPolicy::Bsp();
      break;
    case Protocol::kAsp:
      opts.sync = SyncPolicy::Asp();
      break;
    case Protocol::kSsp:
      opts.sync = SyncPolicy::Ssp(2);
      break;
  }
  opts.num_workers = 3;
  opts.num_servers = 2;
  opts.scheme = scheme;
  opts.max_clocks = 10;
  opts.eval_sample = 400;
  const ThreadedTrainResult r = TrainThreaded(d, loss, sched, *rule, opts);
  EXPECT_LT(r.final_objective, 0.55)
      << ProtocolName(protocol) << "/" << rule_name << "/"
      << PartitionSchemeName(scheme);
  EXPECT_GT(d.Accuracy(loss, r.weights), 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, RuntimeMatrixTest,
    ::testing::Combine(
        ::testing::Values(Protocol::kBsp, Protocol::kAsp, Protocol::kSsp),
        ::testing::Values("ssp", "con", "dyn"),
        ::testing::Values(PartitionScheme::kRange, PartitionScheme::kHash,
                          PartitionScheme::kRangeHash)));

class RuntimeFeatureTest : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeFeatureTest, OptionalFeaturesCompose) {
  const int feature = GetParam();
  const Dataset& d = MatrixData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule::Options dyn_opts;
  if (feature == 1) dyn_opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(dyn_opts);
  ThreadedTrainerOptions opts;
  opts.num_workers = 3;
  opts.num_servers = 2;
  opts.max_clocks = 10;
  opts.eval_sample = 400;
  switch (feature) {
    case 0:
      break;  // plain
    case 1:
      opts.partition_sync = true;
      break;
    case 2:
      opts.update_filter_epsilon = 1e-7;
      break;
    case 3:
      opts.prefetch = true;
      break;
    case 4:
      opts.partitions_per_server = 4;
      break;
  }
  const ThreadedTrainResult r = TrainThreaded(d, loss, sched, rule, opts);
  EXPECT_LT(r.final_objective, 0.55) << "feature " << feature;
}

INSTANTIATE_TEST_SUITE_P(Features, RuntimeFeatureTest,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace hetps
