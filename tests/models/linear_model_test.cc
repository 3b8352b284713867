#include "models/linear_model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "math/loss.h"
#include "util/rng.h"

namespace hetps {
namespace {

Dataset ModelData() {
  SyntheticConfig cfg;
  cfg.num_examples = 500;
  cfg.num_features = 150;
  cfg.avg_nnz = 8;
  cfg.label_noise = 0.01;
  cfg.seed = 55;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(6);
  d.Shuffle(&rng);
  return d;
}

LinearModelConfig FastConfig() {
  LinearModelConfig cfg;
  cfg.num_workers = 3;
  cfg.num_servers = 2;
  cfg.max_clocks = 10;
  cfg.learning_rate = 0.5;
  return cfg;
}

TEST(LinearModelTest, TrainsAccurateLogisticModel) {
  const Dataset d = ModelData();
  auto model = LinearModel::Train(d, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model.value().Accuracy(d), 0.85);
  EXPECT_LT(model.value().Objective(d), 0.4);
}

TEST(LinearModelTest, SvmTrainingWorks) {
  const Dataset d = ModelData();
  LinearModelConfig cfg = FastConfig();
  cfg.loss = "hinge";
  auto model = LinearModel::Train(d, cfg);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value().Accuracy(d), 0.85);
  EXPECT_EQ(model.value().loss_name(), "hinge");
}

TEST(LinearModelTest, EveryRuleTrains) {
  const Dataset d = ModelData();
  for (const char* rule : {"ssp", "con", "dyn"}) {
    LinearModelConfig cfg = FastConfig();
    cfg.rule = rule;
    // Accumulate rule needs a smaller local rate (§7.4.1).
    if (std::string(rule) == "ssp") cfg.learning_rate = 0.02;
    auto model = LinearModel::Train(d, cfg);
    ASSERT_TRUE(model.ok()) << rule;
    EXPECT_GT(model.value().Accuracy(d), 0.7) << rule;
  }
}

TEST(LinearModelTest, PredictionsMatchMarginSign) {
  const Dataset d = ModelData();
  auto model = LinearModel::Train(d, FastConfig());
  ASSERT_TRUE(model.ok());
  const auto& m = model.value();
  for (size_t i = 0; i < 20; ++i) {
    const auto& x = d.example(i).features;
    const double margin = m.PredictMargin(x);
    const double p = m.Predict(x);
    EXPECT_EQ(p >= 0.5, margin >= 0.0);
  }
}

TEST(LinearModelTest, SaveLoadRoundTrip) {
  const Dataset d = ModelData();
  auto model = LinearModel::Train(d, FastConfig());
  ASSERT_TRUE(model.ok());
  const std::string path = testing::TempDir() + "/hetps_model_rt.txt";
  ASSERT_TRUE(model.value().Save(path).ok());
  auto loaded = LinearModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().weights(), model.value().weights());
  EXPECT_EQ(loaded.value().loss_name(), "logistic");
  EXPECT_DOUBLE_EQ(loaded.value().Accuracy(d), model.value().Accuracy(d));
  std::remove(path.c_str());
}

TEST(LinearModelTest, DistributedWeightsSaveAndLoad) {
  // `train --runtime=rpc --model=` writes the RPC runtime's weights in the
  // one model format, so `evaluate --model=` reads them back exactly.
  const Dataset d = ModelData();
  LogisticLoss loss;
  FixedRate schedule(0.3);
  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule("dyn");
  DistributedTrainerOptions opts;
  opts.num_workers = 2;
  opts.max_clocks = 5;
  opts.l2 = 1e-3;
  auto trained = TrainDistributed(d, loss, schedule, *rule, opts);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const std::vector<double>& weights = trained.value().weights;

  const std::string path = testing::TempDir() + "/hetps_model_rpc.txt";
  ASSERT_TRUE(LinearModel(weights, "logistic", opts.l2).Save(path).ok());
  auto loaded = LinearModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().weights(), weights);
  EXPECT_EQ(loaded.value().loss_name(), "logistic");
  EXPECT_EQ(loaded.value().l2(), opts.l2);
  EXPECT_EQ(loaded.value().Objective(d), d.Objective(loss, weights, opts.l2));
  std::remove(path.c_str());
}

TEST(LinearModelTest, LoadRejectsCorruptFiles) {
  const std::string path = testing::TempDir() + "/hetps_model_bad.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("not a model\n", f);
    fclose(f);
  }
  EXPECT_FALSE(LinearModel::Load(path).ok());
  EXPECT_FALSE(LinearModel::Load("/no/such/file").ok());
  std::remove(path.c_str());
}

TEST(LinearModelTest, TrainValidatesConfig) {
  const Dataset d = ModelData();
  LinearModelConfig cfg = FastConfig();
  cfg.loss = "bogus";
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  cfg = FastConfig();
  cfg.rule = "bogus";
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  cfg = FastConfig();
  cfg.learning_rate = -1.0;
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  cfg = FastConfig();
  cfg.num_workers = 0;
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  cfg = FastConfig();
  cfg.sync = SyncPolicy::Ssp(-1);
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  for (double fraction : {0.0, 1.5}) {
    cfg = FastConfig();
    cfg.batch_fraction = fraction;
    EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  }
  cfg = FastConfig();
  cfg.l2 = -1.0;
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  // The threaded runtime has no rebalancing plane.
  cfg = FastConfig();
  cfg.rebalance = true;
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  // More servers than features leaves a server without a partition.
  cfg = FastConfig();
  cfg.num_servers = 151;
  EXPECT_TRUE(LinearModel::Train(d, cfg).status().IsInvalidArgument());
  EXPECT_TRUE(
      LinearModel::Train(Dataset(), FastConfig()).status()
          .IsInvalidArgument());
}

TEST(LinearModelTest, TrainStatsExposeTrace) {
  const Dataset d = ModelData();
  auto model = LinearModel::Train(d, FastConfig());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().train_stats().objective_per_clock.size(), 10u);
}

}  // namespace
}  // namespace hetps
