// The threaded runtime (in-process PS) and the RPC runtime (the same PS
// behind the message bus) run one algorithm. With one worker and the
// same partition layout nothing is left to schedule, so the two must
// return bitwise-equal weights and the same objective trace under every
// rule, protocol and push window.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "test_printers.h"
#include "util/rng.h"

namespace hetps {
namespace {

const Dataset& ParityData() {
  static const Dataset* d = [] {
    SyntheticConfig cfg;
    cfg.num_examples = 300;
    cfg.num_features = 120;
    cfg.avg_nnz = 8;
    cfg.seed = 71;
    auto* out = new Dataset(GenerateSynthetic(cfg));
    Rng rng(72);
    out->Shuffle(&rng);
    return out;
  }();
  return *d;
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

// The fields both trainers share, set identically on both.
template <typename Options>
void Configure(const std::string& rule, Protocol protocol, int window,
               Options* opts) {
  opts->sync = MakeSync(protocol);
  opts->num_workers = 1;
  opts->num_servers = 2;
  opts->max_clocks = 8;
  opts->eval_sample = 300;
  opts->push_window = window;
  opts->partition_sync = rule == "dyn_deferred";
}

using ParityCase = std::tuple<std::string, Protocol, int>;

class RuntimeParityTest : public testing::TestWithParam<ParityCase> {};

TEST_P(RuntimeParityTest, BothRuntimesReturnBitwiseEqualRuns) {
  const auto& [rule_name, protocol, window] = GetParam();
  const Dataset& d = ParityData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  const std::unique_ptr<ConsolidationRule> rule = MakeRule(rule_name);

  ThreadedTrainerOptions threaded;
  Configure(rule_name, protocol, window, &threaded);
  // The RPC runtime's PS keeps one partition per server.
  threaded.partitions_per_server = 1;
  const ThreadedTrainResult a = TrainThreaded(d, loss, sched, *rule, threaded);

  DistributedTrainerOptions rpc;
  Configure(rule_name, protocol, window, &rpc);
  auto b = TrainDistributed(d, loss, sched, *rule, rpc);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a.weights.size(), b.value().weights.size());
  EXPECT_EQ(std::memcmp(a.weights.data(), b.value().weights.data(),
                        a.weights.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.objective_per_clock, b.value().objective_per_clock);
  EXPECT_EQ(a.objective_per_clock.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    RulesProtocolsWindows, RuntimeParityTest,
    testing::Combine(testing::Values("ssp", "con", "dyn", "dyn_deferred"),
                     testing::Values(Protocol::kBsp, Protocol::kSsp,
                                     Protocol::kAsp),
                     testing::Values(0, 1)),
    [](const testing::TestParamInfo<ParityCase>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             ProtocolName(std::get<1>(info.param)) + "_window" +
             std::to_string(std::get<2>(info.param));
    });

// The RPC runtime applies RunSpec's layout fields as the threaded one
// does: more partitions per server, another scheme and the update filter.
TEST(RuntimeParityLayoutTest, BothRuntimesApplyTheLayoutFields) {
  const Dataset& d = ParityData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  const std::unique_ptr<ConsolidationRule> rule = MakeRule("dyn");
  auto layout = [](TrainSpec* spec) {
    Configure("dyn", Protocol::kSsp, 0, spec);
    spec->partitions_per_server = 4;
    spec->scheme = PartitionScheme::kRange;
    spec->update_filter_epsilon = 1e-3;
  };
  ThreadedTrainerOptions threaded;
  layout(&threaded);
  const ThreadedTrainResult a = TrainThreaded(d, loss, sched, *rule, threaded);
  DistributedTrainerOptions rpc;
  layout(&rpc);
  auto b = TrainDistributed(d, loss, sched, *rule, rpc);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a.weights.size(), b.value().weights.size());
  EXPECT_EQ(std::memcmp(a.weights.data(), b.value().weights.data(),
                        a.weights.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.objective_per_clock, b.value().objective_per_clock);
  EXPECT_EQ(a.objective_per_clock.size(), 8u);
}

}  // namespace
}  // namespace hetps
