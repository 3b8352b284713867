#include "ps/run_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace hetps {
namespace {

TEST(RunSpecTest, DefaultsAreValid) { EXPECT_TRUE(RunSpec().Validate().ok()); }

// Each out-of-range field answers InvalidArgument naming it.
TEST(RunSpecTest, ValidateNamesEachOutOfRangeField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(RunSpec*)>>>
      cases = {
          {"staleness", [](RunSpec* s) { s->sync = SyncPolicy::Ssp(-1); }},
          {"max_clocks", [](RunSpec* s) { s->max_clocks = 0; }},
          {"l2", [](RunSpec* s) { s->l2 = -1.0; }},
          {"l2", [nan](RunSpec* s) { s->l2 = nan; }},
          {"batch_fraction", [](RunSpec* s) { s->batch_fraction = 0.0; }},
          {"batch_fraction", [](RunSpec* s) { s->batch_fraction = 1.5; }},
          {"partitions_per_server",
           [](RunSpec* s) { s->partitions_per_server = 0; }},
          {"update_filter_epsilon",
           [](RunSpec* s) { s->update_filter_epsilon = -1e-3; }},
          {"heartbeat_timeout_seconds",
           [](RunSpec* s) { s->heartbeat_timeout_seconds = -5.0; }},
          // The balancer's knobs count only with rebalancing on.
          {"--reassign_fraction",
           [](RunSpec* s) {
             s->rebalance = true;
             s->balancer.reassign_fraction = 2.0;
           }},
      };
  for (const auto& [field, corrupt] : cases) {
    RunSpec spec;
    corrupt(&spec);
    const Status st = spec.Validate();
    EXPECT_TRUE(st.IsInvalidArgument()) << field << ": " << st.ToString();
    EXPECT_NE(st.message().find(field), std::string::npos) << st.message();
  }
  RunSpec idle;
  idle.balancer.reassign_fraction = 2.0;
  EXPECT_TRUE(idle.Validate().ok());
}

TEST(RunSpecTest, MakePsOptionsCarriesTheLayoutAndProtocol) {
  RunSpec spec;
  spec.sync = SyncPolicy::Bsp();
  spec.partitions_per_server = 4;
  spec.scheme = PartitionScheme::kHash;
  spec.update_filter_epsilon = 1e-3;
  spec.partition_sync = true;
  const PsOptions ps = spec.MakePsOptions(3, 0);
  EXPECT_EQ(ps.num_servers, 3);
  EXPECT_EQ(ps.push_parallelism, 0);
  EXPECT_EQ(ps.partitions_per_server, 4);
  EXPECT_EQ(ps.scheme, PartitionScheme::kHash);
  EXPECT_EQ(ps.sync.protocol, Protocol::kBsp);
  EXPECT_DOUBLE_EQ(ps.update_filter_epsilon, 1e-3);
  EXPECT_TRUE(ps.partition_sync);
}

}  // namespace
}  // namespace hetps
