// Property-style sweeps over the event simulator: protocol invariants
// that must hold for any (protocol, staleness, cluster) combination.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace hetps {
namespace {

const Dataset& SharedData() {
  static const Dataset* d = [] {
    SyntheticConfig cfg;
    cfg.num_examples = 240;
    cfg.num_features = 160;
    cfg.avg_nnz = 6;
    cfg.seed = 91;
    auto* out = new Dataset(GenerateSynthetic(cfg));
    Rng rng(92);
    out->Shuffle(&rng);
    return out;
  }();
  return *d;
}

struct SweepCase {
  Protocol protocol;
  int staleness;
  double hl;
  int workers;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << ProtocolName(c.protocol) << "_s" << c.staleness << "_hl" << c.hl
      << "_M" << c.workers;
}

class ProtocolSweepTest : public ::testing::TestWithParam<SweepCase> {};

SimResult RunCase(const SweepCase& c, const ConsolidationRule& rule,
                  double sigma) {
  SimOptions opts;
  opts.max_clocks = 10;
  opts.stop_on_convergence = false;
  opts.eval_every_pushes = 20;
  opts.eval_sample = 240;
  switch (c.protocol) {
    case Protocol::kBsp:
      opts.sync = SyncPolicy::Bsp();
      break;
    case Protocol::kAsp:
      opts.sync = SyncPolicy::Asp();
      break;
    case Protocol::kSsp:
      opts.sync = SyncPolicy::Ssp(c.staleness);
      break;
  }
  FixedRate sched(sigma);
  LogisticLoss loss;
  return RunSimulation(SharedData(),
                       ClusterConfig::WithStragglers(c.workers, 2, c.hl),
                       rule, sched, loss, opts);
}

TEST_P(ProtocolSweepTest, EveryWorkerCompletesEveryClock) {
  const SweepCase c = GetParam();
  ConRule rule;
  const SimResult r = RunCase(c, rule, 0.3);
  ASSERT_EQ(r.worker_breakdown.size(), static_cast<size_t>(c.workers));
  for (const auto& b : r.worker_breakdown) {
    EXPECT_EQ(b.clocks_completed, 10);
  }
  EXPECT_EQ(r.total_pushes, int64_t{10} * c.workers);
}

TEST_P(ProtocolSweepTest, SimulatedTimeIsPositiveAndBounded) {
  const SweepCase c = GetParam();
  ConRule rule;
  const SimResult r = RunCase(c, rule, 0.3);
  EXPECT_GT(r.total_sim_seconds, 0.0);
  EXPECT_LT(r.total_sim_seconds, 1e6);
  // Run time never exceeds total simulated time.
  EXPECT_LE(r.run_time_seconds, r.total_sim_seconds + 1e-9);
}

TEST_P(ProtocolSweepTest, TraceAccountingIsConsistent) {
  const SweepCase c = GetParam();
  ConRule rule;
  const SimResult r = RunCase(c, rule, 0.3);
  for (const auto& b : r.worker_breakdown) {
    EXPECT_GE(b.compute_seconds, 0.0);
    EXPECT_GE(b.comm_seconds, 0.0);
    EXPECT_GE(b.wait_seconds, 0.0);
    // No component can exceed the whole run.
    EXPECT_LE(b.compute_seconds, r.total_sim_seconds + 1e-9);
    EXPECT_LE(b.wait_seconds, r.total_sim_seconds + 1e-9);
  }
}

TEST_P(ProtocolSweepTest, SspWindowNeverViolated) {
  // The fastest worker may lead the slowest by at most s+1 clocks at any
  // push boundary. We verify post-hoc via the mean staleness proxy and
  // clock counts (all workers finished, so the final gap is 0); the live
  // check happens inside ClockTable which would crash on violation.
  const SweepCase c = GetParam();
  DynSgdRule rule;
  const SimResult r = RunCase(c, rule, 0.3);
  EXPECT_GE(r.mean_staleness, 1.0);
  EXPECT_LE(r.mean_staleness, static_cast<double>(c.workers));
}

TEST_P(ProtocolSweepTest, HigherHlNeverSpeedsUpTheCluster) {
  const SweepCase c = GetParam();
  if (c.hl == 1.0) GTEST_SKIP() << "baseline case";
  ConRule rule;
  SweepCase base = c;
  base.hl = 1.0;
  const SimResult fast = RunCase(base, rule, 0.3);
  const SimResult slow = RunCase(c, rule, 0.3);
  EXPECT_GE(slow.total_sim_seconds, 0.95 * fast.total_sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolSweepTest,
    ::testing::Values(SweepCase{Protocol::kBsp, 0, 1.0, 4},
                      SweepCase{Protocol::kBsp, 0, 3.0, 4},
                      SweepCase{Protocol::kAsp, 0, 2.0, 4},
                      SweepCase{Protocol::kSsp, 1, 2.0, 4},
                      SweepCase{Protocol::kSsp, 3, 1.0, 6},
                      SweepCase{Protocol::kSsp, 3, 4.0, 6},
                      SweepCase{Protocol::kSsp, 10, 2.0, 3}));

TEST(SimulatorSeedPropertyTest, DifferentSeedsDifferentTrajectories) {
  ConRule rule;
  FixedRate sched(0.3);
  LogisticLoss loss;
  SimOptions a;
  a.max_clocks = 6;
  a.stop_on_convergence = false;
  a.eval_sample = 240;
  SimOptions b = a;
  b.seed = 1234;
  const SimResult ra =
      RunSimulation(SharedData(), ClusterConfig::WithStragglers(4, 2, 2.0),
                    rule, sched, loss, a);
  const SimResult rb =
      RunSimulation(SharedData(), ClusterConfig::WithStragglers(4, 2, 2.0),
                    rule, sched, loss, b);
  EXPECT_NE(ra.total_sim_seconds, rb.total_sim_seconds);
}

}  // namespace
}  // namespace hetps
