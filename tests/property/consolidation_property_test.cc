// Property-based tests over randomized push/pull sequences: invariants of
// the consolidation rules that must hold for ANY interleaving.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/regret_bounds.h"
#include "core/sync_policy.h"
#include "util/rng.h"

namespace hetps {
namespace {

struct RandomWorkload {
  int num_workers;
  int num_clocks;
  size_t dim;
  uint64_t seed;
};

void PrintTo(const RandomWorkload& w, std::ostream* os) {
  *os << "M" << w.num_workers << "_C" << w.num_clocks << "_dim" << w.dim
      << "_seed" << w.seed;
}

class DynSgdPropertyTest
    : public ::testing::TestWithParam<RandomWorkload> {};

// Generates a random but valid interleaving: each worker pushes clocks
// 0..C-1 in order; global order interleaves workers randomly; pulls are
// injected at random points. Returns the per-(worker, clock) updates.
struct Trace {
  struct Op {
    bool is_pull;
    int worker;
    int clock;
    SparseVector update;
  };
  std::vector<Op> ops;
};

Trace MakeTrace(const RandomWorkload& w) {
  Rng rng(w.seed);
  std::vector<int> next_clock(static_cast<size_t>(w.num_workers), 0);
  Trace trace;
  int remaining = w.num_workers * w.num_clocks;
  while (remaining > 0) {
    const int m =
        static_cast<int>(rng.NextUint64(static_cast<uint64_t>(
            w.num_workers)));
    if (next_clock[static_cast<size_t>(m)] >= w.num_clocks) continue;
    if (rng.NextBernoulli(0.3)) {
      trace.ops.push_back({true, m, 0, SparseVector()});
    }
    SparseVector u;
    for (size_t j = 0; j < w.dim; ++j) {
      if (rng.NextBernoulli(0.4)) {
        u.PushBack(static_cast<int64_t>(j), rng.NextGaussian());
      }
    }
    trace.ops.push_back(
        {false, m, next_clock[static_cast<size_t>(m)], std::move(u)});
    ++next_clock[static_cast<size_t>(m)];
    --remaining;
  }
  return trace;
}

TEST_P(DynSgdPropertyTest, ParameterEqualsPerVersionMeans) {
  // Invariant (§5.1): once every update of a version has arrived, the
  // version contributes exactly the mean of its updates; at any moment
  // the parameter equals the sum over versions of the current mean of
  // the updates received for that version.
  const RandomWorkload w = GetParam();
  DynSgdRule rule;  // clock-aligned: version == clock
  rule.Reset(w.dim, w.num_workers);
  ParamBlock param(w.dim);
  const Trace trace = MakeTrace(w);

  std::map<int, std::vector<SparseVector>> by_version;
  for (const auto& op : trace.ops) {
    if (op.is_pull) {
      rule.OnPull(op.worker, 0);
      continue;
    }
    rule.OnPush(op.worker, op.clock, op.update, &param);
    by_version[op.clock].push_back(op.update);

    std::vector<double> expected(w.dim, 0.0);
    for (const auto& [version, updates] : by_version) {
      const double inv = 1.0 / static_cast<double>(updates.size());
      for (const auto& u : updates) u.AddTo(&expected, inv);
    }
    const std::vector<double> actual = rule.Materialize(param);
    for (size_t j = 0; j < w.dim; ++j) {
      ASSERT_NEAR(actual[j], expected[j], 1e-9)
          << "dim " << j << " after " << by_version.size() << " versions";
    }
  }
}

TEST_P(DynSgdPropertyTest, DeferredAndImmediateModesAgree) {
  const RandomWorkload w = GetParam();
  DynSgdRule immediate;
  DynSgdRule::Options dopts;
  dopts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule deferred(dopts);
  immediate.Reset(w.dim, w.num_workers);
  deferred.Reset(w.dim, w.num_workers);
  ParamBlock wi(w.dim);
  ParamBlock wd(w.dim);
  for (const auto& op : MakeTrace(w).ops) {
    if (op.is_pull) {
      immediate.OnPull(op.worker, 0);
      deferred.OnPull(op.worker, 0);
      continue;
    }
    immediate.OnPush(op.worker, op.clock, op.update, &wi);
    deferred.OnPush(op.worker, op.clock, op.update, &wd);
    const auto a = immediate.Materialize(wi);
    const auto b = deferred.Materialize(wd);
    for (size_t j = 0; j < w.dim; ++j) {
      ASSERT_NEAR(a[j], b[j], 1e-9);
    }
  }
}

TEST_P(DynSgdPropertyTest, LiveVersionWindowRespectsTheorem3) {
  // The number of live versions never exceeds cmax - cmin + 1, so the
  // auxiliary memory obeys Eq. (7) / Theorem 3.
  const RandomWorkload w = GetParam();
  DynSgdRule rule;
  rule.Reset(w.dim, w.num_workers);
  ParamBlock param(w.dim);
  ClockTable clocks(w.num_workers);
  for (const auto& op : MakeTrace(w).ops) {
    if (op.is_pull) continue;
    rule.OnPush(op.worker, op.clock, op.update, &param);
    clocks.OnPush(op.worker, op.clock);
    const int window = clocks.cmax() - clocks.cmin() + 1;
    ASSERT_LE(rule.ActiveVersionCount(), static_cast<size_t>(window));
  }
}

TEST_P(DynSgdPropertyTest, StalenessWeightsAreProbabilities) {
  const RandomWorkload w = GetParam();
  DynSgdRule rule;
  rule.Reset(w.dim, w.num_workers);
  ParamBlock param(w.dim);
  for (const auto& op : MakeTrace(w).ops) {
    if (op.is_pull) continue;
    rule.OnPush(op.worker, op.clock, op.update, &param);
    ASSERT_GE(rule.ObservedMeanStaleness(), 1.0);
    ASSERT_LE(rule.ObservedMeanStaleness(),
              static_cast<double>(w.num_workers));
  }
}

TEST_P(DynSgdPropertyTest, ConRuleIsLinearInUpdates) {
  // ConSGD invariant: the parameter is always λg times the plain sum.
  const RandomWorkload w = GetParam();
  ConRule con;
  SspRule ssp;
  con.Reset(w.dim, w.num_workers);
  ssp.Reset(w.dim, w.num_workers);
  ParamBlock wc(w.dim);
  ParamBlock ws(w.dim);
  const double lambda = 1.0 / static_cast<double>(w.num_workers);
  for (const auto& op : MakeTrace(w).ops) {
    if (op.is_pull) continue;
    con.OnPush(op.worker, op.clock, op.update, &wc);
    ssp.OnPush(op.worker, op.clock, op.update, &ws);
    for (size_t j = 0; j < w.dim; ++j) {
      ASSERT_NEAR(wc.At(j), lambda * ws.At(j), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, DynSgdPropertyTest,
    ::testing::Values(RandomWorkload{2, 6, 4, 11},
                      RandomWorkload{3, 5, 6, 12},
                      RandomWorkload{5, 8, 3, 13},
                      RandomWorkload{8, 4, 5, 14},
                      RandomWorkload{4, 12, 2, 15}));

}  // namespace
}  // namespace hetps
